"""Tests for the Resource Manager scheduling modes.

Placement goes through the production path, ``begin_batch(...).schedule``
(``scalar_cluster.place`` is a batch of one request).
"""

from __future__ import annotations

import pytest
import scalar_cluster
from scalar_cluster import (
    ContainerRequest,
    build_fleet,
    make_row,
    place,
    scalar_exhausted,
    schedule_wave,
)

from repro.cluster.resource_manager import ResourceManager, SchedulerMode
from repro.cluster.resources import Resource


def build_rm(
    mode: SchedulerMode,
    utilizations: dict,
    labels: dict | None = None,
) -> ResourceManager:
    """An RM over one server per ``{id: utilization}``, heartbeat at t=0.

    A ``[before, after]`` utilization models a primary spike at t=120.
    """
    rows = [make_row(sid, util) for sid, util in utilizations.items()]
    rm = scalar_cluster.build_rm(rows, mode=mode, labels=labels)
    rm.process_heartbeats(0.0)
    return rm


def request(labels: list[str] | None = None) -> ContainerRequest:
    return ContainerRequest(
        job_id="job", task_id="task", allocation=Resource(1.0, 2.0),
        node_labels=labels or [],
    )


def shape(allocation: Resource, labels=()) -> tuple:
    """The request shape the Application Master checks."""
    return (allocation.cores, allocation.memory_gb, tuple(labels))


def assert_exact(rm: ResourceManager, shapes) -> None:
    """``shape_exhausted`` equals the scalar recount for every shape."""
    for s in shapes:
        assert rm.shape_exhausted(s) == scalar_exhausted(rm, s), s


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            build_fleet([make_row("a", 0.2), make_row("a", 0.2)])

    def test_unknown_server_lookup_raises(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": 0.2})
        with pytest.raises(KeyError):
            rm.set_label("missing", "constant-0")

    def test_labels_ignored_outside_history_mode(self):
        rm = build_rm(
            SchedulerMode.PRIMARY_AWARE, {"a": 0.2}, labels={"a": "constant-0"}
        )
        container = place(rm, request(labels=["some-other-label"]), 0.0)
        assert container is not None


class TestScheduling:
    def test_schedules_to_server_with_capacity(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": 0.2, "b": 0.2})
        container = place(rm, request(), 0.0)
        assert container is not None
        assert container.server_id in {"a", "b"}
        assert int(rm.fleet.running_containers.sum()) == 1

    def test_returns_none_when_nothing_fits(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": 0.9})
        big_request = ContainerRequest("job", "task", Resource(10.0, 20.0))
        assert place(rm, big_request, 0.0) is None
        assert int(rm.fleet.running_containers.sum()) == 0

    def test_capacity_exhaustion_flag_lifecycle(self):
        """``shape_exhausted`` is exact for the current view: a shape no
        server fits is exhausted before any wave has failed on it, and the
        answer follows heartbeats, launches and completions."""
        # The primary runs at 0.7 until t=120, then drops to 0.2.
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": [0.7, 0.2]})
        big = Resource(10.0, 20.0)
        small = Resource(1.0, 2.0)
        shapes = [shape(big), shape(small), shape(small, ["constant-0"])]
        # 12 - ceil(8.4) - 4 (reserve) leaves nothing harvestable.
        assert rm.shape_exhausted(shape(big))
        assert rm.shape_exhausted(shape(small))
        assert_exact(rm, shapes)
        assert place(rm, ContainerRequest("job", "t", small), 0.0) is None
        # The burst ends: 12 - 3 - 4 = 5 harvestable cores.
        rm.process_heartbeats(120.0)
        assert rm.shape_exhausted(shape(big))
        assert not rm.shape_exhausted(shape(small))
        # Outside History mode labels do not restrict placement.
        assert not rm.shape_exhausted(shape(small, ["constant-0"]))
        assert_exact(rm, shapes)
        placed = [
            place(rm, ContainerRequest("job", f"t{i}", small), 120.0)
            for i in range(5)
        ]
        assert all(placed)
        assert rm.shape_exhausted(shape(small))
        assert_exact(rm, shapes)
        rm.complete(placed[0], 121.0)
        assert not rm.shape_exhausted(shape(small))
        assert_exact(rm, shapes)

    def test_exhaustion_follows_labels_and_relabelling(self):
        """History mode: a label set is exhausted when its servers are full,
        and a label set that names no server falls back to every server."""
        rm = build_rm(
            SchedulerMode.HISTORY,
            {"a": 0.2, "b": 0.2},
            labels={"a": "constant-0", "b": "periodic-0"},
        )
        small = Resource(1.0, 2.0)
        shapes = [
            shape(small, labels)
            for labels in (
                [],
                ["constant-0"],
                ["periodic-0"],
                ["periodic-0", "constant-0"],
                ["missing"],
            )
        ]
        for i in range(5):
            assert place(rm, request(labels=["constant-0"]), 0.0) is not None
        assert rm.shape_exhausted(shape(small, ["constant-0"]))
        assert not rm.shape_exhausted(shape(small, ["constant-0", "periodic-0"]))
        assert not rm.shape_exhausted(shape(small, ["missing"]))
        assert_exact(rm, shapes)
        rm.set_label("b", "constant-0")
        assert not rm.shape_exhausted(shape(small, ["constant-0"]))
        # "periodic-0" now names no server: the fallback is every server.
        assert not rm.shape_exhausted(shape(small, ["periodic-0"]))
        assert_exact(rm, shapes)

    def test_completion_clears_capacity_exhaustion(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": 0.2})
        # 12 - 3 (primary, rounded up) - 4 (reserve) leaves 5 harvestable cores.
        placed = [
            place(rm, ContainerRequest("job", f"t{i}", Resource(1.0, 2.0)), 0.0)
            for i in range(5)
        ]
        assert all(placed)
        assert place(rm, ContainerRequest("job", "t5", Resource(1.0, 2.0)), 0.0) is None
        assert rm.shape_exhausted(shape(Resource(1.0, 2.0)))
        rm.complete(placed[0], 1.0)
        assert not rm.shape_exhausted(shape(Resource(1.0, 2.0)))
        assert place(rm, ContainerRequest("job", "t6", Resource(1.0, 2.0)), 1.0)

    def test_history_mode_honours_labels(self):
        rm = build_rm(
            SchedulerMode.HISTORY,
            {"a": 0.2, "b": 0.2},
            labels={"a": "constant-0", "b": "periodic-0"},
        )
        # Server "a" offers 12 - 3 (primary) - 4 (reserve) = 5 harvestable
        # cores; every one-core labelled request must land there.
        for _ in range(5):
            container = place(rm, request(labels=["constant-0"]), 0.0)
            assert container is not None
            assert container.server_id == "a"
        # Once the labelled class is full the request cannot be satisfied.
        assert place(rm, request(labels=["constant-0"]), 0.0) is None

    def test_history_mode_unknown_label_falls_back(self):
        rm = build_rm(
            SchedulerMode.HISTORY, {"a": 0.2}, labels={"a": "constant-0"}
        )
        container = place(rm, request(labels=["missing-label"]), 0.0)
        assert container is not None

    def test_stock_mode_prefers_most_available(self):
        rm = build_rm(SchedulerMode.STOCK, {"busy": 0.0, "idle": 0.0})
        # Pre-load one server so the other has strictly more available cores.
        first = place(rm, request(), 0.0)
        rm.process_heartbeats(1.0)
        second = place(rm, request(), 1.0)
        assert first is not None and second is not None
        assert first.server_id != second.server_id

    def test_completion_releases_resources(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": 0.2})
        container = place(rm, request(), 0.0)
        assert container is not None
        available = float(rm.fleet.available_cores[0])
        rm.complete(container, 10.0)
        assert rm.fleet.available_cores[0] == available + 1.0
        # Releasing makes room for another container immediately.
        assert place(rm, request(), 10.0) is not None


class TestHeartbeatsAndUtilization:
    def test_heartbeats_report_kills(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": [0.25, 0.7]})
        for i in range(5):
            launched = place(rm, request(), 0.0)
            assert launched is not None
        killed = rm.process_heartbeats(120.0)  # the primary spikes to 0.7
        assert killed
        assert int(rm.fleet.running_containers[0]) == 5 - len(killed)

    def test_average_utilizations(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {"a": 0.2, "b": 0.4})
        primary = rm.fleet.primary_utilization(0.0)
        assert sum(primary.tolist()) / len(rm.fleet) == pytest.approx(0.3)
        total = rm.average_total_utilization(0.0)
        assert total >= 0.3

    def test_class_capacity_and_utilization(self):
        rm = build_rm(
            SchedulerMode.HISTORY,
            {"a": 0.2, "b": 0.6},
            labels={"a": "c0", "b": "c1"},
        )
        (c0_cores, _), (_, c1_util), missing = rm.class_statistics(
            ["c0", "c1", "missing"], 0.0
        )
        assert c0_cores == pytest.approx(12.0)
        assert c1_util == pytest.approx(0.6)
        assert missing == (0.0, 0.0)

    def test_empty_rm_statistics(self):
        rm = ResourceManager(build_fleet([]), mode=SchedulerMode.HISTORY)
        assert rm.process_heartbeats(0.0) == []
        assert rm.average_total_utilization(0.0) == 0.0
        assert rm.class_statistics(["c0"], 0.0) == [(0.0, 0.0)]


class TestScheduleWavesParity:
    """Coalesced pump batches vs one batch per wave."""

    @staticmethod
    def _coalesced(rm, waves, time):
        """One batch for every wave, skipping shapes exhausted on the way —
        what ``ApplicationMaster.pump_all`` submits in one pump tick."""
        batch = rm.begin_batch(time)
        results = []
        for requests in waves:
            first = requests[0]
            if rm.shape_exhausted(shape(first.allocation, first.node_labels)):
                results.append([None] * len(requests))
                continue
            results.append(schedule_wave(batch, requests))
        return results

    @staticmethod
    def _sequential(rm, waves, time):
        """The same starvation check, then one batch per request."""
        results = []
        for requests in waves:
            first = requests[0]
            if rm.shape_exhausted(shape(first.allocation, first.node_labels)):
                results.append([None] * len(requests))
                continue
            results.append([place(rm, r, time) for r in requests])
        return results

    @staticmethod
    def _ids(results):
        return [[c.server_id if c else None for c in wave] for wave in results]

    @staticmethod
    def _wave(name, count, alloc, labels=None):
        return [
            ContainerRequest("job", f"{name}-{i}", alloc, node_labels=labels or [])
            for i in range(count)
        ]

    def _mixed_waves(self):
        small = Resource(1.0, 2.0)
        medium = Resource(2.0, 4.0)
        huge = Resource(64.0, 128.0)  # never fits: starves its shape
        return [
            self._wave("a", 3, medium),
            # 40 small placements fill most servers: the medium shape's
            # candidates shrink while it is not the active wave.
            self._wave("b", 40, small),
            self._wave("starve", 2, huge),
            self._wave("c", 4, medium),
            self._wave("d", 3, small),
            self._wave("starve2", 3, huge),  # same starved shape: skipped
            self._wave("e", 2, small),
        ]

    def test_matches_sequential_oracle_with_starved_shapes(self):
        utils = {f"s{i:02d}": 0.1 + 0.05 * (i % 4) for i in range(12)}
        batch_rm = build_rm(SchedulerMode.PRIMARY_AWARE, utils)
        scalar_rm = build_rm(SchedulerMode.PRIMARY_AWARE, utils)
        batched = self._coalesced(batch_rm, self._mixed_waves(), 0.0)
        sequential = self._sequential(scalar_rm, self._mixed_waves(), 0.0)
        assert self._ids(batched) == self._ids(sequential)
        assert batched[2] == [None, None]
        assert batched[5] == [None, None, None]
        # Identical random stream position and exhaustion answers.
        assert batch_rm._rng.uniform() == scalar_rm._rng.uniform()
        shapes = {
            shape(wave[0].allocation, wave[0].node_labels)
            for wave in self._mixed_waves()
        }
        for s in shapes:
            assert batch_rm.shape_exhausted(s) == scalar_rm.shape_exhausted(s)
        assert_exact(batch_rm, shapes)
        assert batch_rm.waves_coalesced >= 2

    def test_label_permutations_coalesce_and_match_oracle(self):
        utils = {f"s{i}": 0.15 for i in range(8)}
        labels = {f"s{i}": ("constant-0" if i % 2 else "diurnal-1") for i in range(8)}

        def waves():
            alloc = Resource(1.0, 2.0)
            return [
                self._wave("x", 3, alloc, ["constant-0", "diurnal-1"]),
                self._wave("y", 3, alloc, ["diurnal-1", "constant-0"]),
            ]

        batch_rm = build_rm(SchedulerMode.HISTORY, utils, labels=labels)
        scalar_rm = build_rm(SchedulerMode.HISTORY, utils, labels=labels)
        batched = self._coalesced(batch_rm, waves(), 0.0)
        sequential = self._sequential(scalar_rm, waves(), 0.0)
        assert self._ids(batched) == self._ids(sequential)
        assert batch_rm._rng.uniform() == scalar_rm._rng.uniform()
        # A permuted label list is the same shape: the second wave counts
        # as a later wave of the first one's shape.
        assert batch_rm.waves_coalesced == 1

    def test_waves_coalesced_counts_only_within_a_batch(self):
        rm = build_rm(SchedulerMode.PRIMARY_AWARE, {f"s{i}": 0.1 for i in range(4)})
        alloc = Resource(1.0, 2.0)
        batch = rm.begin_batch(0.0)
        schedule_wave(batch, self._wave("a", 2, alloc))
        assert rm.waves_coalesced == 0
        schedule_wave(batch, self._wave("b", 2, alloc))
        assert rm.waves_coalesced == 1
        # A fresh batch has scheduled no shape yet; the count never spans
        # ticks.
        schedule_wave(rm.begin_batch(1.0), self._wave("c", 1, alloc))
        assert rm.waves_coalesced == 1

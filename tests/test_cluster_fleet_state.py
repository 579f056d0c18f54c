"""Tests for the FleetState substrate and its scalar-path equivalence.

Mirrors ``tests/test_traces_matrix.py`` on the compute side: every batched
fleet operation (heartbeat refresh, reserve-kill selection, proportional
placement, label filtering) is checked against the per-server reference of
``tests/scalar_cluster.py``, with the twins driven through identical
launches and random streams.
"""

from __future__ import annotations

import pytest
from scalar_cluster import (
    ContainerRequest,
    LegacyScalarScheduler,
    ScalarServer,
    build_fleet,
    build_rm,
    make_row,
    place,
    scalar_heartbeats,
)

from repro.cluster.resource_manager import SchedulerMode
from repro.cluster.resources import Resource
from repro.traces.datacenter import PrimaryTenant, Server

PROFILES = {
    "idle": [0.1, 0.1, 0.2, 0.1],
    "diurnal": [0.2, 0.7, 0.9, 0.3],
    "busy": [0.6, 0.65, 0.7, 0.6],
    "spiky": [0.05, 0.95, 0.05, 0.95],
}


def rows_of(profiles: dict) -> list:
    return [make_row(sid, values) for sid, values in profiles.items()]


def twins(profiles: dict):
    """Fleet rows plus per-server scalar twins over the same tenants."""
    rows = rows_of(profiles)
    return rows, [ScalarServer(row) for row in rows]


def launch_on(rm, server_id, task_id, allocation, time):
    fleet = rm.fleet
    return fleet.launch(fleet.index_of(server_id), task_id, "job", allocation, time)


class TestRefreshEquivalence:
    def test_available_matches_scalar_heartbeats(self):
        rows, scalar = twins(PROFILES)
        rm = build_rm(rows)
        for time in [0.0, 120.0, 123.0, 240.0, 480.0, 1200.0]:
            rm.process_heartbeats(time)
            expected, _ = scalar_heartbeats(scalar, time)
            for sid, resource in expected.items():
                index = rm.fleet.index_of(sid)
                assert rm.fleet.available_cores[index] == resource.cores
                assert rm.fleet.available_memory[index] == resource.memory_gb

    def test_available_tracks_allocations(self):
        rows, scalar = twins(PROFILES)
        rm = build_rm(rows)
        scalar_by_id = {s.server_id: s for s in scalar}
        rm.process_heartbeats(0.0)
        for i in range(6):
            container = place(
                rm, ContainerRequest("job", f"t{i}", Resource(1.0, 2.0)), 0.0
            )
            assert container is not None
            scalar_by_id[container.server_id].launch(
                f"t{i}", "job", Resource(1.0, 2.0), 0.0
            )
        rm.process_heartbeats(3.0)
        expected, _ = scalar_heartbeats(scalar, 3.0)
        for sid, resource in expected.items():
            index = rm.fleet.index_of(sid)
            assert rm.fleet.available_cores[index] == resource.cores
            assert rm.fleet.available_memory[index] == resource.memory_gb

    def test_stock_mode_ignores_primary(self):
        rm = build_rm(rows_of(PROFILES), mode=SchedulerMode.STOCK)
        rm.process_heartbeats(120.0)  # "diurnal" is at 0.7, "spiky" at 0.95
        # Oblivious NodeManagers report full capacity minus allocations.
        assert list(rm.fleet.available_cores) == [12.0] * len(PROFILES)


class TestReserveKillEquivalence:
    def test_kills_match_scalar_youngest_first(self):
        rows, scalar = twins({"burst": [0.1, 0.8]})
        rm = build_rm(rows)
        rm.process_heartbeats(0.0)
        for i in range(6):
            container = place(
                rm, ContainerRequest("job", f"t{i}", Resource(1.0, 2.0)), float(i)
            )
            assert container is not None
            scalar[0].launch(f"t{i}", "job", Resource(1.0, 2.0), float(i))
        # Sample 1 (t=120): primary bursts to 0.8 -> reserve violated.
        killed = rm.process_heartbeats(120.0)
        _, expected = scalar_heartbeats(scalar, 120.0)
        assert killed
        assert [c.task_id for c in killed] == [c.task_id for c in expected]
        # Youngest-first: the most recently started tasks die first.
        starts = [c.start_time for c in killed]
        assert starts == sorted(starts, reverse=True)

    def test_no_kills_without_violation(self):
        rm = build_rm(rows_of(PROFILES))
        rm.process_heartbeats(0.0)
        assert place(rm, ContainerRequest("job", "t", Resource(1.0, 2.0)), 0.0)
        assert rm.process_heartbeats(3.0) == []


class TestPlacementEquivalence:
    @pytest.mark.parametrize("mode", [SchedulerMode.PRIMARY_AWARE, SchedulerMode.STOCK])
    def test_draw_sequence_matches_scalar(self, mode):
        rm = build_rm(rows_of(PROFILES), mode=mode, seed=9)
        reference_rm = build_rm(rows_of(PROFILES), mode=mode, seed=9)
        reference = LegacyScalarScheduler(reference_rm, reference_rm._rng)
        rm.process_heartbeats(0.0)
        reference_rm.process_heartbeats(0.0)
        for i in range(20):
            request = ContainerRequest("job", f"t{i}", Resource(1.0, 2.0))
            container = place(rm, request, 0.0)
            expected_sid = reference.schedule(request)
            if container is None:
                assert expected_sid is None
                break
            # Mirror the placement on the reference cluster's RM view.
            launch_on(reference_rm, expected_sid, f"t{i}", request.allocation, 0.0)
            assert container.server_id == expected_sid

    def test_proportional_draw_prefers_available(self):
        rm = build_rm(rows_of({"idle": [0.0], "full": [0.9]}), seed=4)
        rm.process_heartbeats(0.0)
        placements = []
        for i in range(6):
            container = place(
                rm, ContainerRequest("job", f"t{i}", Resource(1.0, 2.0)), 0.0
            )
            if container is None:
                break
            placements.append(container.server_id)
        assert placements.count("idle") > placements.count("full")


class TestLabelFiltering:
    LABELS = {"idle": "c-idle", "diurnal": "c-diurnal", "busy": "c-idle"}

    def build(self):
        rm = build_rm(rows_of(PROFILES), mode=SchedulerMode.HISTORY, labels=self.LABELS)
        rm.process_heartbeats(0.0)
        return rm

    def test_label_mask_intersection(self):
        rm = self.build()
        mask = rm.fleet.label_mask(["c-idle"])
        assert list(mask) == [True, False, True, False]
        both = rm.fleet.label_mask(["c-idle", "c-diurnal"])
        assert list(both) == [True, True, True, False]

    def test_labelled_requests_stay_in_class(self):
        rm = self.build()
        for i in range(4):
            container = place(
                rm,
                ContainerRequest(
                    "job", f"t{i}", Resource(1.0, 2.0), node_labels=["c-idle"]
                ),
                0.0,
            )
            assert container is not None
            assert container.server_id in {"idle", "busy"}

    def test_unknown_label_falls_back_to_default(self):
        rm = self.build()
        container = place(
            rm,
            ContainerRequest("job", "t", Resource(1.0, 2.0), node_labels=["nope"]),
            0.0,
        )
        assert container is not None

    def test_relabel_invalidates_mask(self):
        rm = self.build()
        assert int(rm.fleet.label_mask(["c-idle"]).sum()) == 2
        rm.set_label("busy", "c-diurnal")
        assert int(rm.fleet.label_mask(["c-idle"]).sum()) == 1
        assert rm.class_statistics(["c-diurnal"], 0.0)[0][0] == 24.0


class TestClassStatistics:
    def test_class_utilization_matches_scalar_mean(self):
        rows, scalar = twins(PROFILES)
        labels = {sid: "c" for sid in PROFILES}
        rm = build_rm(rows, mode=SchedulerMode.HISTORY, labels=labels)
        expected = sum(s.total_cpu_utilization(120.0) for s in scalar) / len(scalar)
        assert rm.class_statistics(["c"], 120.0) == [(48.0, expected)]
        assert rm.average_total_utilization(120.0) == expected
        assert rm.class_statistics(["missing"], 120.0) == [(0.0, 0.0)]

    def test_average_primary_utilization_matches_scalar(self):
        rows, scalar = twins(PROFILES)
        fleet = build_fleet(rows)
        util = fleet.primary_utilization(240.0)
        assert util.tolist() == [s.tenant.utilization_at(240.0) for s in scalar]
        expected = sum(s.tenant.utilization_at(240.0) for s in scalar) / len(scalar)
        assert sum(util.tolist()) / len(fleet) == expected


class TestSampleCaches:
    def test_primary_utilization_is_one_frozen_array_per_sample(self):
        fleet = build_fleet(rows_of(PROFILES))
        first = fleet.primary_utilization(0.0)
        assert fleet.primary_utilization(117.0) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        crossed = fleet.primary_utilization(120.0)
        assert crossed is not first
        assert crossed.tolist() == [values[1] for values in PROFILES.values()]
        assert fleet.primary_utilization(239.0) is crossed

    def test_secondary_fraction_is_cached_per_allocation_version(self):
        fleet = build_fleet(rows_of(PROFILES))
        fleet.refresh(0.0)
        before = fleet.secondary_cpu_fraction()
        assert fleet.secondary_cpu_fraction() is before
        assert not before.flags.writeable
        container = fleet.launch(1, "t", "job", Resource(3.0, 2.0), 0.0)
        launched = fleet.secondary_cpu_fraction()
        assert launched is not before
        assert launched.tolist() == [0.0, 0.25, 0.0, 0.0]
        fleet.complete(container, 1.0)
        assert fleet.secondary_cpu_fraction().tolist() == before.tolist()

    def test_average_utilization_follows_allocations_within_a_sample(self):
        rm = build_rm(rows_of(PROFILES))
        rm.process_heartbeats(0.0)
        idle = rm.average_total_utilization(0.0)
        assert rm.average_total_utilization(3.0) == idle
        container = launch_on(rm, "idle", "t", Resource(3.0, 2.0), 3.0)
        busy = rm.average_total_utilization(3.0)
        assert busy == pytest.approx(idle + 0.25 / len(PROFILES))
        rm.complete(container, 6.0)
        assert rm.average_total_utilization(6.0) == idle
        assert rm.average_total_utilization(120.0) != idle


class TestOverridesAndViews:
    def test_duplicate_registration_rejected(self):
        rows = rows_of(PROFILES) + [make_row("idle", [0.1])]
        with pytest.raises(ValueError, match="idle"):
            build_fleet(rows)

    def test_tenant_without_trace_rejected(self):
        tenant = PrimaryTenant("bare", "env", "mf")
        server = Server("s0", "bare")
        with pytest.raises(ValueError, match="bare"):
            build_fleet([(server, tenant)])

    def test_empty_fleet_never_kills(self):
        fleet = build_fleet([])
        assert fleet.refresh(0.0) == []
        assert len(fleet.primary_utilization(0.0)) == 0

    def test_reserve_fractions_validated(self):
        with pytest.raises(ValueError):
            build_fleet(rows_of(PROFILES), cpu_fraction=1.0)
        fleet = build_fleet(rows_of(PROFILES))
        with pytest.raises(ValueError):
            fleet.apply_reserve(0.2, -0.1)
        fleet.apply_reserve(0.25, 0.5)
        assert list(fleet.reserve_cores) == [3.0] * len(PROFILES)
        assert list(fleet.reserve_memory) == [16.0] * len(PROFILES)


class TestInexactAllocationGuard:
    """The kill-path recompute-on-refresh guard for fractional allocations."""

    def test_fractional_allocations_recomputed_on_refresh(self):
        rows, scalar = twins({f"s{i}": [0.0, 0.0] for i in range(3)})
        rm = build_rm(rows)
        fleet = rm.fleet
        rm.process_heartbeats(0.0)
        allocation = Resource(0.1, 0.3)  # off the 1/256 binary grid
        containers = [
            fleet.launch(0, f"t{i}", "job", allocation, 0.0) for i in range(10)
        ]
        twin = [scalar[0].launch(f"t{i}", "job", allocation, 0.0) for i in range(10)]
        assert fleet._inexact_allocations
        for container, reference in zip(containers[:7], twin[:7]):
            fleet.complete(container, 1.0)
            scalar[0].complete(reference, 1.0)
        rm.process_heartbeats(2.0)
        expected = scalar[0].allocated()
        # Bit-exact match with the scalar per-server re-sum, which repeated
        # 0.1-core float adds/subtracts cannot guarantee.
        assert float(fleet.allocated_cores[0]) == expected.cores
        assert float(fleet.allocated_memory[0]) == expected.memory_gb
        assert int(fleet.running_containers[0]) == 3

    def test_binary_grid_allocations_stay_incremental(self):
        rm = build_rm([make_row("s0", [0.0, 0.0])])
        rm.process_heartbeats(0.0)
        rm.fleet.launch(0, "t", "job", Resource(1.0, 2.0), 0.0)
        assert not rm.fleet._inexact_allocations
        rm.process_heartbeats(1.0)
        assert float(rm.fleet.allocated_cores[0]) == 1.0


def record_row_sums(monkeypatch, fleet) -> list:
    """Record every fresh per-row re-sum the fleet takes."""
    calls = []
    original = fleet._row_sums

    def recording(index):
        calls.append(index)
        return original(index)

    monkeypatch.setattr(fleet, "_row_sums", recording)
    return calls


class TestReclaimEquivalence:
    """The reserve-kill walk vs the scalar per-server kill walk."""

    def test_multiple_violators_match_scalar_order_with_ties(self, monkeypatch):
        rows, scalar = twins({f"v{i}": [0.1, 0.8] for i in range(3)})
        rm = build_rm(rows)
        rm.process_heartbeats(0.0)
        # Launch identical containers on both twins, with start-time ties so
        # the youngest-first sort's stability is exercised.
        start_times = [0.0, 1.0, 1.0, 2.0, 3.0, 3.0]
        for index, twin in enumerate(scalar):
            for i, start in enumerate(start_times):
                task_id = f"{twin.server_id}-t{i}"
                rm.fleet.launch(index, task_id, "job", Resource(1.0, 2.0), start)
                twin.launch(task_id, "job", Resource(1.0, 2.0), start)
        assert not rm.fleet._inexact_allocations
        sums = record_row_sums(monkeypatch, rm.fleet)
        killed = rm.process_heartbeats(120.0)
        _, expected = scalar_heartbeats(scalar, 120.0)
        assert killed
        assert [c.task_id for c in killed] == [c.task_id for c in expected]
        # On the grid the walk subtracts the victims; it never re-sums.
        assert not sums
        # Youngest-first within each violating server.
        for twin in scalar:
            starts = [c.start_time for c in killed if c.server_id == twin.server_id]
            assert starts == sorted(starts, reverse=True)

    def test_off_grid_allocations_use_scalar_fallback(self, monkeypatch):
        rows, scalar = twins({"frac": [0.1, 0.5]})
        rm = build_rm(rows)
        rm.process_heartbeats(0.0)
        allocation = Resource(0.7, 1.3)  # off the 1/256 binary grid
        for i in range(8):
            rm.fleet.launch(0, f"t{i}", "job", allocation, float(i))
            scalar[0].launch(f"t{i}", "job", allocation, float(i))
        fleet = rm.fleet
        assert fleet._inexact_allocations
        sums = record_row_sums(monkeypatch, fleet)
        killed = rm.process_heartbeats(120.0)
        _, expected = scalar_heartbeats(scalar, 120.0)
        assert killed
        assert [c.task_id for c in killed] == [c.task_id for c in expected]
        # Off-grid fleets re-sum the row before every kill (and once more
        # for the stop test that ends the walk), never subtracting.
        assert sums.count(0) >= len(killed) + 1

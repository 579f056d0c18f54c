"""Property-based conservation checks for the compute scheduler's FleetState.

The compute counterpart of ``tests/test_property_storage.py``:
:func:`check_fleet_invariants` states what must hold of a
:class:`~repro.cluster.fleet_state.FleetState` after any sequence of
launches, completions, heartbeats, reserve resizes, relabellings and
Resource Manager placement batches, and the tests drive it with randomized
sequences (checking after every placement inside a batch too) and from
inside a scenario run.  Twin fleets driven through one random sequence,
one of them forced onto the full refresh path before every heartbeat, check
that the mid-sample dirty-row refresh publishes the same RM view and kills
the same containers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_cluster import (
    ContainerRequest,
    build_rm,
    make_row,
    scalar_candidates,
    schedule_wave,
)

import repro.api as api
from repro.cluster.fleet_state import FleetState
from repro.cluster.resource_manager import SchedulerMode
from repro.cluster.resources import Resource
from repro.cluster.server import ContainerState
from repro.jobs.scheduler_variants import HarvestingCluster


def check_fleet_invariants(fleet: FleetState) -> None:
    """Conservation invariants of the per-server scheduler state.

    Per row: the allocated columns equal the in-order re-sum of the row's
    running containers (exactly while every allocation sits on the 1/256
    grid), the running count equals the number of containers, every
    container is running and maps back to this row, and the RM view of
    available resources is non-negative.  Per indexed allocation, the fit
    index equals a recount: its flags equal ``fits_mask``, its rows are the
    fitting rows in ascending order, and its per-label lists split them by
    the rows' current labels.
    """
    for index in range(len(fleet)):
        running = fleet._running[index]
        cores = memory_gb = 0.0
        for container_id, container in running.items():
            assert container.container_id == container_id
            assert container.state is ContainerState.RUNNING
            assert fleet.index_of(container.server_id) == index
            cores += container.allocation.cores
            memory_gb += container.allocation.memory_gb
        if fleet._inexact_allocations:
            # Off the grid the incremental sums drift by float rounding
            # until the next refresh re-sums them.
            assert abs(fleet.allocated_cores[index] - cores) <= 1e-9
            assert abs(fleet.allocated_memory[index] - memory_gb) <= 1e-9
        else:
            assert fleet.allocated_cores[index] == cores
            assert fleet.allocated_memory[index] == memory_gb
        assert fleet.running_containers[index] == len(running)
        assert fleet.available_cores[index] >= 0.0
        assert fleet.available_memory[index] >= 0.0
    for (cores, memory_gb), fit in fleet._fit_index.items():
        mask = fleet.fits_mask(cores, memory_gb)
        assert fit.fits == mask.tolist()
        assert fit.rows == np.flatnonzero(mask).tolist()
        by_label = {}
        for row in fit.rows:
            by_label.setdefault(fleet.label_of(row), []).append(row)
        assert {label: rows for label, rows in fit.by_label.items() if rows} == by_label


#: Traces with one sample per 120 s: calm, diurnal, busy, and spiky rows, so
#: random heartbeats both place and kill.
PROFILES = {
    "calm": [0.1, 0.1, 0.2, 0.1],
    "diurnal": [0.2, 0.7, 0.9, 0.3],
    "busy": [0.6, 0.65, 0.7, 0.6],
    "spiky": [0.05, 0.95, 0.05, 0.95],
}

ON_GRID = st.sampled_from([Resource(1.0, 2.0), Resource(2.0, 4.0), Resource(0.5, 1.5)])
OFF_GRID = st.sampled_from([Resource(0.1, 0.3), Resource(0.7, 1.3), Resource(1.0, 2.0)])

#: Initial utilization-class labels (History mode reads them); "spiky" starts
#: unlabelled.
LABELS = {"calm": "c0", "diurnal": "c1", "busy": "c0"}
#: Request label sets: none, one class, both classes in either order, and a
#: class no server carries (the fall-back-to-every-server case).
LABEL_SETS = st.sampled_from(
    [[], ["c0"], ["c1"], ["c0", "c1"], ["c1", "c0"], ["c2"], ["c2", "c1"]]
)


def operations(allocations):
    launch = st.tuples(
        st.just("launch"), st.integers(0, len(PROFILES) - 1), allocations
    )
    complete = st.tuples(st.just("complete"), st.integers(0, 1000))
    refresh = st.tuples(st.just("refresh"), st.integers(1, 6))
    reserve = st.tuples(
        st.just("apply_reserve"),
        st.floats(0.0, 0.6, allow_nan=False),
        st.floats(0.0, 0.6, allow_nan=False),
    )
    # One pump tick: a few uniform waves through one placement batch.
    schedule = st.tuples(
        st.just("schedule"),
        st.lists(
            st.tuples(allocations, st.integers(1, 8), LABEL_SETS),
            min_size=1,
            max_size=4,
        ),
    )
    relabel = st.tuples(
        st.just("relabel"),
        st.integers(0, len(PROFILES) - 1),
        st.sampled_from(["c0", "c1", "c2", None]),
    )
    return st.lists(
        st.one_of(
            launch, launch, complete, refresh, reserve, schedule, schedule, relabel
        ),
        max_size=60,
    )


def drive(ops) -> FleetState:
    """Apply ``ops`` to a fresh fleet, checking the invariants after each op
    and after every placement inside a placement batch."""
    rm = build_rm(
        [make_row(sid, values) for sid, values in PROFILES.items()],
        mode=SchedulerMode.HISTORY,
        labels=LABELS,
    )
    fleet = rm.fleet
    # The first heartbeat publishes the harvestable room.
    rm.process_heartbeats(0.0)
    launch = fleet.launch

    def launch_and_check(*args):
        container = launch(*args)
        check_fleet_invariants(fleet)
        return container

    # The batch launches through the instance attribute.
    fleet.launch = launch_and_check
    ids = fleet.server_ids
    live = []
    time = 0.0
    for op in ops:
        kind = op[0]
        if kind == "launch":
            _, index, allocation = op
            live.append(fleet.launch(index, "task", "job", allocation, time))
        elif kind == "schedule":
            batch = rm.begin_batch(time)
            for allocation, count, labels in op[1]:
                wave = [
                    ContainerRequest("job", f"task-{i}", allocation, node_labels=labels)
                    for i in range(count)
                ]
                shape = (allocation.cores, allocation.memory_gb, tuple(labels))
                exhausted = rm.shape_exhausted(shape)
                # Candidates in ascending row order, whatever order the
                # label set iterates in, equal to the scalar filter.
                candidates = fleet.fit_rows(
                    allocation.cores,
                    allocation.memory_gb,
                    rm._placement_labels(frozenset(labels)),
                )
                assert candidates == scalar_candidates(rm, allocation, labels)
                assert exhausted == (not candidates)
                placed = schedule_wave(batch, wave)
                assert len(placed) == count
                # An exhausted shape places nothing; any other places its
                # first request at least.
                assert (placed[0] is None) == exhausted
                live.extend(c for c in placed if c is not None)
        elif kind == "relabel":
            rm.set_label(ids[op[1]], op[2])
        elif kind == "complete" and live:
            container = live.pop(op[1] % len(live))
            fleet.complete(container, time)
        elif kind == "refresh":
            time += 60.0 * op[1]
            killed = fleet.refresh(time)
            assert all(c.state is ContainerState.KILLED for c in killed)
            live = [c for c in live if c.state is ContainerState.RUNNING]
        elif kind == "apply_reserve":
            fleet.apply_reserve(op[1], op[2])
        check_fleet_invariants(fleet)
    return fleet


class TestFleetInvariants:
    @settings(max_examples=60, deadline=None)
    @given(operations(ON_GRID))
    def test_invariants_hold_on_the_allocation_grid(self, ops):
        drive(ops)

    @settings(max_examples=40, deadline=None)
    @given(operations(OFF_GRID))
    def test_invariants_hold_off_the_grid(self, ops):
        drive(ops)

    def test_invariants_hold_at_every_scheduling_testbed_heartbeat(self, monkeypatch):
        checks = []
        original_run = HarvestingCluster.run

        def run_with_checks(cluster, duration_seconds):
            def check(engine):
                check_fleet_invariants(cluster.fleet)
                checks.append(engine.now)

            # After every same-time event, so each check sees the state a
            # heartbeat (and the pump it may trigger) left behind.
            cluster.engine.schedule_periodic(
                cluster.config.heartbeat_seconds,
                check,
                priority=100,
                name="fleet-invariants",
                until=duration_seconds,
            )
            original_run(cluster, duration_seconds)

        overrides = {"scale": "tiny"}
        plain = api.run("fig10-11-scheduling-testbed", overrides=overrides, seed=0)
        monkeypatch.setattr(HarvestingCluster, "run", run_with_checks)
        checked = api.run("fig10-11-scheduling-testbed", overrides=overrides, seed=0)
        assert len(checks) > 100
        # The checks only read state: the run is unchanged.
        assert checked.fingerprint() == plain.fingerprint()


# -- the dirty-row refresh against the full one ------------------------------

#: Heartbeat gaps, mostly inside one 120 s sample; the rest land onto and
#: across a sample boundary, or far enough to wrap past the 4-sample traces.
GAPS = st.sampled_from(
    [0.0, 3.0, 3.0, 3.0, 3.0, 30.0, 57.0, 117.0, 120.0, 123.0, 600.0]
)


#: Launches placed without a fit check, half a server each, so an oblivious
#: (Stock) row can hold more than its capacity and publish a clamped zero.
OVERSIZED = st.just(Resource(6.0, 16.0))


def twin_operations():
    row = st.integers(0, len(PROFILES) - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("launch"), row, ON_GRID),
            st.tuples(st.just("launch"), row, OVERSIZED),
            st.tuples(st.just("tight"), row),
            st.tuples(st.just("complete"), st.integers(0, 1000)),
            st.tuples(st.just("complete"), st.integers(0, 1000)),
            st.tuples(st.just("schedule"), ON_GRID, st.integers(1, 6), LABEL_SETS),
            st.tuples(st.just("relabel"), row, st.sampled_from(["c0", "c1", None])),
            st.tuples(
                st.just("apply_reserve"),
                st.floats(0.0, 0.6, allow_nan=False),
                st.floats(0.0, 0.6, allow_nan=False),
            ),
            st.tuples(st.just("refresh"), GAPS),
            st.tuples(st.just("refresh"), GAPS),
            st.tuples(st.just("refresh"), GAPS),
        ),
        max_size=50,
    )


def tight_reserve(fleet: FleetState, row: int, time: float):
    """A cpu reserve fraction leaving ``row`` room for one more core minus
    half of ``FIT_EPSILON``, or None when no fraction in [0, 1) does.

    An on-grid 1-core launch then fits the row only within the epsilon and
    overshoots its harvestable room by more than the violation tolerance.
    """
    capacity = float(fleet.capacity_cores[row])
    usage = np.ceil(fleet.primary_utilization(time)[row] * capacity)
    allocated = float(fleet.allocated_cores[row])
    room = capacity - usage - allocated - 1.0 + FleetState.FIT_EPSILON / 2
    fraction = room / capacity
    return fraction if 0.0 <= fraction < 1.0 else None


def drive_twins(rows, mode, ops, off_grid_at=None) -> None:
    """Apply ``ops`` to twin fleets; before every refresh the second twin is
    forced onto the full path, and after it both must agree bit for bit.

    Before op number ``off_grid_at`` both twins launch one off-grid
    container, which sends every later refresh down the full path.
    """
    labels = LABELS if rows else None
    twins = [build_rm(rows, mode=mode, labels=labels) for _ in range(2)]
    fleets = [rm.fleet for rm in twins]
    live = [[], []]
    time = 0.0
    serial = 0

    def refresh():
        fleets[1]._full_sample = None
        killed = [fleet.refresh(time) for fleet in fleets]
        assert [c.task_id for c in killed[0]] == [c.task_id for c in killed[1]]
        for side in (0, 1):
            live[side] = [c for c in live[side] if c.state is ContainerState.RUNNING]
        for column in ("available_cores", "available_memory", "allocated_cores"):
            assert getattr(fleets[0], column).tobytes() == getattr(
                fleets[1], column
            ).tobytes()

    def launch(index, allocation):
        nonlocal serial
        serial += 1
        for side, fleet in enumerate(fleets):
            live[side].append(
                fleet.launch(index, f"task-{serial}", "job", allocation, time)
            )

    refresh()
    for step, op in enumerate(ops):
        if step == off_grid_at and rows:
            launch(0, Resource(0.1, 0.3))
        kind = op[0]
        if kind in ("launch", "tight", "relabel") and not rows:
            continue
        if kind == "launch":
            launch(op[1], op[2])
        elif kind == "tight":
            fraction = tight_reserve(fleets[0], op[1], time)
            if fraction is None:
                continue
            for fleet in fleets:
                fleet.apply_reserve(fraction, 0.0)
            refresh()
            if (
                fleets[0].primary_aware
                and fleets[0].allocated_cores[op[1]] == 0.0
                and not fleets[0]._inexact_allocations
            ):
                room = float(fleets[0].available_cores[op[1]])
                assert room < 1.0 <= room + FleetState.FIT_EPSILON
            launch(op[1], Resource(1.0, 0.0))
        elif kind == "complete":
            if live[0]:
                pick = op[1] % len(live[0])
                for side, fleet in enumerate(fleets):
                    fleet.complete(live[side].pop(pick), time)
        elif kind == "schedule":
            _, allocation, count, labels = op
            placed = []
            for side, rm in enumerate(twins):
                wave = [
                    ContainerRequest("job", f"task-{serial}-{i}", allocation, labels)
                    for i in range(count)
                ]
                containers = schedule_wave(rm.begin_batch(time), wave)
                live[side].extend(c for c in containers if c is not None)
                placed.append([c and c.server_id for c in containers])
            serial += 1
            assert placed[0] == placed[1]
        elif kind == "relabel":
            for rm in twins:
                rm.set_label(rm.fleet.server_ids[op[1]], op[2])
        elif kind == "apply_reserve":
            for fleet in fleets:
                fleet.apply_reserve(op[1], op[2])
        elif kind == "refresh":
            time += op[1]
            refresh()
        for fleet in fleets:
            check_fleet_invariants(fleet)


class TestDirtyRefresh:
    """A mid-sample refresh of the rows touched since the last one equals a
    refresh of every row: same kills in the same order, bit-equal RM view."""

    @pytest.mark.parametrize(
        "mode", [SchedulerMode.HISTORY, SchedulerMode.STOCK], ids=["aware", "stock"]
    )
    @settings(max_examples=80, deadline=None)
    @given(ops=twin_operations(), off_grid_at=st.none() | st.integers(0, 50))
    # A Stock row over capacity publishes a clamped zero; a completion alone
    # then leaves it over capacity or not, which only a revisit can tell.
    @example(
        ops=[
            ("launch", 0, Resource(6.0, 16.0)),
            ("launch", 0, Resource(6.0, 16.0)),
            ("launch", 0, Resource(1.0, 2.0)),
            ("refresh", 3.0),
            ("complete", 0),
            ("refresh", 3.0),
        ],
        off_grid_at=None,
    )
    # Off the grid the incremental sum drifts (0.5 + 0.1 - 0.5 != 0.1) until
    # a full refresh re-sums the row.
    @example(
        ops=[("launch", 0, Resource(0.5, 1.5)), ("complete", 0), ("refresh", 3.0)],
        off_grid_at=1,
    )
    def test_dirty_path_equals_full_path(self, mode, ops, off_grid_at):
        rows = [make_row(sid, values) for sid, values in PROFILES.items()]
        drive_twins(rows, mode, ops, off_grid_at)

    @settings(max_examples=10, deadline=None)
    @given(ops=twin_operations())
    def test_empty_fleet(self, ops):
        drive_twins([], SchedulerMode.HISTORY, ops)

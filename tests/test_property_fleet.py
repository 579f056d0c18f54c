"""Property-based conservation checks for the compute scheduler's FleetState.

The compute counterpart of ``tests/test_property_storage.py``:
:func:`check_fleet_invariants` states what must hold of a
:class:`~repro.cluster.fleet_state.FleetState` after any sequence of
launches, completions, heartbeats, reserve resizes, relabellings and
Resource Manager placement batches, and the tests drive it with randomized
sequences (checking after every placement inside a batch too) and from
inside a scenario run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_cluster import build_rm, make_row, scalar_candidates

import repro.api as api
from repro.cluster.fleet_state import FleetState
from repro.cluster.resource_manager import ContainerRequest, SchedulerMode
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
                placed = batch.schedule(wave)
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

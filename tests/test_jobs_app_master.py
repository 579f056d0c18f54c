"""Tests for the Application Master driving jobs through the Resource Manager."""

from __future__ import annotations

import numpy as np
import pytest
from scalar_cluster import build_rm, make_row

from repro.cluster.resource_manager import SchedulerMode
from repro.cluster.resources import Resource
from repro.cluster.server import Container
from repro.core.job_types import JobHistory, JobType
from repro.jobs.app_master import ApplicationMaster
from repro.jobs.dag import JobDag, Vertex
from repro.jobs.task_table import RUNNING
from repro.simulation.engine import SimulationEngine


def build_rig(
    num_servers: int = 4,
    utilization=0.1,
    mode: SchedulerMode = SchedulerMode.PRIMARY_AWARE,
):
    """Engine, RM, AM and history over ``num_servers`` one-server tenants.

    A ``[before, after, ...]`` utilization is one trace sample per 120 s.
    """
    engine = SimulationEngine()
    rows = [
        make_row(f"s{i}", utilization, tenant_id=f"t{i}") for i in range(num_servers)
    ]
    rm = build_rm(rows, mode=mode)
    rm.process_heartbeats(0.0)
    history = JobHistory()
    am = ApplicationMaster(engine, rm, history)
    return engine, rm, am, history


def pump(engine, am, execution, until: float, step: float = 10.0) -> None:
    """Retry the execution's requests every ``step`` seconds until ``until``."""
    t = engine.now
    while t < until:
        t += step
        am.pump_all([execution])
        engine.run_until(t)


def running_rows(execution) -> np.ndarray:
    """Rows of the execution's running tasks."""
    return np.flatnonzero(execution.table.state == RUNNING)


def running_containers(execution) -> set:
    """Container ids the execution's running rows name."""
    table = execution.table
    return set(table.container_slot[table.state == RUNNING].tolist())


def small_dag(name: str = "job") -> JobDag:
    return JobDag(
        name,
        [
            Vertex("map", 4, 30.0),
            Vertex("reduce", 2, 20.0, upstream=["map"]),
        ],
    )


class TestJobExecution:
    def test_job_runs_to_completion(self):
        engine, rm, am, history = build_rig()
        execution = am.submit(small_dag(), JobType.MEDIUM)
        engine.run_until(200.0)
        assert execution.finished
        assert len(am.results) == 1
        result = am.results[0]
        # Critical path is 50 s; with ample resources that is the runtime.
        assert result.execution_seconds == pytest.approx(50.0)
        assert result.tasks_completed == 6
        assert result.tasks_killed == 0

    def test_duration_recorded_in_history(self):
        engine, rm, am, history = build_rig()
        am.submit(small_dag("recurring"), JobType.MEDIUM)
        engine.run_until(200.0)
        assert history.last_duration("recurring") == pytest.approx(50.0)
        # A second run of the same job is now typed from history (short).
        assert history.categorize("recurring") is JobType.SHORT

    def test_dependencies_respected(self):
        engine, rm, am, _ = build_rig()
        execution = am.submit(small_dag(), JobType.MEDIUM)
        # Just after the mappers start, no reducer may run yet.
        engine.run_until(10.0)
        layout = execution.table.layout
        running_vertices = {
            layout.vertex_names[layout.vertex_of[row]] for row in running_rows(execution)
        }
        assert running_vertices == {"map"}

    def test_queueing_when_cluster_is_small(self):
        engine, rm, am, _ = build_rig(num_servers=1)
        wide = JobDag("wide", [Vertex("stage", 30, 10.0)])
        execution = am.submit(wide, JobType.SHORT)
        engine.run_until(5.0)
        # A single 12-core server (minus reserve and primary) cannot run all
        # 30 single-core tasks at once.
        assert len(running_rows(execution)) < 30
        # Periodic pumping eventually finishes the job.
        pump(engine, am, execution, until=400.0)
        assert execution.finished

    def test_metrics_updated(self):
        engine, rm, am, _, execution, killed = spiked_rig()
        assert am.tasks_killed == 0
        am.resolve_kills(killed)
        assert am.tasks_killed == len(killed)
        assert execution.tasks_killed == len(killed)


#: One sample per 120 s: calm, a spike at t=120, then calm for good.
SPIKED = [0.1, 0.7] + [0.1] * 98


def spiked_rig():
    """One server whose primary spikes at t=120 while ``small_dag`` runs.

    Returns ``(engine, rm, am, history, execution, killed)`` right after the
    t=120 heartbeat killed the job's containers.
    """
    engine, rm, am, history = build_rig(num_servers=1, utilization=SPIKED)
    engine.run_until(115.0)
    execution = am.submit(small_dag(), JobType.MEDIUM)
    engine.run_until(119.0)
    assert len(running_rows(execution)), "tasks should be running before the spike"
    killed = rm.process_heartbeats(120.0)
    assert killed
    return engine, rm, am, history, execution, killed


class TestKillHandling:
    def test_killed_tasks_are_restarted(self):
        engine, rm, am, _, execution, killed = spiked_rig()
        am.resolve_kills(killed)
        assert execution.tasks_killed == len(killed)

        # Primary calms down; pumping re-runs the killed tasks to completion.
        engine.run_until(240.0)
        rm.process_heartbeats(240.0)
        pump(engine, am, execution, until=800.0)
        assert execution.finished
        result = am.results[0]
        assert result.tasks_killed >= 1
        assert result.tasks_completed == 6

    def test_kills_of_unknown_containers_ignored(self):
        engine, rm, am, _ = build_rig()
        execution = am.submit(small_dag(), JobType.MEDIUM)
        stranger = Container("task", "other-job", Resource(1.0, 2.0), "s0", 0.0)
        am.resolve_kills([])
        am.resolve_kills([stranger])
        assert execution.tasks_killed == 0

    def test_resolve_kills_matches_per_execution_broadcast(self):
        """The container->execution index resolves exactly the kills a
        broadcast of every kill to every execution would have marked."""

        def rig_with_two_jobs():
            engine, rm, am, _ = build_rig(num_servers=1, utilization=SPIKED)
            engine.run_until(115.0)
            first = am.submit(small_dag("first"), JobType.MEDIUM)
            second = am.submit(small_dag("second"), JobType.MEDIUM)
            engine.run_until(119.0)
            killed = rm.process_heartbeats(120.0)
            assert killed
            return am, first, second, killed

        # Reference: offer every kill to every task row of every execution,
        # then retry each.
        am_a, first_a, second_a, killed_a = rig_with_two_jobs()
        for execution in (first_a, second_a):
            for container in killed_a:
                for row in range(execution.table.num_tasks):
                    am_a._mark_killed(execution, row, container)
            am_a.pump_all([execution])

        am_b, first_b, second_b, killed_b = rig_with_two_jobs()
        am_b.resolve_kills(killed_b)
        am_b.pump_all([first_b, second_b])

        assert (first_a.tasks_killed, second_a.tasks_killed) == (
            first_b.tasks_killed,
            second_b.tasks_killed,
        )
        assert am_a.tasks_killed == am_b.tasks_killed
        assert running_containers(first_a) == running_containers(first_b)
        assert running_containers(second_a) == running_containers(second_b)

    def test_owner_index_tracks_launches_and_completions(self):
        engine, rm, am, _ = build_rig()
        execution = am.submit(small_dag(), JobType.MEDIUM)
        assert set(am._owner) == running_containers(execution)
        for container_id, (owner, row) in am._owner.items():
            assert owner is execution
            assert execution.table.container_slot[row] == container_id
        engine.run_until(200.0)
        assert execution.finished
        assert am._owner == {}


class TestPumpEarlyOuts:
    """Executions the pump cannot grant anything build no frontier."""

    @staticmethod
    def _count_batches(monkeypatch, rm):
        batches = []
        begin_batch = rm.begin_batch

        def counting(time):
            batches.append(time)
            return begin_batch(time)

        monkeypatch.setattr(rm, "begin_batch", counting)
        return batches

    def test_starved_shape_is_skipped_before_its_frontier(self, monkeypatch):
        engine, rm, am, _ = build_rig(num_servers=1)
        wide = JobDag("wide", [Vertex("stage", 30, 10.0)])
        execution = am.submit(wide, JobType.SHORT)
        # The submit-time wave launches what fits; the launches dropped the
        # cached frontier and the rest of the wave stays queued.
        running = len(running_rows(execution))
        assert running
        assert execution.table.runnable_count == 30 - running
        assert execution.table._frontier_rows is None
        assert rm.shape_exhausted(execution._shape)
        batches = self._count_batches(monkeypatch, rm)
        rm.process_heartbeats(1.0)
        am.pump_all([execution])
        # Nothing fits, so the pump neither rebuilt the frontier nor opened
        # a placement batch.
        assert execution.table._frontier_rows is None
        assert batches == []
        # Capacity returns when the first containers finish (t=10); the
        # finish event itself launches the next wave.
        engine.run_until(10.0)
        assert execution.table.tasks_completed_total > 0
        assert len(running_rows(execution)) > 0

    def test_blocked_execution_is_skipped(self, monkeypatch):
        engine, rm, am, _ = build_rig()
        execution = am.submit(small_dag(), JobType.MEDIUM)
        # Every map task runs; both reduce tasks wait on the map vertex.
        assert len(running_rows(execution)) == 4
        assert execution.table.needs_containers
        assert execution.table.runnable_count == 0
        batches = self._count_batches(monkeypatch, rm)
        am.pump_all([execution])
        assert execution.table._frontier_rows is None
        assert batches == []
        engine.run_until(200.0)
        assert execution.finished

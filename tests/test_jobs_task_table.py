"""TaskTable <-> scalar equivalence for the jobs layer.

Mirrors ``tests/test_storage_block_table.py`` on the jobs side: a scalar
oracle reimplements the pre-TaskTable ``JobExecution`` logic (full-DAG
rescans over plain ``Task`` objects) and every columnar path — the runnable
frontier, the O(1) completion checks, the kill/requeue bookkeeping, and the
Algorithm 1 draw order — is replayed against it step for step.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.core.class_selection import ClassCapacity, ClassSelector
from repro.core.clustering import UtilizationClass
from repro.core.headroom import class_headroom
from repro.core.job_types import JobType
from repro.jobs.app_master import JobExecution
from repro.jobs.dag import JobDag, Task, TaskState, Vertex
from repro.jobs.task_table import COMPLETED, KILLED, PENDING, RUNNING, TaskTable
from repro.simulation.random import RandomSource
from repro.traces.utilization import UtilizationPattern


# ---------------------------------------------------------------------------
# Scalar oracle: the pre-TaskTable JobExecution logic, verbatim.
# ---------------------------------------------------------------------------


class ScalarExecutionOracle:
    """Full-DAG rescans over plain Task objects (the replaced hot path)."""

    def __init__(self, dag: JobDag) -> None:
        self.dag = dag
        self.tasks: Dict[str, List[Task]] = dag.build_tasks()

    def vertex_completed(self, vertex_name: str) -> bool:
        return all(t.state is TaskState.COMPLETED for t in self.tasks[vertex_name])

    def runnable_tasks(self) -> List[Task]:
        runnable: List[Task] = []
        for vertex in self.dag.vertices.values():
            if not all(self.vertex_completed(up) for up in vertex.upstream):
                continue
            for task in self.tasks[vertex.name]:
                if task.state in (TaskState.PENDING, TaskState.KILLED):
                    runnable.append(task)
        return runnable

    def all_completed(self) -> bool:
        return all(self.vertex_completed(name) for name in self.dag.vertices)

    def set_state(self, task_id: str, state: TaskState) -> None:
        for tasks in self.tasks.values():
            for task in tasks:
                if task.task_id == task_id:
                    task.state = state
                    return
        raise KeyError(task_id)


def random_dag(rng: np.random.Generator, name: str) -> JobDag:
    """A random layered DAG with cross-layer dependencies."""
    layers = int(rng.integers(1, 5))
    vertices: List[Vertex] = []
    previous: List[str] = []
    counter = 0
    for layer in range(layers):
        width = int(rng.integers(1, 4))
        current: List[str] = []
        for _ in range(width):
            upstream = [u for u in previous if rng.random() < 0.6]
            vertex = Vertex(
                name=f"v{counter}",
                num_tasks=int(rng.integers(1, 6)),
                task_duration_seconds=float(rng.uniform(5.0, 50.0)),
                upstream=upstream,
            )
            vertices.append(vertex)
            current.append(vertex.name)
            counter += 1
        previous = current
    return JobDag(name, vertices)


def frontier_ids(table: TaskTable) -> List[str]:
    return [table.task_id_of(row) for row in table.runnable_rows().tolist()]


def oracle_frontier_ids(oracle: ScalarExecutionOracle) -> List[str]:
    return [t.task_id for t in oracle.runnable_tasks()]


class TestFrontierEquivalence:
    def test_random_walks_match_scalar_oracle(self):
        """Random launch/complete/kill walks keep frontier order identical."""
        rng = np.random.default_rng(7)
        for trial in range(25):
            dag = random_dag(rng, f"job-{trial}")
            execution = JobExecution(dag=dag, submit_time=0.0, job_type=JobType.MEDIUM)
            table = execution.table
            oracle = ScalarExecutionOracle(dag)
            running: List[int] = []

            def move(row: int, code: int, state: TaskState) -> None:
                table.set_state(row, code)
                oracle.set_state(table.task_id_of(row), state)

            for _ in range(200):
                assert frontier_ids(table) == oracle_frontier_ids(oracle)
                assert execution.all_completed() == oracle.all_completed()
                for name in dag.vertices:
                    assert execution.vertex_completed(name) == (
                        oracle.vertex_completed(name)
                    )
                if execution.all_completed():
                    break
                wave = table.runnable_rows().tolist()
                action = rng.random()
                if wave and (action < 0.5 or not running):
                    # Launch a random prefix of the wave.
                    take = int(rng.integers(1, len(wave) + 1))
                    for row in wave[:take]:
                        move(row, RUNNING, TaskState.RUNNING)
                        running.append(row)
                elif running and action < 0.85:
                    index = int(rng.integers(0, len(running)))
                    move(running.pop(index), COMPLETED, TaskState.COMPLETED)
                elif running:
                    index = int(rng.integers(0, len(running)))
                    move(running.pop(index), KILLED, TaskState.KILLED)

    def test_frontier_is_vertex_major_row_order(self):
        dag = JobDag(
            "order",
            [
                Vertex("a", 3, 10.0),
                Vertex("b", 2, 10.0),
                Vertex("c", 2, 10.0, upstream=["a"]),
            ],
        )
        assert frontier_ids(TaskTable(dag)) == [
            "order/a/0",
            "order/a/1",
            "order/a/2",
            "order/b/0",
            "order/b/1",
        ]


class TestKillRequeue:
    def test_killed_task_reenters_frontier_in_row_order(self):
        table = TaskTable(JobDag("kill", [Vertex("stage", 4, 10.0)]))
        for row in table.runnable_rows().tolist():
            table.set_state(row, RUNNING)
        assert frontier_ids(table) == []
        # Kill the middle two; they come back in row order, not kill order.
        table.set_state(2, KILLED)
        table.set_state(1, KILLED)
        assert frontier_ids(table) == ["kill/stage/1", "kill/stage/2"]

    def test_downstream_unlocks_only_when_last_task_completes(self):
        dag = JobDag(
            "unlock",
            [Vertex("up", 2, 10.0), Vertex("down", 1, 10.0, upstream=["up"])],
        )
        table = TaskTable(dag)
        table.set_state(0, COMPLETED)
        assert frontier_ids(table) == ["unlock/up/1"]
        table.set_state(1, RUNNING)
        assert frontier_ids(table) == []
        table.set_state(1, COMPLETED)
        assert frontier_ids(table) == ["unlock/down/0"]
        assert not table.all_completed()
        table.set_state(2, COMPLETED)
        assert table.all_completed()

    def test_state_regression_keeps_counters_exact(self):
        """The bookkeeping survives a test rewinding a completed state."""
        dag = JobDag(
            "rewind",
            [Vertex("up", 1, 10.0), Vertex("down", 1, 10.0, upstream=["up"])],
        )
        table = TaskTable(dag)
        table.set_state(0, COMPLETED)
        assert table.runnable_rows().tolist() == [1]
        table.set_state(0, PENDING)
        assert table.runnable_rows().tolist() == [0]
        assert not table.all_completed()
        assert table.tasks_completed_total == 0


# ---------------------------------------------------------------------------
# Algorithm 1 draw parity: vectorized selector vs the scalar oracle.
# ---------------------------------------------------------------------------


def scalar_select_oracle(selector, job_type, required_capacity, capacities, rng):
    """The pre-matrix Algorithm 1 loop, selections and draws verbatim."""
    if not capacities:
        return []
    headrooms = []
    weighted = []
    for capacity in capacities:
        fraction = class_headroom(
            job_type,
            capacity.utilization_class,
            current_utilization=capacity.current_utilization,
            reserve_fraction=selector._reserve_fraction,
        )
        weight = selector._ranking.weight(
            job_type, capacity.utilization_class.pattern
        )
        headrooms.append(fraction * capacity.total_capacity)
        weighted.append(fraction * capacity.total_capacity * weight)
    fitting = [i for i, room in enumerate(headrooms) if room >= required_capacity]
    if fitting:
        chosen = fitting[rng.weighted_index([weighted[i] for i in fitting])]
        return [capacities[chosen].utilization_class.class_id]
    total = sum(headrooms)
    if total >= required_capacity and required_capacity > 0:
        remaining = list(range(len(capacities)))
        selected = []
        accumulated = 0.0
        while remaining and accumulated < required_capacity:
            weights = [max(weighted[i], 1e-12) for i in remaining]
            pick = remaining[rng.weighted_index(weights)]
            selected.append(pick)
            accumulated += headrooms[pick]
            remaining.remove(pick)
        if accumulated >= required_capacity:
            return [capacities[i].utilization_class.class_id for i in selected]
    return []


def random_capacities(rng: np.random.Generator, count: int) -> List[ClassCapacity]:
    patterns = list(UtilizationPattern)
    capacities = []
    for i in range(count):
        average = float(rng.uniform(0.0, 0.8))
        cls = UtilizationClass(
            class_id=f"c{i}",
            pattern=patterns[int(rng.integers(0, len(patterns)))],
            average_utilization=average,
            peak_utilization=float(min(1.0, average + rng.uniform(0.0, 0.2))),
        )
        capacities.append(
            ClassCapacity(
                utilization_class=cls,
                total_capacity=float(rng.uniform(4.0, 128.0)),
                current_utilization=float(rng.uniform(0.0, 1.0)),
            )
        )
    return capacities


class TestClassSelectorDrawParity:
    def test_selections_and_stream_positions_match_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(200):
            count = int(rng.integers(1, 12))
            capacities = random_capacities(rng, count)
            job_type = list(JobType)[int(rng.integers(0, 3))]
            required = float(rng.uniform(0.0, 220.0))
            reserve = float(rng.uniform(0.0, 0.4))

            vector_rng = RandomSource(trial)
            scalar_rng = RandomSource(trial)
            selector = ClassSelector(rng=vector_rng, reserve_fraction=reserve)
            oracle_selector = ClassSelector(
                rng=scalar_rng, reserve_fraction=reserve
            )
            selection = selector.select(job_type, required, capacities)
            expected = scalar_select_oracle(
                oracle_selector, job_type, required, capacities, scalar_rng
            )
            assert selection.class_ids == expected
            # Both sources must end at the same stream position.
            assert vector_rng.uniform() == scalar_rng.uniform()

    def test_headroom_columns_bitwise_equal_scalar(self):
        rng = np.random.default_rng(3)
        capacities = random_capacities(rng, 9)
        selector = ClassSelector(reserve_fraction=0.25)
        for job_type in JobType:
            absolute = selector.absolute_headrooms(job_type, capacities)
            weighted = selector.weighted_headrooms(job_type, capacities)
            for i, capacity in enumerate(capacities):
                fraction = class_headroom(
                    job_type,
                    capacity.utilization_class,
                    current_utilization=capacity.current_utilization,
                    reserve_fraction=0.25,
                )
                weight = selector._ranking.weight(
                    job_type, capacity.utilization_class.pattern
                )
                assert absolute[i] == fraction * capacity.total_capacity
                assert weighted[i] == fraction * capacity.total_capacity * weight


class TestWaveSchedulingParity:
    def test_schedule_wave_matches_sequential_schedule(self):
        """One batched wave = the same requests placed in one batch each."""
        from scalar_cluster import (
            ContainerRequest,
            build_rm,
            make_row,
            place,
            scalar_exhausted,
            schedule_wave,
        )
        from repro.cluster.resources import Resource

        def rig(seed):
            rows = [make_row(f"s{i}", [0.1, 0.2, 0.1]) for i in range(6)]
            rm = build_rm(rows, seed=seed)
            rm.process_heartbeats(0.0)
            return rm

        requests = [
            ContainerRequest("job", f"task-{i}", Resource(1.0, 2.0))
            for i in range(40)
        ]
        wave_rm = rig(seed=9)
        scalar_rm = rig(seed=9)
        wave = schedule_wave(wave_rm.begin_batch(0.0), requests)
        sequential = [place(scalar_rm, request, 0.0) for request in requests]
        wave_ids = [c.server_id if c else None for c in wave]
        sequential_ids = [c.server_id if c else None for c in sequential]
        assert wave_ids == sequential_ids
        assert wave_rm._rng.uniform() == scalar_rm._rng.uniform()
        # 6 servers x 6 harvestable cores: the 40-request wave leaves its
        # shape exhausted, on both paths and by the scalar recount.
        shapes = [(1.0, 2.0, ()), (0.5, 1.0, ()), (4.0, 8.0, ())]
        for shape in shapes:
            assert wave_rm.shape_exhausted(shape) == scalar_rm.shape_exhausted(shape)
            assert wave_rm.shape_exhausted(shape) == scalar_exhausted(wave_rm, shape)
        assert wave_rm.shape_exhausted((1.0, 2.0, ()))


# ---------------------------------------------------------------------------
# Frontier cache: object identity and invalidation edge cases.
# ---------------------------------------------------------------------------


def frontier_cached(table: TaskTable) -> bool:
    """Whether the next ``runnable_rows`` call is a cache hit."""
    return table._frontier_rows is not None


class TestFrontierCacheIdentity:
    """Frontier queries without a transition return the cached rows *by identity*."""

    def test_runnable_rows_identity_stable_without_transitions(self):
        dag = JobDag(
            "cache",
            [Vertex("a", 3, 10.0), Vertex("b", 2, 10.0, upstream=["a"])],
        )
        table = TaskTable(dag)
        first = table.runnable_rows()
        # Repeated calls with no state transition return the same array
        # object — the regression guard for the fresh-allocation-per-call
        # behaviour the cache replaced.
        assert frontier_cached(table)
        assert table.runnable_rows() is first
        assert not first.flags.writeable

    def test_cache_cold_until_first_build(self):
        table = TaskTable(JobDag("cold", [Vertex("a", 1, 10.0)]))
        assert not frontier_cached(table)
        rows = table.runnable_rows()
        assert frontier_cached(table)
        assert table.runnable_rows() is rows

    def test_kill_then_retry_invalidates_and_recaches(self):
        table = TaskTable(JobDag("kill", [Vertex("stage", 3, 10.0)]))
        wave = table.runnable_rows()
        for row in wave.tolist():
            table.mark_running(row, container_id=row + 1)
        assert not frontier_cached(table)
        empty = table.runnable_rows()
        assert empty.tolist() == []
        # The empty frontier is cached by identity too.
        assert table.runnable_rows() is empty
        table.set_state(1, KILLED)
        assert not frontier_cached(table)
        retry = table.runnable_rows()
        assert retry is not wave
        assert frontier_ids(table) == ["kill/stage/1"]
        assert frontier_cached(table)
        assert table.runnable_rows() is retry

    def test_vertex_completion_unlocking_downstream_invalidates(self):
        dag = JobDag(
            "unlock",
            [Vertex("up", 2, 10.0), Vertex("down", 1, 10.0, upstream=["up"])],
        )
        table = TaskTable(dag)
        assert frontier_ids(table) == ["unlock/up/0", "unlock/up/1"]
        table.set_state(0, COMPLETED)
        assert not frontier_cached(table)
        assert frontier_ids(table) == ["unlock/up/1"]
        # The last upstream completion unlocks the downstream vertex: the
        # cache must not serve the pre-unlock frontier.
        table.set_state(1, COMPLETED)
        assert not frontier_cached(table)
        down = table.runnable_rows()
        assert frontier_ids(table) == ["unlock/down/0"]
        assert table.runnable_rows() is down

    def test_recurring_submissions_share_layout_not_cache(self):
        dag = JobDag("recurring", [Vertex("a", 2, 10.0)])
        first = TaskTable(dag)
        second = TaskTable(dag)
        # Recurring submissions of the same DAG share one immutable layout...
        assert first.layout is second.layout
        rows_first = first.runnable_rows()
        rows_second = second.runnable_rows()
        assert rows_first is not rows_second
        # ...but dirtying one execution's frontier leaves the other's
        # cache untouched.
        first.set_state(0, RUNNING)
        assert not frontier_cached(first)
        assert frontier_cached(second)
        assert second.runnable_rows() is rows_second
        assert frontier_ids(second) == ["recurring/a/0", "recurring/a/1"]


# ---------------------------------------------------------------------------
# Checkpoint robustness: a corrupt to_arrays image is rejected, not loaded.
# ---------------------------------------------------------------------------


class TestCorruptCheckpoints:
    @staticmethod
    def _dag() -> JobDag:
        return JobDag(
            "ckpt", [Vertex("a", 2, 10.0), Vertex("b", 1, 10.0, upstream=["a"])]
        )

    def _arrays(self):
        table = TaskTable(self._dag())
        table.mark_running(0, container_id=4)
        return table.to_arrays()

    @pytest.mark.parametrize("codes", [[9, 0, -3], [0, 4, 0], [0, 1, -1]])
    def test_unknown_state_codes_rejected(self, codes):
        arrays = self._arrays()
        arrays["state"] = np.array(codes, dtype=np.int8)
        with pytest.raises(ValueError, match="state column holds unknown state code"):
            TaskTable.from_arrays(self._dag(), arrays)

    def test_non_integer_state_codes_rejected(self):
        arrays = self._arrays()
        arrays["state"] = np.array([0.0, 1.5, 0.0])
        with pytest.raises(ValueError, match="unknown state code"):
            TaskTable.from_arrays(self._dag(), arrays)

    @pytest.mark.parametrize("column", ["attempts", "container_slot"])
    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_column_length_mismatch_rejected(self, column, length):
        arrays = self._arrays()
        arrays[column] = np.zeros(length, dtype=np.int64)
        with pytest.raises(ValueError, match=f"{column} column has {length} rows"):
            TaskTable.from_arrays(self._dag(), arrays)

    @pytest.mark.parametrize("version", [0, 2, None])
    def test_other_versions_rejected(self, version):
        arrays = self._arrays()
        if version is None:
            del arrays["version"]
        else:
            arrays["version"] = version
        with pytest.raises(ValueError, match="version"):
            TaskTable.from_arrays(self._dag(), arrays)

    def test_valid_checkpoint_restores_the_runnable_counter(self):
        dag = self._dag()
        table = TaskTable(dag)
        table.mark_running(0, container_id=4)
        table.set_state(1, COMPLETED)
        assert table.runnable_count == 0
        restored = TaskTable.from_arrays(dag, table.to_arrays())
        assert restored.runnable_count == 0
        table.set_state(0, COMPLETED)
        restored.set_state(0, COMPLETED)
        # Vertex "a" completed: "b" unlocks on both.
        assert table.runnable_count == restored.runnable_count == 1
        assert restored.runnable_rows().tolist() == [2]

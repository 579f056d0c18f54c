"""Property-based consistency checks for the jobs layer's TaskTable.

The jobs counterpart of ``tests/test_property_fleet.py`` and
``tests/test_property_storage.py``: :func:`check_task_table_invariants`
states what must hold of a :class:`~repro.jobs.task_table.TaskTable` after
any sequence of state transitions — every counter the table maintains
incrementally equals a recount of its state column — and the tests drive it
with randomized transition sequences, kills and checkpoint round trips.
:func:`check_owner_index` states the same of the Application Master's
container index over the rows, driven by random submit, finish and kill
events.
"""

from __future__ import annotations

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_cluster import build_rm, make_row

from repro.core.job_types import JobHistory, JobType
from repro.jobs.app_master import ApplicationMaster, JobExecution
from repro.jobs.dag import JobDag, Vertex
from repro.jobs.task_table import COMPLETED, KILLED, PENDING, RUNNING, TaskTable
from repro.simulation.engine import SimulationEngine


def check_task_table_invariants(table: TaskTable) -> None:
    """Every derived counter of ``table`` equals a recount of ``state``.

    Recounted from the state column and the DAG layout alone: the
    needs-container column and count, the per-vertex needs and completed
    counts, the completed total, each vertex's unmet-upstream count and
    readiness, the runnable counter, and the frontier itself.
    """
    layout = table.layout
    state = table.state
    vertices = len(layout.vertex_names)
    assert set(np.unique(state).tolist()) <= {PENDING, RUNNING, COMPLETED, KILLED}
    needs = (state == PENDING) | (state == KILLED)
    assert np.array_equal(table._needs_container, needs)
    assert table._needs_count == int(needs.sum())
    completed = np.zeros(vertices, dtype=np.int64)
    vertex_needs = [0] * vertices
    for row in range(layout.num_tasks):
        vertex = int(layout.vertex_of[row])
        completed[vertex] += state[row] == COMPLETED
        vertex_needs[vertex] += bool(needs[row])
    assert table._vertex_needs == vertex_needs
    assert np.array_equal(table.completed_counts, completed)
    assert table._total_completed == int(completed.sum())
    assert table.all_completed() == (int(completed.sum()) == layout.num_tasks)
    done = completed == layout.task_counts
    unmet = np.zeros(vertices, dtype=np.int64)
    for vertex in range(vertices):
        start, stop = layout.down_indptr[vertex], layout.down_indptr[vertex + 1]
        for downstream in layout.down_indices[start:stop]:
            unmet[int(downstream)] += not done[vertex]
    assert np.array_equal(table._unmet_upstream, unmet)
    assert np.array_equal(table._vertex_ready, unmet == 0)
    runnable = [
        row
        for row in range(layout.num_tasks)
        if needs[row] and unmet[int(layout.vertex_of[row])] == 0
    ]
    assert table.runnable_count == len(runnable)
    assert table.runnable_rows().tolist() == runnable
    # Containers are only recorded for running tasks.
    assert np.all(table.container_slot[state != RUNNING] == -1)


@st.composite
def dags(draw) -> JobDag:
    """A random layered DAG: each vertex may depend on earlier ones."""
    count = draw(st.integers(1, 6))
    vertices = []
    for index in range(count):
        upstream = draw(
            st.lists(st.integers(0, index - 1), unique=True) if index else st.just([])
        )
        vertices.append(
            Vertex(
                f"v{index}",
                draw(st.integers(1, 4)),
                10.0,
                upstream=[f"v{u}" for u in upstream],
            )
        )
    return JobDag("prop", vertices)


#: ``("state", row, code)`` sets a row's state (any transition, regressions
#: included); ``("launch", row)`` is the Application Master's launch;
#: ``("kill", row)`` kills the row if it runs; ``("complete", row)``
#: completes it, so whole vertices complete and unlock their downstreams;
#: ``("round_trip",)`` replaces the table by its checkpoint.
TRANSITIONS = st.lists(
    st.one_of(
        st.tuples(st.just("state"), st.integers(0, 1000), st.integers(0, 3)),
        st.tuples(st.just("launch"), st.integers(0, 1000)),
        st.tuples(st.just("kill"), st.integers(0, 1000)),
        st.tuples(st.just("complete"), st.integers(0, 1000)),
        st.tuples(st.just("complete"), st.integers(0, 1000)),
        st.tuples(st.just("round_trip")),
    ),
    max_size=80,
)


class TestTaskTableInvariants:
    @settings(max_examples=200, deadline=None)
    @given(dag=dags(), ops=TRANSITIONS)
    def test_counters_equal_a_recount_after_every_transition(self, dag, ops):
        table = TaskTable(dag)
        check_task_table_invariants(table)
        container = 0
        for op in ops:
            kind = op[0]
            if kind == "round_trip":
                table = TaskTable.from_arrays(dag, table.to_arrays())
            else:
                row = op[1] % table.num_tasks
                if kind == "state":
                    table.set_state(row, op[2])
                elif kind == "launch" and table.state[row] in (PENDING, KILLED):
                    container += 1
                    table.mark_running(row, container)
                elif kind == "kill" and table.state[row] == RUNNING:
                    table.set_state(row, KILLED)
                elif kind == "complete":
                    table.set_state(row, COMPLETED)
            check_task_table_invariants(table)

    @settings(max_examples=50, deadline=None)
    @given(dag=dags(), seed=st.integers(0, 10_000))
    def test_a_job_driven_to_completion_keeps_the_counters(self, dag, seed):
        """Launch the frontier, kill some, complete the rest, until done."""
        rng = np.random.default_rng(seed)
        table = TaskTable(dag)
        container = 0
        while not table.all_completed():
            for row in table.runnable_rows().tolist():
                container += 1
                table.mark_running(row, container)
                check_task_table_invariants(table)
            for row in np.flatnonzero(table.state == RUNNING).tolist():
                table.set_state(row, KILLED if rng.random() < 0.3 else COMPLETED)
                check_task_table_invariants(table)
            table = TaskTable.from_arrays(dag, table.to_arrays())
            check_task_table_invariants(table)
        assert table.runnable_count == 0


def check_owner_index(am: ApplicationMaster, executions: List[JobExecution]) -> None:
    """The AM's container index names exactly the running rows.

    For every execution, the container ids ``am._owner`` maps to it are
    exactly the ``container_slot`` values of its RUNNING rows, each once,
    and each maps back to the row that names it.  Together the index holds
    every container the fleet runs (the AM is the rig's only launcher).
    """
    owned = {id(execution): [] for execution in executions}
    for container_id, (execution, row) in am._owner.items():
        owned[id(execution)].append(container_id)
        assert execution.table.state[row] == RUNNING
        assert execution.table.container_slot[row] == container_id
    for execution in executions:
        table = execution.table
        check_task_table_invariants(table)
        slots = table.container_slot[table.state == RUNNING].tolist()
        assert len(set(slots)) == len(slots)
        assert sorted(owned[id(execution)]) == sorted(slots)
    fleet = am._rm.fleet
    live = [cid for running in fleet._running for cid in running]
    assert sorted(live) == sorted(am._owner)


#: ``("submit", job)`` submits a job drawn from the walk's DAGs;
#: ``("finish",)`` runs the engine's next event (a task finishing, which
#: completes its row and pumps the job); ``("kill", k)`` kills the k-th
#: live container as a reserve kill does, then resolves it and pumps every
#: execution, like the cluster's heartbeat.
AM_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 1000)),
        st.tuples(st.just("finish")),
        st.tuples(st.just("finish")),
        st.tuples(st.just("kill"), st.integers(0, 1000)),
    ),
    max_size=60,
)


class TestApplicationMasterOwnerIndex:
    @settings(max_examples=100, deadline=None)
    @given(jobs=st.lists(dags(), min_size=1, max_size=3), events=AM_EVENTS)
    def test_owner_index_names_exactly_the_running_rows(self, jobs, events):
        engine = SimulationEngine()
        rm = build_rm([make_row(f"s{i}", 0.1) for i in range(2)])
        rm.process_heartbeats(0.0)
        am = ApplicationMaster(engine, rm, JobHistory())
        fleet = rm.fleet
        executions: List[JobExecution] = []
        for event in events:
            kind = event[0]
            if kind == "submit":
                dag = jobs[event[1] % len(jobs)]
                executions.append(am.submit(dag, JobType.SHORT))
            elif kind == "finish":
                engine.run(max_events=1)
            elif am._owner:
                live = [
                    (index, container)
                    for index, running in enumerate(fleet._running)
                    for container in running.values()
                ]
                index, container = live[event[1] % len(live)]
                fleet._kill(index, container, engine.now)
                am.resolve_kills([container])
                am.pump_all([e for e in executions if not e.finished])
            check_owner_index(am, executions)
        # Draining the engine, with the cluster's retry pump between
        # events, finishes every job and empties the index.
        while True:
            am.pump_all([e for e in executions if not e.finished])
            processed = engine.processed_events
            engine.run(max_events=1)
            check_owner_index(am, executions)
            if engine.processed_events == processed:
                break
        assert all(execution.finished for execution in executions)
        assert am._owner == {}

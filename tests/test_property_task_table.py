"""Property-based consistency checks for the jobs layer's TaskTable.

The jobs counterpart of ``tests/test_property_fleet.py`` and
``tests/test_property_storage.py``: :func:`check_task_table_invariants`
states what must hold of a :class:`~repro.jobs.task_table.TaskTable` after
any sequence of state transitions — every counter the table maintains
incrementally equals a recount of its state column — and the tests drive it
with randomized transition sequences, kills and checkpoint round trips.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.dag import JobDag, Vertex
from repro.jobs.task_table import COMPLETED, KILLED, PENDING, RUNNING, TaskTable


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

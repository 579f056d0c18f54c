"""Columnar substrate for the jobs layer: one numpy row per task.

The fourth columnar substrate (after :class:`~repro.traces.matrix.TraceMatrix`,
:class:`~repro.cluster.fleet_state.FleetState` and
:class:`~repro.storage.block_table.BlockTable`): every task of a running job
is one row of a :class:`TaskTable`, with flat columns for the lifecycle state,
attempt count, duration and container slot, plus per-vertex pending/completed
counters and an upstream-dependency CSR.

What the scalar :class:`~repro.jobs.app_master.JobExecution` recomputed per
pump/completion/kill by rescanning every vertex's task list becomes
O(changed-vertices) bookkeeping:

* ``runnable_rows`` is one boolean frontier mask — a task needs a container
  iff its state column says pending-or-killed *and* its vertex's unmet
  upstream counter is zero;
* ``all_completed`` is one integer comparison against a running total;
* ``runnable_count`` — how many tasks the frontier holds — is a counter kept
  exact from per-vertex needs counts, so a pump can skip an execution with
  nothing runnable without building the frontier;
* vertex readiness propagates through a downstream CSR the moment the last
  task of a vertex completes, instead of being rediscovered by the next
  full-DAG scan.

Equivalence contract
--------------------

Rows are laid out vertex-major in DAG insertion order with tasks in index
order — exactly the nesting of the scalar ``runnable_tasks`` loop — so
``np.flatnonzero`` over the frontier mask yields tasks in the identical
order, and everything downstream (per-placement container draws against
:class:`~repro.cluster.fleet_state.FleetState`) consumes the random stream
draw for draw (see ``tests/test_jobs_task_table.py`` for the scalar oracle).

The rows are the only task record: the Application Master launches, tracks
and kills tasks by row, and every state transition goes through
:meth:`TaskTable.set_state`, which keeps the counters and the readiness
frontier in sync.

The runnable frontier itself is cached between state transitions: repeated
queries with no transition in between make :meth:`TaskTable.runnable_rows`
hand back the previously computed row array untouched.  Any actual
``set_state`` transition — launch, completion, kill, or a completion that
unlocks downstream vertices — drops the cached rows, because each of those
can change either the needs-container column or the vertex-readiness column
the mask is built from.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.jobs.dag import JobDag


#: Integer state codes of the ``state`` column.
PENDING, RUNNING, COMPLETED, KILLED = range(4)


class TaskLayout:
    """The static, per-DAG part of a :class:`TaskTable`.

    Vertex indexing, task row ranges, durations, and the upstream /
    downstream CSRs depend only on the DAG structure, so recurring jobs
    (the TPC-DS queries are submitted hundreds of times per run) share one
    layout across all their executions; :meth:`of_dag` caches it on the DAG.
    """

    __slots__ = (
        "vertex_names",
        "index_of_vertex",
        "task_counts",
        "starts",
        "num_tasks",
        "vertex_of",
        "durations",
        "initial_unmet",
        "down_indptr",
        "down_indices",
    )

    def __init__(self, dag: "JobDag") -> None:
        vertices = list(dag.vertices.values())
        self.vertex_names: List[str] = [v.name for v in vertices]
        self.index_of_vertex: Dict[str, int] = {
            name: i for i, name in enumerate(self.vertex_names)
        }
        self.task_counts = np.array([v.num_tasks for v in vertices], dtype=np.int64)
        self.starts = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(self.task_counts, out=self.starts[1:])
        self.num_tasks = int(self.starts[-1])
        self.vertex_of = np.repeat(
            np.arange(len(vertices), dtype=np.int64), self.task_counts
        )
        self.durations = np.repeat(
            np.array([v.task_duration_seconds for v in vertices]), self.task_counts
        )
        self.initial_unmet = np.array(
            [len(v.upstream) for v in vertices], dtype=np.int64
        )
        # Downstream CSR: which vertices unblock when vertex v completes.
        down: List[List[int]] = [[] for _ in vertices]
        for index, vertex in enumerate(vertices):
            for upstream in vertex.upstream:
                down[self.index_of_vertex[upstream]].append(index)
        lengths = np.array([len(d) for d in down], dtype=np.int64)
        self.down_indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.down_indptr[1:])
        self.down_indices = np.array(
            [i for targets in down for i in targets], dtype=np.int64
        )

    @staticmethod
    def of_dag(dag: "JobDag") -> "TaskLayout":
        """The (cached) layout of a DAG; built once per DAG instance."""
        layout = getattr(dag, "_task_layout", None)
        if layout is None:
            layout = TaskLayout(dag)
            dag._task_layout = layout
        return layout


class TaskTable:
    """Numpy columns over every task of one job execution."""

    def __init__(self, dag: "JobDag") -> None:
        self.layout = TaskLayout.of_dag(dag)
        self.job_name = dag.name
        n = self.layout.num_tasks
        #: Lifecycle state codes (:data:`PENDING` .. :data:`KILLED`).
        self.state = np.zeros(n, dtype=np.int8)
        #: Attempt counts.
        self.attempts = np.zeros(n, dtype=np.int64)
        #: Container id currently running the task (-1 when not running).
        self.container_slot = np.full(n, -1, dtype=np.int64)
        #: Pending-or-killed flag: the task wants a container.
        self._needs_container = np.ones(n, dtype=bool)
        self._needs_count = n
        #: Per-vertex count of pending-or-killed tasks.
        self._vertex_needs: List[int] = self.layout.task_counts.tolist()
        #: Per-vertex completed-task counters.
        self.completed_counts = np.zeros(len(self.layout.task_counts), dtype=np.int64)
        #: Per-vertex count of upstream vertices not yet fully completed.
        self._unmet_upstream = self.layout.initial_unmet.copy()
        #: Readiness frontier: vertices whose upstreams have all completed.
        self._vertex_ready = self._unmet_upstream == 0
        #: Tasks in the frontier: needs summed over the ready vertices.
        self._runnable_count = int(self.layout.task_counts[self._vertex_ready].sum())
        self._total_completed = 0
        self._task_ids: List[str | None] = [None] * n
        #: Frontier cache: rebuilt only after a state change drops it.
        self._frontier_rows: np.ndarray | None = None

    # -- serialized form ----------------------------------------------------

    def to_arrays(self) -> Dict[str, object]:
        """The table's dynamic columns — its canonical serialized form.

        Only the primary columns are captured: everything else (needs
        counters, per-vertex completion totals, the readiness frontier) is
        derived from ``state`` and the DAG layout, and
        :meth:`from_arrays` recomputes it.
        """
        return {
            "version": 1,
            "job_name": self.job_name,
            "state": np.array(self.state),
            "attempts": np.array(self.attempts),
            "container_slot": np.array(self.container_slot),
        }

    @classmethod
    def from_arrays(cls, dag: "JobDag", arrays: Dict[str, object]) -> "TaskTable":
        """Rebuild a table over ``dag`` from :meth:`to_arrays` output.

        The layout comes from the DAG (shared, as always); the derived
        counters and the frontier are recomputed from the state column, so
        the restored table answers every query exactly like the original.
        A corrupt checkpoint — another format version, an unknown state
        code, or a column whose length differs from the state column's —
        raises ``ValueError`` naming what is wrong.
        """
        table = cls(dag)
        version = arrays.get("version")
        if version != 1:
            raise ValueError(f"task table version is {version!r}; expected 1")
        raw_state = np.asarray(arrays["state"])
        if len(raw_state) != table.num_tasks:
            raise ValueError(
                f"state column has {len(raw_state)} rows; DAG {dag.name!r} "
                f"has {table.num_tasks} tasks"
            )
        state = raw_state.astype(np.int8)
        unknown = (state != raw_state) | (state < PENDING) | (state > KILLED)
        if unknown.any():
            raise ValueError(
                f"state column holds unknown state code "
                f"{raw_state[unknown][0]!r} (codes are {PENDING}..{KILLED})"
            )
        columns = {}
        for name in ("attempts", "container_slot"):
            column = np.array(arrays[name], dtype=np.int64)
            if column.shape != state.shape:
                raise ValueError(
                    f"{name} column has {len(column)} rows; "
                    f"the state column has {len(state)}"
                )
            columns[name] = column
        layout = table.layout
        table.state = state
        table.attempts = columns["attempts"]
        table.container_slot = columns["container_slot"]
        table._needs_container = (state == PENDING) | (state == KILLED)
        table._needs_count = int(table._needs_container.sum())
        table._vertex_needs = np.bincount(
            layout.vertex_of[table._needs_container],
            minlength=len(layout.task_counts),
        ).tolist()
        completed = state == COMPLETED
        table.completed_counts = np.bincount(
            layout.vertex_of[completed], minlength=len(layout.task_counts)
        ).astype(np.int64)
        table._total_completed = int(completed.sum())
        unmet = layout.initial_unmet.copy()
        for vertex in np.flatnonzero(table.completed_counts == layout.task_counts):
            for i in range(
                int(layout.down_indptr[vertex]), int(layout.down_indptr[vertex + 1])
            ):
                unmet[int(layout.down_indices[i])] -= 1
        table._unmet_upstream = unmet
        table._vertex_ready = unmet == 0
        table._runnable_count = sum(
            needs
            for needs, ready in zip(table._vertex_needs, table._vertex_ready.tolist())
            if ready
        )
        return table

    # -- identity -----------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """Total number of task rows."""
        return self.layout.num_tasks

    def task_id_of(self, row: int) -> str:
        """The task id of a row (``job/vertex/index``), built lazily."""
        task_id = self._task_ids[row]
        if task_id is None:
            vertex = int(self.layout.vertex_of[row])
            index = row - int(self.layout.starts[vertex])
            task_id = f"{self.job_name}/{self.layout.vertex_names[vertex]}/{index}"
            self._task_ids[row] = task_id
        return task_id

    # -- state transitions --------------------------------------------------

    def set_state(self, row: int, code: int) -> None:
        """Move one task to ``code``, keeping counters and frontier in sync."""
        old = int(self.state[row])
        if old == code:
            return
        # Any real transition can move the frontier: it rewrites the
        # needs-container column and/or (via completion propagation) the
        # vertex-readiness column the runnable mask intersects.
        self._frontier_rows = None
        self.state[row] = code
        vertex = int(self.layout.vertex_of[row])
        needs = code == PENDING or code == KILLED
        if needs != (old == PENDING or old == KILLED):
            step = 1 if needs else -1
            self._needs_container[row] = needs
            self._needs_count += step
            self._vertex_needs[vertex] += step
            if self._vertex_ready[vertex]:
                self._runnable_count += step
        if code != RUNNING:
            self.container_slot[row] = -1
        if code == COMPLETED:
            self.completed_counts[vertex] += 1
            self._total_completed += 1
            if self.completed_counts[vertex] == self.layout.task_counts[vertex]:
                self._propagate_completion(vertex, -1)
        elif old == COMPLETED:
            # Regression (not hit by the simulator — completions are final —
            # but the bookkeeping stays exact if a test rewinds a state).
            if self.completed_counts[vertex] == self.layout.task_counts[vertex]:
                self._propagate_completion(vertex, +1)
            self.completed_counts[vertex] -= 1
            self._total_completed -= 1

    def _propagate_completion(self, vertex: int, delta: int) -> None:
        """A vertex crossed the fully-completed boundary; update downstreams."""
        layout = self.layout
        for i in range(int(layout.down_indptr[vertex]), int(layout.down_indptr[vertex + 1])):
            downstream = int(layout.down_indices[i])
            was_ready = bool(self._vertex_ready[downstream])
            self._unmet_upstream[downstream] += delta
            ready = bool(self._unmet_upstream[downstream] == 0)
            self._vertex_ready[downstream] = ready
            if ready != was_ready:
                needs = self._vertex_needs[downstream]
                self._runnable_count += needs if ready else -needs

    def mark_running(self, row: int, container_id: int) -> None:
        """Record a task launch into ``container_id``."""
        self.set_state(row, RUNNING)
        self.container_slot[row] = container_id
        self.attempts[row] += 1

    # -- queries ------------------------------------------------------------

    def vertex_completed(self, vertex_name: str) -> bool:
        """Whether every task of a vertex has completed (O(1))."""
        vertex = self.layout.index_of_vertex[vertex_name]
        return bool(
            self.completed_counts[vertex] == self.layout.task_counts[vertex]
        )

    def all_completed(self) -> bool:
        """Whether every task of every vertex has completed (O(1))."""
        return self._total_completed == self.layout.num_tasks

    @property
    def tasks_completed_total(self) -> int:
        """Running total of completed tasks."""
        return self._total_completed

    @property
    def runnable_count(self) -> int:
        """How many tasks the runnable frontier holds (O(1) counter).

        Zero means the pump has nothing to request for this execution — no
        task is pending-or-killed, or none of those has its upstream
        vertices completed — and can skip it without building the frontier.
        """
        return self._runnable_count

    @property
    def needs_containers(self) -> bool:
        """Whether any task is pending-or-killed (O(1) counter check).

        False means the runnable frontier is certainly empty, letting the
        pump/kill retry loops skip the mask entirely for jobs whose every
        task is running or completed — the overwhelmingly common case.
        """
        return self._needs_count > 0

    def runnable_rows(self) -> np.ndarray:
        """Rows of tasks that need a container and whose vertex is ready.

        Row order is vertex-major DAG insertion order — identical to the
        scalar ``for vertex ... for task`` rescans this mask replaces.  The
        returned array is cached (and read-only) until the next state
        transition drops it.
        """
        rows = self._frontier_rows
        if rows is None:
            mask = self._needs_container & self._vertex_ready[self.layout.vertex_of]
            rows = self._frontier_rows = mask.nonzero()[0]
            rows.setflags(write=False)
        return rows

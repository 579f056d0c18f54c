"""The Application Master: per-job task tracking and container requests.

Each job gets an Application Master that requests containers from the
Resource Manager, decides which task runs in each granted container, tracks
completions, restarts killed tasks, and records the job's final duration in
the shared :class:`~repro.core.job_types.JobHistory` so the next run of the
same job can be typed from history.

In the history (Tez-H) variant the AM consults the clustering service and the
Algorithm 1 class selector once per job to pick the node label(s) its
container requests carry; Stock and PT variants request unlabeled containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.resource_manager import ResourceManager
from repro.cluster.resources import Resource
from repro.cluster.server import Container, ContainerState
from repro.core.class_selection import ClassSelection
from repro.core.job_types import JobHistory, JobType
from repro.jobs.dag import JobDag
from repro.jobs.task_table import COMPLETED, KILLED, TaskTable
from repro.simulation.engine import SimulationEngine


@dataclass
class JobResult:
    """Summary of one finished job execution.

    Attributes:
        job_name: the job's stable name.
        job_type: the type the scheduler assigned to this run.
        submit_time: when the job arrived.
        start_time: when its first container started.
        finish_time: when its last task completed.
        tasks_killed: number of task attempts killed by primary-tenant bursts.
        tasks_completed: number of tasks that finished successfully.
        selected_classes: utilization classes chosen by Algorithm 1 (empty
            for Stock / PT runs or when no class fit).
    """

    job_name: str
    job_type: JobType
    submit_time: float
    start_time: Optional[float]
    finish_time: float
    tasks_killed: int
    tasks_completed: int
    selected_classes: List[str] = field(default_factory=list)

    @property
    def execution_seconds(self) -> float:
        """Job execution time measured from submission to completion."""
        return self.finish_time - self.submit_time


@dataclass
class JobExecution:
    """Mutable state of a job while it runs.

    All per-task state lives in the rows of a columnar
    :class:`~repro.jobs.task_table.TaskTable`: a task runs in the container
    its row's ``container_slot`` names.
    """

    dag: JobDag
    submit_time: float
    job_type: JobType
    selection: Optional[ClassSelection] = None
    start_time: Optional[float] = None
    tasks_killed: int = 0
    tasks_completed: int = 0
    finished: bool = False
    table: TaskTable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.table = TaskTable(self.dag)
        # Request-side caches, filled by the Application Master: the
        # container allocation and request shape of an execution never
        # change after submit.
        self._allocation: Optional[Resource] = None
        self._shape: Optional[tuple] = None

    def vertex_completed(self, vertex_name: str) -> bool:
        """Whether every task of a vertex has completed (O(1) counter check)."""
        return self.table.vertex_completed(vertex_name)

    def all_completed(self) -> bool:
        """Whether every task of every vertex has completed (O(1))."""
        return self.table.all_completed()


class ApplicationMaster:
    """Drives one job's tasks through the Resource Manager.

    Args:
        engine: the shared simulation engine.
        resource_manager: the RM (of whichever variant) to request from.
        history: shared job history for typing and duration recording.

    Attributes:
        tasks_killed: task attempts lost to reserve kills, over every job.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        resource_manager: ResourceManager,
        history: JobHistory,
    ) -> None:
        self._engine = engine
        self._rm = resource_manager
        self._history = history
        self.tasks_killed = 0
        self._results: List[JobResult] = []
        # Container id -> owning execution and task row, maintained across
        # launches, completions and kills so a reserve-kill heartbeat
        # resolves its affected tasks with dict lookups instead of fanning
        # out over every live execution (see :meth:`resolve_kills`).
        self._owner: Dict[int, Tuple[JobExecution, int]] = {}
        #: Optional completion hook: called as ``on_job_finished(execution,
        #: result)`` after a job's result is recorded.  Closed-loop traffic
        #: drivers use it to schedule the submitting user's next job.
        self.on_job_finished: Optional[
            Callable[[JobExecution, JobResult], None]
        ] = None

    @property
    def results(self) -> List[JobResult]:
        """Results of every job that has finished so far."""
        return list(self._results)

    # -- job lifecycle -----------------------------------------------------

    def submit(
        self,
        dag: JobDag,
        job_type: JobType,
        selection: Optional[ClassSelection] = None,
    ) -> JobExecution:
        """Submit a job and immediately try to schedule its runnable tasks."""
        execution = JobExecution(
            dag=dag,
            submit_time=self._engine.now,
            job_type=job_type,
            selection=selection,
        )
        self._pump((execution,))
        return execution

    def _container_allocation(self, dag: JobDag) -> Resource:
        return Resource(dag.container_resource_cores, dag.container_resource_memory_gb)

    def _node_labels(self, execution: JobExecution) -> List[str]:
        if execution.selection is None:
            return []
        return list(execution.selection.class_ids)

    def _launch(self, execution: JobExecution, row: int, container: Container) -> None:
        table = execution.table
        container_id = container.container_id
        table.mark_running(row, container_id)
        self._owner[container_id] = (execution, row)
        if execution.start_time is None:
            execution.start_time = self._engine.now
        self._engine.schedule(
            float(table.layout.durations[row]),
            lambda engine, e=execution, r=row, c=container: self._on_task_finished(
                e, r, c
            ),
            name=f"finish-{table.task_id_of(row)}",
        )

    def _on_task_finished(
        self, execution: JobExecution, row: int, container: Container
    ) -> None:
        """A task's duration elapsed; completes unless the container was killed.

        The task is still live only while its row names this container:
        container ids come from one global counter, so a killed (and maybe
        relaunched) task's row names another container or none.
        """
        table = execution.table
        if table.container_slot[row] != container.container_id:
            return
        self._owner.pop(container.container_id, None)
        if container.state is ContainerState.KILLED:
            # The kill was already handled by resolve_kills; nothing to do.
            return
        self._rm.complete(container, self._engine.now)
        table.set_state(row, COMPLETED)
        execution.tasks_completed += 1
        if execution.all_completed():
            self._finish(execution)
        else:
            self._pump((execution,))

    def _mark_killed(
        self, execution: JobExecution, row: int, container: Container
    ) -> None:
        """Return a killed container's task to the runnable pool."""
        table = execution.table
        if table.container_slot[row] != container.container_id:
            return
        self._owner.pop(container.container_id, None)
        table.set_state(row, KILLED)
        execution.tasks_killed += 1
        self.tasks_killed += 1

    def resolve_kills(self, killed: List[Container]) -> None:
        """Return every killed container's task to its job's runnable pool.

        Reserve kills (the NodeManagers replenishing the reserve) reach the
        owning task through the container->(execution, row) index, one dict
        lookup each; kills of containers no execution owns are ignored.
        The caller re-requests containers afterwards (the cluster pumps
        every execution in submission order) — the re-execution cost that
        inflates YARN-PT's job times.
        """
        for container in killed:
            owner = self._owner.get(container.container_id)
            if owner is not None:
                self._mark_killed(*owner, container)

    def _shape_of(self, execution: JobExecution) -> tuple:
        """Fill the execution's request-side caches; returns its shape."""
        allocation = execution._allocation = self._container_allocation(execution.dag)
        execution._shape = (
            allocation.cores,
            allocation.memory_gb,
            frozenset(self._node_labels(execution)),
        )
        return execution._shape

    def pump_all(self, executions: Sequence[JobExecution]) -> None:
        """Periodic retry: every execution's unsatisfied requests, in order.

        The cluster's pump ticks and post-kill heartbeats pass every live
        execution in submission order; see :meth:`_pump`.
        """
        self._pump(executions)

    def _pump(self, executions: Sequence[JobExecution]) -> None:
        """Request a container for every runnable task, execution by execution.

        Each execution's runnable frontier goes to the RM as one wave of
        the execution's one request shape, and the RM draws one placement
        per task in row order; tasks a wave could not place stay pending
        for the next pump.  A submission or a task completion pumps its own
        execution; :meth:`pump_all` pumps them all.  All waves share one
        :class:`~repro.cluster.resource_manager.WaveBatch`, which places them
        step for step as one batch per wave would.

        An execution is passed over before its frontier is built when it is
        finished, when nothing of it is runnable (every task running or
        completed, or the pending ones waiting on an upstream vertex), or
        when no server can take its request shape
        (:meth:`ResourceManager.shape_exhausted`): such a wave would draw
        nothing and place nothing, so the skip is draw-invisible.  Within
        one call launches only consume capacity, so a shape found
        exhausted stays exhausted and is not asked about again.
        """
        rm = self._rm
        batch = None
        exhausted = set()
        for execution in executions:
            if execution.finished or not execution.table.runnable_count:
                continue
            shape = execution._shape
            if shape is None:
                shape = self._shape_of(execution)
            if shape in exhausted:
                continue
            if rm.shape_exhausted(shape):
                exhausted.add(shape)
                continue
            table = execution.table
            rows = table.runnable_rows().tolist()
            if batch is None:
                batch = rm.begin_batch(self._engine.now)
            containers = batch.schedule(
                execution._allocation,
                shape[2],
                execution.dag.name,
                [table.task_id_of(row) for row in rows],
            )
            if containers[-1] is None:
                # The wave ran out of candidates.
                exhausted.add(shape)
            for row, container in zip(rows, containers):
                if container is not None:
                    self._launch(execution, row, container)

    def _finish(self, execution: JobExecution) -> None:
        execution.finished = True
        duration = self._engine.now - execution.submit_time
        self._history.record(execution.dag.name, duration)
        result = JobResult(
            job_name=execution.dag.name,
            job_type=execution.job_type,
            submit_time=execution.submit_time,
            start_time=execution.start_time,
            finish_time=self._engine.now,
            tasks_killed=execution.tasks_killed,
            tasks_completed=execution.tasks_completed,
            selected_classes=self._node_labels(execution),
        )
        self._results.append(result)
        if self.on_job_finished is not None:
            self.on_job_finished(execution, result)

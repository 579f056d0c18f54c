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

from repro.cluster.resource_manager import ContainerRequest, ResourceManager
from repro.cluster.resources import Resource
from repro.cluster.server import Container, ContainerState
from repro.core.class_selection import ClassSelection
from repro.core.job_types import JobHistory, JobType
from repro.jobs.dag import JobDag, Task, TaskState
from repro.jobs.task_table import CODE_OF_STATE, TaskTable, TaskView
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

    All per-task state lives in a columnar
    :class:`~repro.jobs.task_table.TaskTable`; :attr:`tasks` holds
    write-through :class:`~repro.jobs.task_table.TaskView` objects over its
    rows (the scalar ``Task`` API), grouped per vertex as before.  Callers
    that pass pre-built scalar ``Task`` objects get their states and attempt
    counts adopted into the table, and views replace the scalar objects.
    """

    dag: JobDag
    submit_time: float
    job_type: JobType
    selection: Optional[ClassSelection] = None
    tasks: Dict[str, List[Task]] = field(default_factory=dict)
    running: Dict[int, Task] = field(default_factory=dict)
    start_time: Optional[float] = None
    tasks_killed: int = 0
    tasks_completed: int = 0
    finished: bool = False
    table: TaskTable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.table = TaskTable(self.dag)
        # Request-side caches, filled by the Application Master: the
        # container allocation, labels, request shape and per-task requests
        # of an execution never change after submit.
        self._allocation: Optional[Resource] = None
        self._labels: Optional[List[str]] = None
        self._shape: Optional[tuple] = None
        self._requests: List[Optional[ContainerRequest]] = []
        if self.tasks:
            for vertex_name, scalar_tasks in self.tasks.items():
                start = int(
                    self.table.layout.starts[
                        self.table.layout.index_of_vertex[vertex_name]
                    ]
                )
                for offset, task in enumerate(scalar_tasks):
                    row = start + offset
                    self.table.set_state(row, CODE_OF_STATE[task.state])
                    self.table.attempts[row] = task.attempts
        self.tasks = self.table.views_by_vertex()

    def vertex_completed(self, vertex_name: str) -> bool:
        """Whether every task of a vertex has completed (O(1) counter check)."""
        return self.table.vertex_completed(vertex_name)

    def runnable_tasks(self) -> List[TaskView]:
        """Pending tasks whose upstream vertices have all completed.

        One frontier mask over the task table, in the same vertex-major row
        order the scalar full-DAG rescan produced.
        """
        return self.table.runnable_views()

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
        # Container id -> owning execution, maintained across launches and
        # completions so a reserve-kill heartbeat resolves its affected
        # executions with dict lookups instead of fanning out over every
        # live execution (see :meth:`resolve_kills`).
        self._owner: Dict[int, JobExecution] = {}
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

    def _launch(
        self, execution: JobExecution, task: TaskView, container: Container
    ) -> None:
        execution.table.mark_running(task.row, container.container_id)
        execution.running[container.container_id] = task
        self._owner[container.container_id] = execution
        if execution.start_time is None:
            execution.start_time = self._engine.now
        self._engine.schedule(
            task.duration_seconds,
            lambda engine, c=container, e=execution: self._on_task_finished(e, c),
            name=f"finish-{task.task_id}",
        )

    def _on_task_finished(self, execution: JobExecution, container: Container) -> None:
        """A task's duration elapsed; completes unless the container was killed."""
        task = execution.running.pop(container.container_id, None)
        if task is None:
            return
        self._owner.pop(container.container_id, None)
        if container.state is ContainerState.KILLED:
            # The kill was already handled by resolve_kills; nothing to do.
            return
        self._rm.complete(container, self._engine.now)
        task.state = TaskState.COMPLETED
        execution.tasks_completed += 1
        if execution.all_completed():
            self._finish(execution)
        else:
            self._pump((execution,))

    def _mark_killed(self, execution: JobExecution, container: Container) -> None:
        """Return a killed container's task to the runnable pool."""
        task = execution.running.pop(container.container_id, None)
        if task is None:
            return
        self._owner.pop(container.container_id, None)
        task.state = TaskState.KILLED
        execution.tasks_killed += 1
        self.tasks_killed += 1

    def resolve_kills(self, killed: List[Container]) -> None:
        """Return every killed container's task to its job's runnable pool.

        Reserve kills (the NodeManagers replenishing the reserve) reach the
        owning execution through the container->execution index, one dict
        lookup each; kills of containers no execution owns are ignored.
        The caller re-requests containers afterwards (the cluster pumps
        every execution in submission order) — the re-execution cost that
        inflates YARN-PT's job times.
        """
        for container in killed:
            execution = self._owner.get(container.container_id)
            if execution is not None:
                self._mark_killed(execution, container)

    def _shape_of(self, execution: JobExecution) -> tuple:
        """Fill the execution's request-side caches; returns its shape."""
        allocation = execution._allocation = self._container_allocation(execution.dag)
        execution._labels = self._node_labels(execution)
        execution._shape = (
            allocation.cores,
            allocation.memory_gb,
            frozenset(execution._labels),
        )
        execution._requests = [None] * execution.table.num_tasks
        return execution._shape

    def _wave(
        self, execution: JobExecution
    ) -> Tuple[List[TaskView], List[ContainerRequest]]:
        """The execution's runnable frontier and one request per task.

        Requests are built once per task row and reused by its retries.
        """
        wave = execution.runnable_tasks()
        by_row = execution._requests
        requests = []
        for task in wave:
            row = task.row
            request = by_row[row]
            if request is None:
                request = by_row[row] = ContainerRequest(
                    job_id=execution.dag.name,
                    task_id=task.task_id,
                    allocation=execution._allocation,
                    node_labels=execution._labels,
                )
            requests.append(request)
        return wave, requests

    def pump_all(self, executions: Sequence[JobExecution]) -> None:
        """Periodic retry: every execution's unsatisfied requests, in order.

        The cluster's pump ticks and post-kill heartbeats pass every live
        execution in submission order; see :meth:`_pump`.
        """
        self._pump(executions)

    def _pump(self, executions: Sequence[JobExecution]) -> None:
        """Request a container for every runnable task, execution by execution.

        Each execution's runnable frontier goes to the RM as one wave, and
        the RM draws one placement per request in wave order; tasks a wave
        could not place stay pending for the next pump.  A submission or a
        task completion pumps its own execution; :meth:`pump_all` pumps them
        all.  All waves share one
        :class:`~repro.cluster.resource_manager.WaveBatch`, which places them
        step for step as one batch per wave would.

        An execution is passed over before its frontier or any request is
        built when it is finished, when nothing of it is runnable (every
        task running or completed, or the pending ones waiting on an
        upstream vertex), or when no server can take its request shape
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
            wave, requests = self._wave(execution)
            if batch is None:
                batch = rm.begin_batch(self._engine.now)
            containers = batch.schedule(requests, uniform=True, key=shape)
            if containers[-1] is None:
                # The wave ran out of candidates.
                exhausted.add(shape)
            for task, container in zip(wave, containers):
                if container is not None:
                    self._launch(execution, task, container)

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

"""End-to-end compute-harvesting cluster assembled from the building blocks.

A :class:`HarvestingCluster` wires together the servers of a datacenter (or a
scaled-down sample of them), per-server NodeManagers, a ResourceManager of
one of the three variants, the clustering service, the Algorithm 1 class
selector, and one ApplicationMaster per submitted job.  It is the object the
testbed and datacenter-scale experiments drive.

Variant summary (Section 6.1 baselines):

=============  =====================  ===========================  =================
Variant        NodeManager            Scheduling                   Task placement
=============  =====================  ===========================  =================
YARN-Stock     primary-oblivious      default (most available)     any server
YARN-PT        primary-aware, kills   probabilistic by available   any server
YARN-H/Tez-H   primary-aware, kills   probabilistic by available   Algorithm 1 labels
=============  =====================  ===========================  =================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.node_manager import HEARTBEAT_INTERVAL_SECONDS, NodeManager
from repro.cluster.resource_manager import ResourceManager, SchedulerMode
from repro.cluster.reserve import ResourceReserve
from repro.cluster.resources import Resource
from repro.cluster.server import SimulatedServer
from repro.core.class_selection import ClassCapacity, ClassSelection, ClassSelector
from repro.core.clustering import ClusteringService
from repro.core.job_types import JobHistory, JobType, JobTypeThresholds
from repro.jobs.app_master import ApplicationMaster, JobExecution, JobResult
from repro.jobs.dag import JobDag
from repro.jobs.workload import JobArrival
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import MetricRegistry
from repro.simulation.random import RandomSource
from repro.traces.datacenter import PrimaryTenant


class SeriesRecorder:
    """Where per-server heartbeat rows go once a recorder is installed.

    The cluster feeds one row per heartbeat to :meth:`record`; what happens
    to it is the recorder's policy.  The harness installs
    :class:`~repro.harness.streaming.MinuteLatencyRecorder` (or its
    per-epoch :class:`~repro.harness.streaming.StreamingEpochAggregator`),
    which folds the rows into per-minute primary-latency samples.
    """

    def record(
        self, time: float, secondary_cpu: np.ndarray, primary_cpu: np.ndarray
    ) -> None:
        """Ingest one heartbeat row (``primary_cpu`` is already a copy)."""
        raise NotImplementedError


@dataclass
class ClusterConfig:
    """Configuration of a harvesting cluster run.

    Attributes:
        mode: which scheduler variant to run.
        reserve_cpu_fraction: fraction of each server's cores held in reserve.
        reserve_memory_fraction: fraction of memory held in reserve.
        heartbeat_seconds: NodeManager heartbeat period.
        pump_seconds: how often pending jobs retry unsatisfied requests.
        thresholds: job-length thresholds for Algorithm 1 typing.
    """

    mode: SchedulerMode = SchedulerMode.HISTORY
    reserve_cpu_fraction: float = 1.0 / 3.0
    reserve_memory_fraction: float = 0.31
    heartbeat_seconds: float = HEARTBEAT_INTERVAL_SECONDS
    pump_seconds: float = 15.0
    thresholds: JobTypeThresholds = JobTypeThresholds()


class HarvestingCluster:
    """A compute-harvesting cluster of shared servers plus its scheduler."""

    def __init__(
        self,
        tenants: Sequence[PrimaryTenant],
        config: Optional[ClusterConfig] = None,
        rng: Optional[RandomSource] = None,
        engine: Optional[SimulationEngine] = None,
        servers_per_tenant_limit: Optional[int] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self._rng = rng or RandomSource(0)
        self.engine = engine or SimulationEngine()
        self.metrics = MetricRegistry()
        self._tenants = {t.tenant_id: t for t in tenants}

        self.servers: Dict[str, SimulatedServer] = {}
        for tenant in tenants:
            tenant_servers = tenant.servers
            if servers_per_tenant_limit is not None:
                tenant_servers = tenant_servers[:servers_per_tenant_limit]
            for server in tenant_servers:
                capacity = Resource(float(server.cores), float(server.memory_gb))
                reserve = ResourceReserve.from_fractions(
                    capacity,
                    self.config.reserve_cpu_fraction,
                    self.config.reserve_memory_fraction,
                )
                simulated = SimulatedServer(server, tenant, reserve)
                self.servers[server.server_id] = simulated

        self.resource_manager = ResourceManager(
            mode=self.config.mode, rng=self._rng.fork("rm"), metrics=self.metrics
        )
        self.clustering = ClusteringService(rng=self._rng.fork("clustering"))
        self.selector = ClassSelector(
            rng=self._rng.fork("selector"),
            reserve_fraction=self.config.reserve_cpu_fraction,
        )
        self.history = JobHistory()
        self.app_master = ApplicationMaster(
            self.engine, self.resource_manager, self.history, self.metrics
        )

        primary_aware = self.config.mode is not SchedulerMode.STOCK
        for server in self.servers.values():
            node_manager = NodeManager(server, primary_aware=primary_aware)
            self.resource_manager.register_node(node_manager)

        if self.config.mode is SchedulerMode.HISTORY:
            self.refresh_clustering()

        self._executions: List[JobExecution] = []
        self._series_recorder: Optional[SeriesRecorder] = None

    @property
    def fleet(self):
        """The array substrate the cluster's scheduler runs on."""
        return self.resource_manager.fleet

    def set_series_recorder(self, recorder: Optional[SeriesRecorder]) -> None:
        """Install a heartbeat-series recorder (``None`` stops recording).

        Must be called before :meth:`run` — swapping recorders mid-run would
        split the series across policies.
        """
        self._series_recorder = recorder

    # -- clustering --------------------------------------------------------

    def refresh_clustering(self) -> None:
        """(Re)run the clustering service and re-label every server."""
        self.clustering.update(self._tenants.values())
        for server in self.servers.values():
            label = self.clustering.class_of_tenant(server.tenant_id)
            self.resource_manager.set_label(server.server_id, label)

    def class_capacities(self, time: float) -> List[ClassCapacity]:
        """Per-class capacity view built from current heartbeat information.

        One batched fleet pass computes every class's capacity and current
        utilization (instead of two full-fleet reductions per class).
        """
        classes = self.clustering.classes()
        statistics = self.resource_manager.class_statistics(
            [cls.class_id for cls in classes], time
        )
        capacities: List[ClassCapacity] = []
        for cls, (total_cores, current) in zip(classes, statistics):
            if total_cores <= 0:
                continue
            capacities.append(
                ClassCapacity(
                    utilization_class=cls,
                    total_capacity=total_cores,
                    current_utilization=current,
                )
            )
        return capacities

    # -- job submission -------------------------------------------------------

    def _select_classes(
        self, dag: JobDag, job_type: JobType
    ) -> Optional[ClassSelection]:
        if self.config.mode is not SchedulerMode.HISTORY:
            return None
        capacities = self.class_capacities(self.engine.now)
        return self.selector.select(job_type, dag.max_concurrent_cores(), capacities)

    def submit_job(self, dag: JobDag) -> JobExecution:
        """Submit one job now."""
        job_type = self.history.categorize(dag.name, self.config.thresholds)
        selection = self._select_classes(dag, job_type)
        execution = self.app_master.submit(dag, job_type, selection)
        self._executions.append(execution)
        return execution

    def submit_arrivals(self, arrivals: Sequence[JobArrival]) -> None:
        """Schedule a whole arrival stream onto the engine."""
        for arrival in arrivals:
            self.engine.schedule_at(
                arrival.time,
                lambda engine, dag=arrival.dag: self.submit_job(dag),
                name=f"arrival-{arrival.dag.name}",
            )

    # -- simulation loop --------------------------------------------------------

    def _prune_finished(self) -> None:
        """Drop finished executions from the periodic loops.

        ``pump`` and ``handle_kills`` are no-ops on finished executions, so
        pruning is behavior-identical — it just stops the loops from
        growing with every completed job over a long run.
        """
        self._executions = [e for e in self._executions if not e.finished]

    def _heartbeat_step(self, engine: SimulationEngine) -> None:
        killed = self.resource_manager.process_heartbeats(engine.now)
        if killed:
            self._prune_finished()
            # Resolve each killed container straight to its owning execution
            # (one dict lookup each), then give every execution its retry
            # pump in submission order — the same order the old
            # per-execution ``handle_kills`` fan-out scheduled in, minus the
            # executions x kills broadcast.  The pumps go to the RM as one
            # coalesced batch (see ``ApplicationMaster.pump_all``).
            self.app_master.resolve_kills(killed)
            self.app_master.pump_all(self._executions)
        self.metrics.time_series("primary_utilization").add(
            engine.now, self.resource_manager.average_primary_utilization(engine.now)
        )
        self.metrics.time_series("total_utilization").add(
            engine.now, self.resource_manager.average_total_utilization(engine.now)
        )
        # Per-server view of primary demand and batch allocation, used by the
        # testbed experiments to evaluate the primary tail-latency model at
        # every point of the run rather than only at its end.  Both vectors
        # are read straight from the fleet arrays (the refresh above already
        # gathered this heartbeat's utilization).
        if self._series_recorder is not None:
            fleet = self.fleet
            self._series_recorder.record(
                engine.now,
                fleet.secondary_cpu_fraction(),
                fleet.primary_utilization(engine.now).copy(),
            )

    def _pump_step(self, engine: SimulationEngine) -> None:
        self._prune_finished()
        self.app_master.pump_all(self._executions)

    def run(self, duration_seconds: float) -> None:
        """Run the cluster for ``duration_seconds`` of simulated time."""
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        self.engine.schedule_periodic(
            self.config.heartbeat_seconds,
            self._heartbeat_step,
            name="heartbeats",
            until=duration_seconds,
        )
        self.engine.schedule_periodic(
            self.config.pump_seconds,
            self._pump_step,
            name="pump",
            until=duration_seconds,
        )
        self.engine.run_until(duration_seconds)

    # -- results -------------------------------------------------------------

    @property
    def results(self) -> List[JobResult]:
        """Results for all completed jobs."""
        return self.app_master.results

    def average_job_execution_seconds(self) -> float:
        """Mean execution time of the completed jobs (0 when none finished)."""
        results = self.results
        if not results:
            return 0.0
        return sum(r.execution_seconds for r in results) / len(results)

    def total_tasks_killed(self) -> int:
        """Total task attempts killed by reserve enforcement."""
        return self.metrics.counter_value("tasks_killed")

    def completed_job_count(self) -> int:
        """How many jobs finished during the run."""
        return len(self.results)

"""End-to-end compute-harvesting cluster assembled from the building blocks.

A :class:`HarvestingCluster` wires together the servers of a datacenter (or a
scaled-down sample of them) as one
:class:`~repro.cluster.fleet_state.FleetState`, a ResourceManager of one of
the three variants, the clustering service, the Algorithm 1 class selector,
and the ApplicationMaster that drives every submitted job.  It is the object
the testbed and datacenter-scale experiments drive.  The NodeManager side
of the protocol — heartbeats every ``HEARTBEAT_INTERVAL_SECONDS`` and
youngest-first reserve kills — is the fleet's batch refresh.

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
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.fleet_state import FleetState
from repro.cluster.resource_manager import ResourceManager, SchedulerMode
from repro.core.class_selection import ClassCapacity, ClassSelection, ClassSelector
from repro.core.clustering import ClusteringService
from repro.core.job_types import JobHistory, JobType, JobTypeThresholds
from repro.jobs.app_master import ApplicationMaster, JobExecution, JobResult
from repro.jobs.dag import JobDag
from repro.jobs.workload import JobArrival
from repro.simulation.engine import SimulationEngine
from repro.simulation.random import RandomSource
from repro.traces.datacenter import PrimaryTenant
from repro.traces.matrix import TraceMatrix

#: Heartbeat period used by the modelled systems.
HEARTBEAT_INTERVAL_SECONDS = 3.0


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
        """Ingest one heartbeat row: read-only arrays that rows may share."""
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
    """A compute-harvesting cluster of shared servers plus its scheduler.

    ``trace_matrix``, when given, is the tenants' prebuilt
    :class:`~repro.traces.matrix.TraceMatrix` (see :class:`FleetState`), so
    clusters over one tenant set can share it.
    """

    def __init__(
        self,
        tenants: Sequence[PrimaryTenant],
        config: Optional[ClusterConfig] = None,
        rng: Optional[RandomSource] = None,
        engine: Optional[SimulationEngine] = None,
        servers_per_tenant_limit: Optional[int] = None,
        trace_matrix: Optional[TraceMatrix] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self._rng = rng or RandomSource(0)
        self.engine = engine or SimulationEngine()
        #: Cluster-wide CPU utilization (primary plus harvested), one value
        #: per heartbeat.
        self.heartbeat_utilization: List[float] = []
        self._tenants = {t.tenant_id: t for t in tenants}

        rows = []
        for tenant in tenants:
            tenant_servers = tenant.servers
            if servers_per_tenant_limit is not None:
                tenant_servers = tenant_servers[:servers_per_tenant_limit]
            rows.extend((server, tenant) for server in tenant_servers)
        fleet = FleetState(
            rows,
            self.config.reserve_cpu_fraction,
            self.config.reserve_memory_fraction,
            primary_aware=self.config.mode is not SchedulerMode.STOCK,
            trace_matrix=trace_matrix,
        )

        self.resource_manager = ResourceManager(
            fleet,
            mode=self.config.mode,
            rng=self._rng.fork("rm"),
        )
        self.clustering = ClusteringService(rng=self._rng.fork("clustering"))
        self.selector = ClassSelector(
            rng=self._rng.fork("selector"),
            reserve_fraction=self.config.reserve_cpu_fraction,
        )
        self.history = JobHistory()
        self.app_master = ApplicationMaster(
            self.engine, self.resource_manager, self.history
        )

        if self.config.mode is SchedulerMode.HISTORY:
            self.refresh_clustering()

        self._executions: List[JobExecution] = []
        self._series_recorder: Optional[SeriesRecorder] = None

    @property
    def fleet(self) -> FleetState:
        """The per-server state the cluster's scheduler runs on."""
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
        fleet = self.fleet
        for server_id, tenant_id in zip(fleet.server_ids, fleet.tenant_ids):
            label = self.clustering.class_of_tenant(tenant_id)
            self.resource_manager.set_label(server_id, label)

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

        Finished executions never request containers, so pruning is
        behavior-identical — it just stops the loops from growing with
        every completed job over a long run.
        """
        self._executions = [e for e in self._executions if not e.finished]

    def _heartbeat_step(self, engine: SimulationEngine) -> None:
        now = engine.now
        rm = self.resource_manager
        killed = rm.process_heartbeats(now)
        if killed:
            self._prune_finished()
            # Resolve each killed container straight to its owning execution
            # (one dict lookup each), then give every execution its retry
            # pump in submission order, as one coalesced RM batch (see
            # ``ApplicationMaster.pump_all``).
            self.app_master.resolve_kills(killed)
            self.app_master.pump_all(self._executions)
        self.heartbeat_utilization.append(rm.average_total_utilization(now))
        # Per-server view of primary demand and batch allocation, used by the
        # testbed experiments to evaluate the primary tail-latency model at
        # every point of the run rather than only at its end.  Both vectors
        # are the fleet's frozen caches (per trace sample and per allocation
        # version), so consecutive rows share them until something changes.
        if self._series_recorder is not None:
            fleet = rm.fleet
            self._series_recorder.record(
                now, fleet.secondary_cpu_fraction(), fleet.primary_utilization(now)
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
        # A run is the cluster's whole life: events past the horizon (the
        # finish events of tasks still running) never fire.
        self.engine.clear()

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
        return self.app_master.tasks_killed

    def average_utilization(self) -> float:
        """Mean of :attr:`heartbeat_utilization` (0.0 before any heartbeat)."""
        values = self.heartbeat_utilization
        return float(np.mean(values)) if values else 0.0

    def completed_job_count(self) -> int:
        """How many jobs finished during the run."""
        return len(self.results)

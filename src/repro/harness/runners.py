"""Per-kind scenario runners behind :class:`repro.harness.ExperimentHarness`.

Each runner executes one scenario kind over the shared pipeline: build the
datacenter once, trim and scale the tenants, fork a seeded random stream per
policy variant, drive every time-stepped piece through
:class:`~repro.simulation.engine.SimulationEngine`, and record headline
numbers in the harness :class:`~repro.simulation.metrics.MetricRegistry`.

Since the ``repro.api`` redesign every runner declares its work as a **cell
grid** (:meth:`ScenarioRunner.cells`): shared setup runs once, then each
independent grid cell — one (variant, replication) pair, one (utilization,
scaling) sweep point — carries the child seed(s) its forked streams resolved
to and executes through a pure :meth:`ScenarioRunner.run_cell`, with
:meth:`ScenarioRunner.merge` reassembling partial results (and the metric
writes) in deterministic cell order.  The harness can therefore run cells
serially or across a process pool and produce bit-identical results either
way.

The runners keep the random-stream fork order of the original per-figure
drivers exactly, so a fixed seed yields the same figures it always has.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.cluster.resource_manager import SchedulerMode
from repro.core.job_types import thresholds_from_history
from repro.harness.builders import (
    build_namenode,
    build_testbed_tenants,
    find_datacenter_spec,
    copy_tenant,
    scaled_tenants,
    trimmed_tenants,
)
from repro.harness.cells import Cell
from repro.harness.results import (
    AvailabilityPoint,
    AvailabilityResult,
    DurabilityResult,
    FleetImprovementResult,
    SchedulingSweepPoint,
    SchedulingSweepResult,
    SchedulingTestbedResult,
    StorageTestbedResult,
    VariantDurabilityResult,
    VariantSchedulingResult,
    VariantStorageResult,
)
from repro.harness.spec import ScenarioSpec
from repro.harness.streaming import MinuteLatencyRecorder
from repro.jobs.scheduler_variants import ClusterConfig, HarvestingCluster
from repro.jobs.tpcds import TpcdsWorkloadFactory
from repro.jobs.workload import WorkloadGenerator
from repro.services.latency_model import LatencyModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import MetricRegistry
from repro.simulation.random import ForkSequence, RandomSource
from repro.storage.namenode import AccessResult, NameNode
from repro.traces.datacenter import Datacenter, PrimaryTenant
from repro.traces.fleet import build_datacenter
from repro.traces.matrix import TraceMatrix
from repro.traces.reimage import ReimageEvent, ReimageProfile, generate_reimage_events
from repro.traces.scaling import ScalingMethod, fleet_scaling_factor, scale_trace
from repro.workload.distributions import parse_skew

#: How often the NameNode's re-replication loop runs in the simulation.
REPLICATION_PERIOD_SECONDS = 600.0

#: Job-length multiplier for the datacenter-scale simulations.  The paper
#: multiplies job lengths and container usage by a scaling factor to generate
#: enough load for large clusters (Section 6.1); stretching the jobs to hours
#: also means their lifetimes overlap the primary tenants' diurnal swings,
#: which is precisely the regime where historical knowledge matters.
SIMULATION_DURATION_SCALE = 40.0

#: Mean job inter-arrival time used by the datacenter-scale simulations.
#: Chosen so that batch demand roughly fills the harvestable capacity of the
#: scaled-down cluster, as in the paper's experiments where long queues form
#: once primary utilization approaches 60%.
SIMULATION_INTERARRIVAL_SECONDS = 200.0

#: Reimage events fire before the re-replication round scheduled at the same
#: simulated time, matching the race the durability experiment measures.
REIMAGE_PRIORITY = 0
REPLICATION_PRIORITY = 1

RUNNERS: Dict[str, Type["ScenarioRunner"]] = {}


def _per_server_utilization(
    tenants: Sequence[PrimaryTenant], times: np.ndarray
) -> np.ndarray:
    """A ``(times x servers)`` utilization matrix, in tenant/server order.

    Column order matches the scalar loops' ``for tenant ... for server``
    nesting; one TraceMatrix gather replaces the per-server trace lookups.
    """
    matrix = TraceMatrix(tenants)
    rows = np.repeat(
        np.arange(matrix.num_tenants), [t.num_servers for t in tenants]
    )
    return matrix.utilization(rows[None, :], np.asarray(times, dtype=float)[:, None])


def _baseline_p99(
    tenants: Sequence[PrimaryTenant], duration: float, rng: RandomSource
) -> float:
    """The testbeds' No-Harvesting baseline: mean per-minute primary p99.

    The primary service alone, no batch containers.  One (minutes x
    servers) latency matrix replaces the per-tenant/per-server Python
    loops; the jitter draws are consumed in the same minute-major order the
    scalar loop used.
    """
    latency_model = LatencyModel(rng=rng)
    minutes = np.arange(60.0, duration, 60.0)
    samples: List[float] = []
    if len(minutes):
        utilization = _per_server_utilization(tenants, minutes)
        latencies = latency_model.p99_latency_ms_array(utilization, 0.0)
        samples = [float(np.mean(row)) for row in latencies]
    return float(np.mean(samples)) if samples else 0.0


def _register(cls: Type["ScenarioRunner"]) -> Type["ScenarioRunner"]:
    RUNNERS[cls.kind] = cls
    return cls


class ScenarioRunner:
    """Base class: one scenario kind, one cell-grid decomposition.

    Subclasses implement three hooks:

    * ``_prepare()`` — the shared setup every cell needs (fleet build, trace
      scaling, reimage schedules), consuming the runner's stream in exactly
      the order the serial drivers did;
    * ``_enumerate_cells()`` — the grid, forking one child stream per cell
      (in the serial loop order) and recording the child seeds on the cells;
    * ``run_cell(cell)`` — execute one cell *purely*: no access to
      ``self.rng`` or ``self.metrics``, randomness only from
      ``RandomSource(cell.seeds[i])``, so a cell computes the same partial
      result in any process;
    * ``merge(cells, partials)`` — reassemble partial results (and perform
      every metric write) in cell order.

    ``run()`` composes them serially; the harness uses the same hooks to
    execute cells on a process pool with bit-identical output.
    """

    kind: ClassVar[str] = ""

    #: Fork labels ``_prepare`` consumes off the runner stream, in order.
    #: Child-seed derivation is pure arithmetic, so replaying these labels
    #: through a :class:`ForkSequence` positions the fork index exactly
    #: where ``_enumerate_cells`` starts — the spec-only enumeration fast
    #: path.  ``None`` disables the fast path for the kind.
    SHARED_FORK_LABELS: ClassVar[Optional[Tuple[str, ...]]] = None

    def __init__(
        self, spec: ScenarioSpec, rng: RandomSource, metrics: MetricRegistry
    ) -> None:
        self.spec = spec
        self.rng = rng
        self.metrics = metrics
        self._ctx: Optional[Dict[str, Any]] = None
        self._cells: Optional[List[Cell]] = None

    # -- cell protocol ------------------------------------------------------

    def cells(self) -> List[Cell]:
        """The scenario's cell grid (shared setup runs on first call)."""
        if self._cells is None:
            self._ctx = self._prepare()
            self._cells = self._enumerate_cells()
        return self._cells

    @property
    def ctx(self) -> Dict[str, Any]:
        """Shared context built by ``_prepare`` (forces ``cells()``)."""
        self.cells()
        assert self._ctx is not None
        return self._ctx

    def _prepare(self) -> Dict[str, Any]:
        """Build the state every cell shares; consumes shared stream forks."""
        raise NotImplementedError

    def _enumerate_cells(self) -> List[Cell]:
        """Enumerate the grid, forking one child stream per cell."""
        raise NotImplementedError

    def run_cell(self, cell: Cell) -> Any:
        """Execute one cell purely; returns a picklable partial result."""
        raise NotImplementedError

    def merge(self, cells: Sequence[Cell], partials: Sequence[Any]) -> Any:
        """Assemble partial results (in cell order) into the kind result."""
        raise NotImplementedError

    def _after_restore(self) -> None:
        """Hook for snapshot restores: re-bind context pieces that must
        reference live run state (default: nothing to re-bind)."""

    def run(self) -> Any:
        """Execute the scenario serially and return its result dataclass."""
        cells = self.cells()
        return self.merge(cells, [self.run_cell(cell) for cell in cells])

    # -- spec-only enumeration ----------------------------------------------

    @classmethod
    def cells_from_spec(cls, spec: ScenarioSpec, seed: int) -> Optional[List[Cell]]:
        """The kind's cell grid derived from the spec alone — no build.

        Replays the fork labels ``_prepare`` consumes (they draw nothing —
        seeds are arithmetic), then runs the same grid loops
        ``_enumerate_cells`` runs, so the returned cells are identical —
        index, key, seeds, coords — to what a fully prepared runner
        enumerates, at zero fleet-build cost.  Returns ``None`` when the
        kind cannot enumerate without context.
        """
        if cls.SHARED_FORK_LABELS is None:
            return None
        forks = ForkSequence(seed)
        for label in cls.SHARED_FORK_LABELS:
            forks.fork_seed(label)
        return cls._spec_cells(spec, forks)

    @classmethod
    def _spec_cells(cls, spec: ScenarioSpec, forks: ForkSequence) -> List[Cell]:
        """Grid enumeration against a replayed fork sequence."""
        return cls._grid_cells(spec, forks.fork_seed)

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        """The kind's grid loops, parameterized over the seed source.

        ``fork_seed`` is either a prepared runner's :meth:`fork_seed` (the
        full path) or a :class:`ForkSequence`'s (the spec-only path); both
        yield the same seeds for the same call sequence.
        """
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def fork_seed(self, label: str) -> int:
        """Fork a child stream off the runner stream; returns its seed.

        The child seed depends on the parent seed, the fork index, and the
        label — recording it on a cell preserves the exact serial fork order
        while letting the cell rebuild the stream in another process.
        """
        return self.rng.fork(label).seed

    def build_fleet(self) -> Datacenter:
        """Build the scenario's datacenter once (first fork of the run)."""
        dc_spec = find_datacenter_spec(self.spec.datacenter)
        return build_datacenter(
            dc_spec, self.rng.fork("fleet"), scale=self.spec.scale.datacenter_scale
        )


# ---------------------------------------------------------------------------
# Figure 15: durability
# ---------------------------------------------------------------------------


def _reimage_schedule(
    tenants: Sequence[PrimaryTenant],
    months: int,
    rng: RandomSource,
    environment_burst_rate_per_month: float,
    environment_burst_fraction: float,
) -> List[ReimageEvent]:
    """All reimage events across the tenants, sorted by time.

    Two sources are combined: each tenant's own reimage profile (independent
    per-server reimages plus tenant-level bursts) and *environment-wide*
    bursts that reimage most servers of an environment at once — the
    redeployment / repurposing events the paper identifies as the main threat
    to durability, and the reason Algorithm 2 never co-locates replicas in
    one environment.
    """
    events: List[ReimageEvent] = []
    environments: Dict[str, List[str]] = {}
    for tenant in tenants:
        server_ids = [s.server_id for s in tenant.servers]
        environments.setdefault(tenant.environment, []).extend(server_ids)
        events.extend(
            generate_reimage_events(
                server_ids, tenant.reimage_profile, months, rng.fork(tenant.tenant_id)
            )
        )
    burst_profile = ReimageProfile(
        rate_per_server_month=0.0,
        burst_rate_per_month=environment_burst_rate_per_month,
        burst_fraction=environment_burst_fraction,
        monthly_variation=0.0,
    )
    for environment, server_ids in environments.items():
        events.extend(
            generate_reimage_events(
                server_ids, burst_profile, months, rng.fork(f"env-burst-{environment}")
            )
        )
    events.sort(key=lambda e: e.time)
    return events


@_register
class DurabilityRunner(ScenarioRunner):
    """Figure 15: replay a reimage history against each HDFS variant.

    Cell grid: one cell per (replication level, variant) pair, in the serial
    loop's nesting order.
    """

    kind = "durability"
    SHARED_FORK_LABELS = ("fleet", "reimages")

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        datacenter = self.build_fleet()
        tenants = trimmed_tenants(
            datacenter, spec.max_tenants, spec.servers_per_tenant_limit
        )
        months = max(1, int(round(spec.scale.durability_days / 30.0)))
        duration = spec.scale.durability_days * 24 * 3600.0
        reimages = _reimage_schedule(
            tenants,
            months,
            self.rng.fork("reimages"),
            environment_burst_rate_per_month=spec.param(
                "environment_burst_rate_per_month", 0.1
            ),
            environment_burst_fraction=spec.param("environment_burst_fraction", 0.9),
        )
        return {
            "tenants": tenants,
            "reimages": reimages,
            "duration": duration,
            "matrix": TraceMatrix(tenants),
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for replication in spec.replication_levels:
            for variant in spec.variants:
                cells.append(
                    Cell(
                        index=len(cells),
                        key=f"{variant}-r{replication}",
                        seeds=(fork_seed(f"{variant}-{replication}"),),
                        coords={"variant": variant, "replication": replication},
                    )
                )
        return cells

    def _enumerate_cells(self) -> List[Cell]:
        return self._grid_cells(self.spec, self.fork_seed)

    def run_cell(self, cell: Cell) -> VariantDurabilityResult:
        ctx = self.ctx
        return self._run_variant(
            cell.coord("variant"),
            cell.coord("replication"),
            ctx["tenants"],
            ctx["reimages"],
            ctx["duration"],
            RandomSource(cell.seeds[0]),
            ctx["matrix"],
        )

    def merge(
        self,
        cells: Sequence[Cell],
        partials: Sequence[VariantDurabilityResult],
    ) -> DurabilityResult:
        result = DurabilityResult(self.spec.datacenter)
        for cell, outcome in zip(cells, partials):
            variant = cell.coord("variant")
            replication = cell.coord("replication")
            result.results[(variant, replication)] = outcome
            prefix = f"durability.{variant}.r{replication}"
            self.metrics.counter(f"{prefix}.blocks_created").increment(
                outcome.blocks_created
            )
            self.metrics.counter(f"{prefix}.blocks_lost").increment(
                outcome.blocks_lost
            )
            self.metrics.counter(f"{prefix}.reimage_events").increment(
                outcome.reimage_events
            )
        return result

    def _run_variant(
        self,
        variant: str,
        replication: int,
        tenants: Sequence[PrimaryTenant],
        reimages: Sequence[ReimageEvent],
        duration: float,
        rng: RandomSource,
        matrix: TraceMatrix,
    ) -> VariantDurabilityResult:
        """Create blocks up front, then replay the schedule through the engine."""
        namenode = build_namenode(
            variant, tenants, replication, rng, trace_matrix=matrix
        )
        all_servers = [s.server_id for t in tenants for s in t.servers]

        # One batched creator draw (stream-identical to per-block
        # ``rng.choice``) feeding the NameNode's batched creation path.
        creators = [
            all_servers[int(i)]
            for i in rng.generator.integers(
                0, len(all_servers), size=self.spec.scale.num_blocks
            )
        ]
        created = sum(
            1 for block_id in namenode.create_blocks(0.0, creators) if block_id
        )

        engine = SimulationEngine()
        replayed = 0
        for event in reimages:
            if event.time > duration:
                break
            replayed += 1
            engine.schedule_at(
                event.time,
                lambda e, server_id=event.server_id: namenode.handle_reimage(
                    server_id, e.now
                ),
                priority=REIMAGE_PRIORITY,
                name="reimage",
            )
        engine.schedule_periodic(
            REPLICATION_PERIOD_SECONDS,
            lambda e: namenode.run_replication(e.now),
            priority=REPLICATION_PRIORITY,
            name="re-replication",
            until=duration,
        )
        engine.run_until(duration)

        return VariantDurabilityResult(
            variant=variant,
            replication=replication,
            blocks_created=created,
            blocks_lost=len(namenode.lost_blocks()),
            reimage_events=replayed,
        )


# ---------------------------------------------------------------------------
# Figure 16: availability
# ---------------------------------------------------------------------------


@_register
class AvailabilityRunner(ScenarioRunner):
    """Figure 16: sample block accesses across the utilization spectrum.

    Cell grid: one cell per (target utilization, replication, variant)
    triple, in the serial loop's nesting order.
    """

    kind = "availability"
    SHARED_FORK_LABELS = ("fleet",)

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        accesses_per_point = int(spec.param("accesses_per_point", 2000))
        if accesses_per_point <= 0:
            raise ValueError("accesses_per_point must be positive")
        if len(spec.scalings) != 1:
            # AvailabilityResult reports one scaling method per run; sweep
            # both by registering one scenario per method.
            raise ValueError(
                "availability scenarios take exactly one scaling method "
                f"(got {len(spec.scalings)})"
            )
        scaling = spec.scalings[0]
        datacenter = self.build_fleet()
        trimmed = trimmed_tenants(
            datacenter, spec.max_tenants, spec.servers_per_tenant_limit
        )
        # Trace scaling draws nothing from the stream, so deriving every
        # target's tenant set here (instead of inside the cell loop) leaves
        # the fork sequence unchanged.
        per_target: Dict[float, Dict[str, Any]] = {}
        for target in spec.utilization_levels:
            tenants = scaled_tenants(trimmed, target, scaling)
            per_target[target] = {
                "tenants": tenants,
                "all_servers": [s.server_id for t in tenants for s in t.servers],
                "matrix": TraceMatrix(tenants) if tenants else None,
            }
        return {
            "scaling": scaling,
            "per_target": per_target,
            "duration": spec.scale.simulation_days * 24 * 3600.0,
            "num_blocks": min(spec.scale.num_blocks, 2000),
            "accesses_per_point": accesses_per_point,
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for target in spec.utilization_levels:
            for replication in spec.replication_levels:
                for variant in spec.variants:
                    cells.append(
                        Cell(
                            index=len(cells),
                            key=f"{variant}-r{replication}-u{target}",
                            seeds=(fork_seed(f"{variant}-{replication}-{target}"),),
                            coords={
                                "variant": variant,
                                "replication": replication,
                                "target_utilization": target,
                            },
                        )
                    )
        return cells

    def _enumerate_cells(self) -> List[Cell]:
        return self._grid_cells(self.spec, self.fork_seed)

    def run_cell(self, cell: Cell) -> AvailabilityPoint:
        ctx = self.ctx
        target = cell.coord("target_utilization")
        scaled = ctx["per_target"][target]
        return self._run_point(
            cell.coord("variant"),
            cell.coord("replication"),
            target,
            scaled["tenants"],
            scaled["all_servers"],
            scaled["matrix"],
            ctx["num_blocks"],
            ctx["accesses_per_point"],
            ctx["duration"],
            RandomSource(cell.seeds[0]),
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[AvailabilityPoint]
    ) -> AvailabilityResult:
        result = AvailabilityResult(self.spec.datacenter, self.ctx["scaling"])
        for point in partials:
            result.points.append(point)
            prefix = (
                f"availability.{point.variant}.r{point.replication}"
                f".u{point.target_utilization}"
            )
            self.metrics.counter(f"{prefix}.accesses").increment(point.accesses)
            self.metrics.counter(f"{prefix}.failed").increment(point.failed_accesses)
        return result

    def _run_point(
        self,
        variant: str,
        replication: int,
        target: float,
        tenants: Sequence[PrimaryTenant],
        all_servers: Sequence[str],
        matrix: TraceMatrix,
        num_blocks: int,
        accesses_per_point: int,
        duration: float,
        rng: RandomSource,
    ) -> AvailabilityPoint:
        # Accesses are always checked against busy servers here (even for the
        # stock placement) because Figure 16 measures whether the *placement*
        # provides enough diversity, not whether the DataNode throttles.
        namenode = build_namenode(
            variant, tenants, replication, rng, primary_aware=True, trace_matrix=matrix
        )
        creators = [
            all_servers[int(i)]
            for i in rng.generator.integers(0, len(all_servers), size=num_blocks)
        ]
        block_ids: List[str] = [
            block_id
            for block_id in namenode.create_blocks(0.0, creators)
            if block_id is not None
        ]

        # Blocks whose creation coincided with busy candidate servers start
        # under-replicated; the background re-replication loop tops them up
        # before accesses are sampled, as it would in a steadily running
        # deployment.
        engine = SimulationEngine()
        engine.schedule_periodic(
            1800.0,
            lambda e: namenode.run_replication(e.now),
            name="top-up",
            until=6 * 1800.0,
        )
        engine.run_until(6 * 1800.0)

        failed = 0
        total = 0
        if block_ids:
            # One scalar draw pair per access (so a fixed seed samples the
            # same accesses the legacy loop did), evaluated as one batch of
            # numpy mask reductions over the trace matrix.
            times = np.empty(accesses_per_point)
            sampled: List[str] = []
            for i in range(accesses_per_point):
                times[i] = rng.uniform(0.0, duration)
                sampled.append(rng.choice(block_ids))
            codes = namenode.check_accesses(sampled, times)
            total = int(len(codes))
            failed = int(
                (codes == NameNode.ACCESS_CODES.index(AccessResult.UNAVAILABLE)).sum()
            )
        return AvailabilityPoint(
            variant=variant,
            replication=replication,
            target_utilization=target,
            accesses=total,
            failed_accesses=failed,
        )


# ---------------------------------------------------------------------------
# Figures 13 and 14: datacenter-scale scheduling
# ---------------------------------------------------------------------------


#: Hot-path cache counters ticked by the RM/AM fast paths; snapshot into the
#: run payload so ``--json`` output can surface them without touching the
#: fingerprinted result document.
_SCHEDULER_COUNTER_NAMES = ("waves_coalesced", "frontier_cache_hits")


def _scheduler_counters(cluster: HarvestingCluster) -> Dict[str, int]:
    """Snapshot the hot-path cache counters from one cluster's registry."""
    return {
        name: cluster.metrics.counter_value(name)
        for name in _SCHEDULER_COUNTER_NAMES
    }


@_register
class SchedulingSweepRunner(ScenarioRunner):
    """Figure 13: YARN-PT vs YARN-H across the utilization spectrum.

    Cell grid: one cell per (scaling method, target utilization) point; both
    scheduler variants run inside the cell because they share the point's
    forked stream (PT first, then H, exactly as the serial loop ran them).
    """

    kind = "scheduling_sweep"
    SHARED_FORK_LABELS = ("fleet",)

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        datacenter = self.build_fleet()
        trimmed = trimmed_tenants(
            datacenter, spec.max_tenants, spec.servers_per_tenant_limit
        )
        per_point: Dict[Tuple[str, float], List[PrimaryTenant]] = {}
        for scaling in spec.scalings:
            for target in spec.utilization_levels:
                per_point[(scaling.value, target)] = scaled_tenants(
                    trimmed, target, scaling
                )
        return {"per_point": per_point}

    @classmethod
    def _grid_cells(
        cls, spec: ScenarioSpec, fork_seed: Any, skip_point: Any = None
    ) -> List[Cell]:
        cells: List[Cell] = []
        for scaling in spec.scalings:
            for target in spec.utilization_levels:
                if skip_point is not None and skip_point(scaling, target):
                    # The serial loop `continue`d before forking; skipping
                    # without a fork keeps every later seed identical.
                    continue
                cells.append(
                    Cell(
                        index=len(cells),
                        key=f"{scaling.value}-u{target}",
                        seeds=(fork_seed(f"{scaling.value}-{target}"),),
                        coords={"scaling": scaling, "target_utilization": target},
                    )
                )
        return cells

    def _enumerate_cells(self) -> List[Cell]:
        per_point = self._ctx["per_point"]
        return self._grid_cells(
            self.spec,
            self.fork_seed,
            skip_point=lambda scaling, target: not per_point[(scaling.value, target)],
        )

    @classmethod
    def _spec_cells(cls, spec: ScenarioSpec, forks: ForkSequence) -> List[Cell]:
        # A sweep point is empty exactly when no traced tenant survives
        # trimming.  The fleet builders always attach traces, so that only
        # happens when the tenant budget itself is zero — in which case the
        # full path skips *every* point (without forking), and so does this.
        if spec.max_tenants is not None and spec.max_tenants <= 0:
            return []
        return cls._grid_cells(spec, forks.fork_seed)

    def run_cell(self, cell: Cell) -> SchedulingSweepPoint:
        ctx = self.ctx
        scaling: ScalingMethod = cell.coord("scaling")
        target = cell.coord("target_utilization")
        tenants = ctx["per_point"][(scaling.value, target)]
        point_rng = RandomSource(cell.seeds[0])
        pt = self._run_variant(SchedulerMode.PRIMARY_AWARE, tenants, point_rng)
        h = self._run_variant(SchedulerMode.HISTORY, tenants, point_rng)
        return SchedulingSweepPoint(
            target_utilization=target,
            scaling=scaling,
            yarn_pt_seconds=pt.average_job_execution_seconds(),
            yarn_h_seconds=h.average_job_execution_seconds(),
            yarn_pt_tasks_killed=pt.total_tasks_killed(),
            yarn_h_tasks_killed=h.total_tasks_killed(),
            jobs_completed_pt=pt.completed_job_count(),
            jobs_completed_h=h.completed_job_count(),
            scheduler_counters={
                "yarn_pt": _scheduler_counters(pt),
                "yarn_h": _scheduler_counters(h),
            },
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[SchedulingSweepPoint]
    ) -> SchedulingSweepResult:
        spec = self.spec
        result = SchedulingSweepResult(spec.datacenter)
        for point in partials:
            result.points.append(point)
            prefix = (
                f"sweep.{spec.datacenter}.{point.scaling.value}"
                f".u{point.target_utilization}"
            )
            self.metrics.distribution(f"{prefix}.yarn_pt_seconds").add(
                point.yarn_pt_seconds
            )
            self.metrics.distribution(f"{prefix}.yarn_h_seconds").add(
                point.yarn_h_seconds
            )
            self.metrics.distribution(f"{prefix}.improvement").add(point.improvement)
            for variant, counters in point.scheduler_counters.items():
                for name, value in counters.items():
                    self.metrics.counter(
                        f"scheduler.{prefix}.{variant}.{name}"
                    ).increment(value)
        return result

    def _run_variant(
        self,
        mode: SchedulerMode,
        tenants: Sequence[PrimaryTenant],
        rng: RandomSource,
    ) -> HarvestingCluster:
        """Run one scheduler variant over the scaled tenants."""
        duration = self.spec.scale.simulation_days * 24 * 3600.0
        factory = TpcdsWorkloadFactory(
            rng.fork("tpcds"),
            duration_scale=SIMULATION_DURATION_SCALE,
            width_scale=0.05,
        )
        thresholds = thresholds_from_history(factory.duration_distribution())
        cluster = HarvestingCluster(
            tenants,
            config=ClusterConfig(
                mode=mode,
                heartbeat_seconds=30.0,
                pump_seconds=120.0,
                thresholds=thresholds,
            ),
            rng=rng.fork(f"cluster-{mode.value}"),
        )
        generator = WorkloadGenerator(
            factory,
            SIMULATION_INTERARRIVAL_SECONDS,
            rng.fork(f"workload-{mode.value}"),
        )
        cluster.submit_arrivals(generator.arrivals(duration * 0.8))
        cluster.run(duration)
        return cluster


@_register
class FleetImprovementRunner(ScenarioRunner):
    """Figure 14: run the sweep scenario for every datacenter and summarize.

    Cell grid: the concatenation of each datacenter's sweep grid, so the
    fleet summary parallelizes across (datacenter x sweep point) — the
    widest grid any built-in scenario exposes.
    """

    kind = "fleet_improvement"
    #: The runner stream forks nothing shared: each datacenter sweep runs
    #: from a fresh ``RandomSource(seed)``, so the spec-only path just
    #: delegates to the sweep runner's per datacenter.
    SHARED_FORK_LABELS = ()

    @staticmethod
    def _datacenter_names(spec: ScenarioSpec) -> List[str]:
        names = spec.param("datacenters")
        if names is None:
            from repro.traces.fleet import fleet_specs

            names = [dc.name for dc in fleet_specs()]
        return list(names)

    @staticmethod
    def _sweep_spec(spec: ScenarioSpec, name: str) -> ScenarioSpec:
        return spec.with_overrides(
            name=f"{spec.name}[{name}]",
            kind="scheduling_sweep",
            datacenter=name,
        )

    @classmethod
    def _spec_cells(cls, spec: ScenarioSpec, forks: ForkSequence) -> List[Cell]:
        cells: List[Cell] = []
        for name in cls._datacenter_names(spec):
            sub_cells = SchedulingSweepRunner.cells_from_spec(
                cls._sweep_spec(spec, name), forks.seed
            )
            for sub_cell in sub_cells or []:
                cells.append(
                    Cell(
                        index=len(cells),
                        key=f"{name}/{sub_cell.key}",
                        seeds=sub_cell.seeds,
                        coords={**sub_cell.coords, "datacenter": name},
                    )
                )
        return cells

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        names = self._datacenter_names(spec)
        subs: List[Tuple[str, SchedulingSweepRunner, List[Cell]]] = []
        flat: List[Tuple[SchedulingSweepRunner, Cell]] = []
        for name in names:
            sweep_spec = self._sweep_spec(spec, name)
            # Each datacenter sweep runs from a fresh stream derived from the
            # run's effective seed (self.rng.seed carries any run-time
            # override), so per-datacenter results are independent of the
            # fleet iteration order.
            runner = SchedulingSweepRunner(
                sweep_spec, RandomSource(self.rng.seed), self.metrics
            )
            sub_cells = runner.cells()
            subs.append((name, runner, sub_cells))
            flat.extend((runner, sub_cell) for sub_cell in sub_cells)
        return {"names": list(names), "subs": subs, "flat": flat}

    def _enumerate_cells(self) -> List[Cell]:
        cells: List[Cell] = []
        for name, _, sub_cells in self._ctx["subs"]:
            for sub_cell in sub_cells:
                cells.append(
                    Cell(
                        index=len(cells),
                        key=f"{name}/{sub_cell.key}",
                        seeds=sub_cell.seeds,
                        coords={**sub_cell.coords, "datacenter": name},
                    )
                )
        return cells

    def run_cell(self, cell: Cell) -> SchedulingSweepPoint:
        runner, sub_cell = self.ctx["flat"][cell.index]
        return runner.run_cell(sub_cell)

    def _after_restore(self) -> None:
        # The snapshotted sub-runners carry a pickled copy of the original
        # registry; point them at this run's registry so the merge writes
        # its metrics where the harness reads them.
        assert self._ctx is not None
        for _, runner, _ in self._ctx["subs"]:
            runner.metrics = self.metrics

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[SchedulingSweepPoint]
    ) -> FleetImprovementResult:
        result = FleetImprovementResult()
        offset = 0
        for name, runner, sub_cells in self.ctx["subs"]:
            count = len(sub_cells)
            result.sweeps[name] = runner.merge(
                sub_cells, partials[offset : offset + count]
            )
            offset += count
        return result


# ---------------------------------------------------------------------------
# Figures 10 and 11: the scheduling testbed
# ---------------------------------------------------------------------------

_SCHEDULING_VARIANT_MODES = {
    "YARN-Stock": SchedulerMode.STOCK,
    "YARN-PT": SchedulerMode.PRIMARY_AWARE,
    "YARN-H": SchedulerMode.HISTORY,
}

#: Marks the testbed runners' No-Harvesting baseline cell.
BASELINE = "no-harvesting"


def _run_scheduling_variant(
    name: str,
    mode: SchedulerMode,
    tenants: Sequence[PrimaryTenant],
    arrivals: Sequence[Any],
    duration: float,
    cluster_seed: int,
    latency_seed: int,
    before_run: Optional[Callable[[HarvestingCluster], None]] = None,
) -> VariantSchedulingResult:
    """Run one scheduler variant over an arrival schedule on the testbed.

    Shared by every testbed-style runner: the caller materializes the jobs
    (from its TPC-DS and workload streams, or from an op plan), so the
    variant itself consumes only its cluster and latency streams.  The
    primary p99 is the per-minute fleet-mean sample stream a
    :class:`~repro.harness.streaming.MinuteLatencyRecorder` folds from the
    heartbeat rows in one terminal pass.  ``before_run`` hooks controllers
    onto the cluster's engine before the clock starts.
    """
    cluster = HarvestingCluster(
        tenants, config=ClusterConfig(mode=mode), rng=RandomSource(cluster_seed)
    )
    recorder = MinuteLatencyRecorder(
        latency_rng=RandomSource(latency_seed),
        reserve_fraction=cluster.config.reserve_cpu_fraction,
    )
    cluster.set_series_recorder(recorder)
    cluster.submit_arrivals(arrivals)
    if before_run is not None:
        before_run(cluster)
    cluster.run(duration)

    latencies = [sample for _, sample in recorder.fold()]
    return VariantSchedulingResult(
        variant=name,
        average_p99_ms=float(np.mean(latencies)) if latencies else 0.0,
        max_p99_ms=float(np.max(latencies)) if latencies else 0.0,
        average_job_seconds=cluster.average_job_execution_seconds(),
        jobs_completed=cluster.completed_job_count(),
        tasks_killed=cluster.total_tasks_killed(),
        average_cpu_utilization=cluster.metrics.time_series(
            "total_utilization"
        ).mean(),
        latency_samples=latencies,
        job_execution_seconds=[r.execution_seconds for r in cluster.results],
        scheduler_counters=_scheduler_counters(cluster),
    )


@_register
class SchedulingTestbedRunner(ScenarioRunner):
    """Figures 10/11: No-Harvesting baseline plus the three YARN variants.

    Cell grid: the baseline latency evaluation, then one cell per YARN
    variant (each carrying the four child seeds its serial forks resolved
    to: cluster, workload factory, arrival stream, latency model).
    """

    kind = "scheduling_testbed"
    SHARED_FORK_LABELS = ("testbed-dc9",)

    def _prepare(self) -> Dict[str, Any]:
        return {"tenants": build_testbed_tenants(self.spec.scale, self.rng)}

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells = [
            Cell(
                index=0,
                key=BASELINE,
                seeds=(fork_seed("latency-baseline"),),
                coords={"variant": BASELINE},
            )
        ]
        for name in spec.variants:
            cells.append(
                Cell(
                    index=len(cells),
                    key=name,
                    seeds=(
                        fork_seed(f"cluster-{name}"),
                        fork_seed("tpcds"),
                        fork_seed(f"workload-{name}"),
                        fork_seed(f"latency-{name}"),
                    ),
                    coords={"variant": name},
                )
            )
        return cells

    def _enumerate_cells(self) -> List[Cell]:
        return self._grid_cells(self.spec, self.fork_seed)

    def run_cell(self, cell: Cell):
        tenants = self.ctx["tenants"]
        name = cell.coord("variant")
        duration = self.spec.scale.experiment_hours * 3600.0
        if name == BASELINE:
            return _baseline_p99(tenants, duration, RandomSource(cell.seeds[0]))
        cluster_seed, tpcds_seed, workload_seed, latency_seed = cell.seeds
        factory = TpcdsWorkloadFactory(
            RandomSource(tpcds_seed), duration_scale=1.0, width_scale=0.35
        )
        generator = WorkloadGenerator(
            factory,
            self.spec.scale.mean_interarrival_seconds,
            RandomSource(workload_seed),
        )
        return _run_scheduling_variant(
            name,
            _SCHEDULING_VARIANT_MODES[name],
            tenants,
            generator.arrivals(duration * 0.8),
            duration,
            cluster_seed,
            latency_seed,
        )

    def merge(self, cells: Sequence[Cell], partials: Sequence[Any]):
        baseline_p99 = float(partials[0])
        self.metrics.distribution("testbed.no_harvesting.p99_ms").add(baseline_p99)
        variants: Dict[str, VariantSchedulingResult] = {}
        for outcome in partials[1:]:
            variants[outcome.variant] = outcome
            self.metrics.distribution(f"testbed.{outcome.variant}.p99_ms").add(
                outcome.average_p99_ms
            )
            self.metrics.counter(f"testbed.{outcome.variant}.tasks_killed").increment(
                outcome.tasks_killed
            )
            for name, value in outcome.scheduler_counters.items():
                self.metrics.counter(
                    f"scheduler.testbed.{outcome.variant}.{name}"
                ).increment(value)
        return SchedulingTestbedResult(
            no_harvesting_p99_ms=baseline_p99, variants=variants
        )

# ---------------------------------------------------------------------------
# Figure 12: the storage testbed
# ---------------------------------------------------------------------------


@_register
class StorageTestbedRunner(ScenarioRunner):
    """Figure 12: HDFS variants under a constant access stream.

    Blocks are created throughout the experiment and read back at a constant
    rate; primary p99 latency is sampled per minute with the extra I/O
    contention each variant imposes on busy servers.  The primary traces are
    scaled towards the target utilization so that busy periods (utilization
    above the two-thirds access threshold) actually occur within the scaled-
    down experiment, as they do in the paper's production-derived traces.

    Cell grid: the baseline latency evaluation, then one cell per HDFS
    variant.
    """

    kind = "storage_testbed"
    SHARED_FORK_LABELS = ("testbed-dc9",)

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        accesses_per_minute = int(spec.param("accesses_per_minute", 60))
        utilization_target = float(spec.param("utilization_target", 0.5))
        if accesses_per_minute <= 0:
            raise ValueError("accesses_per_minute must be positive")
        if not 0.0 < utilization_target < 1.0:
            raise ValueError("utilization_target must be in (0, 1)")

        tenants = build_testbed_tenants(spec.scale, self.rng)
        factor = fleet_scaling_factor(
            [t.trace for t in tenants if t.trace is not None],
            utilization_target,
            ScalingMethod.LINEAR,
            weights=[
                float(max(1, t.num_servers)) for t in tenants if t.trace is not None
            ],
        )
        tenants = [
            copy_tenant(
                t,
                trace=scale_trace(t.trace, factor, ScalingMethod.LINEAR)
                if t.trace is not None
                else None,
            )
            for t in tenants
        ]
        skew = spec.param("skew", None)
        return {
            "tenants": tenants,
            "duration": spec.scale.experiment_hours * 3600.0,
            "accesses_per_minute": accesses_per_minute,
            # Access-skew sampler from the workload substrate; ``None``
            # keeps the historical uniform access stream bit for bit.
            "skew": parse_skew(str(skew)) if skew else None,
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells = [
            Cell(
                index=0,
                key=BASELINE,
                seeds=(fork_seed("latency-baseline"),),
                coords={"variant": BASELINE},
            )
        ]
        for variant in spec.variants:
            cells.append(
                Cell(
                    index=len(cells),
                    key=variant,
                    seeds=(fork_seed(variant),),
                    coords={"variant": variant},
                )
            )
        return cells

    def _enumerate_cells(self) -> List[Cell]:
        return self._grid_cells(self.spec, self.fork_seed)

    def run_cell(self, cell: Cell):
        ctx = self.ctx
        if cell.coord("variant") == BASELINE:
            return _baseline_p99(
                ctx["tenants"], ctx["duration"], RandomSource(cell.seeds[0])
            )
        return self._run_variant(
            cell.coord("variant"),
            ctx["tenants"],
            ctx["duration"],
            ctx["accesses_per_minute"],
            RandomSource(cell.seeds[0]),
            ctx["skew"],
        )

    def merge(self, cells: Sequence[Cell], partials: Sequence[Any]):
        baseline_p99 = float(partials[0])
        self.metrics.distribution("storage_testbed.no_harvesting.p99_ms").add(
            baseline_p99
        )
        results: Dict[str, VariantStorageResult] = {}
        for outcome in partials[1:]:
            results[outcome.variant] = outcome
            self.metrics.distribution(
                f"storage_testbed.{outcome.variant}.p99_ms"
            ).add(outcome.average_p99_ms)
            self.metrics.counter(f"storage_testbed.{outcome.variant}.failed").increment(
                outcome.failed_accesses
            )
        return StorageTestbedResult(
            no_harvesting_p99_ms=baseline_p99, variants=results
        )

    def _run_variant(
        self,
        variant: str,
        tenants: Sequence[PrimaryTenant],
        duration: float,
        accesses_per_minute: int,
        variant_rng: RandomSource,
        skew=None,
    ) -> VariantStorageResult:
        trace_matrix = TraceMatrix(tenants)
        namenode = build_namenode(
            variant, tenants, 3, variant_rng, trace_matrix=trace_matrix
        )
        model = LatencyModel(rng=variant_rng.fork("latency"))
        all_servers = [s for t in tenants for s in t.servers]
        tenant_rows = np.repeat(
            np.arange(trace_matrix.num_tenants), [t.num_servers for t in tenants]
        )

        counts = {"failed": 0, "served": 0, "created": 0}
        latencies: List[float] = []

        def minute_step(engine: SimulationEngine) -> None:
            minute = engine.now
            creator = variant_rng.choice(all_servers).server_id
            created = namenode.create_block(minute, creating_server_id=creator)
            if created.block is not None:
                counts["created"] += 1
            # Background re-replication restores replicas that could not be
            # placed while their candidate servers were busy.
            namenode.run_replication(minute)

            # The whole minute's accesses as one effectful batch over the
            # block table: counters plus the per-server io-load scatter.
            # The NameNode's server columns follow the same tenant-major
            # order as ``all_servers``, so the io vector feeds the latency
            # matrix directly.
            batch = namenode.access_blocks(
                minute, accesses_per_minute, variant_rng, sampler=skew
            )
            counts["served"] += batch.served
            counts["failed"] += batch.failed

            per_server = model.p99_latency_ms_array(
                trace_matrix.utilization_at(minute)[tenant_rows],
                0.0,
                secondary_io_fraction=np.minimum(1.0, batch.io_load),
            )
            latencies.append(float(np.mean(per_server)))

        engine = SimulationEngine()
        for minute in np.arange(60.0, duration, 60.0):
            engine.schedule_at(float(minute), minute_step, name="storage-minute")
        engine.run_until(duration)

        return VariantStorageResult(
            variant=variant,
            average_p99_ms=float(np.mean(latencies)) if latencies else 0.0,
            max_p99_ms=float(np.max(latencies)) if latencies else 0.0,
            failed_accesses=counts["failed"],
            served_accesses=counts["served"],
            blocks_created=counts["created"],
        )


# The workload-substrate kinds register themselves on import; importing at
# the bottom lets their module reuse this one's base class and helpers
# without a cycle.
from repro.harness import workload_runners as _workload_runners  # noqa: E402,F401

"""Per-kind scenario runners behind :class:`repro.harness.ExperimentHarness`.

Each runner executes one scenario kind over the shared pipeline: build the
datacenter once, trim the tenants (cells scale them), fork a seeded random
stream per policy variant, drive every time-stepped piece through
:class:`~repro.simulation.engine.SimulationEngine`, and return the kind's
result dataclass — the run's only record of what it measured.

Since the ``repro.api`` redesign every runner declares its work as a **cell
grid** (:meth:`ScenarioRunner.cells`): shared setup runs once, then each
independent grid cell — one (variant, replication) pair, one (utilization,
scaling) sweep point — carries the child seed(s) its forked streams resolved
to and executes through a pure :meth:`ScenarioRunner.run_cell`, with
:meth:`ScenarioRunner.merge` reassembling partial results in deterministic
cell order.  The harness can therefore run cells
serially or across a process pool and produce bit-identical results either
way.

The runners keep the random-stream fork order of the original per-figure
drivers exactly, so a fixed seed yields the same figures it always has.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.cluster.resource_manager import SchedulerMode
from repro.core.job_types import thresholds_from_history
from repro.harness.builders import (
    build_namenode,
    build_testbed_tenants,
    find_datacenter_spec,
    copy_tenant,
    fleet_factor,
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

#: The HDFS variants the storage kinds run.
HDFS_VARIANTS = ("HDFS-Stock", "HDFS-PT", "HDFS-H")

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

    Subclasses implement these hooks:

    * ``_prepare()`` — the shared setup every cell needs (fleet build, trace
      scaling, reimage schedules), consuming the runner's stream in exactly
      the order the serial drivers did;
    * ``_grid_cells(spec, fork_seed)`` — the grid loops, forking one child
      stream per cell (in the serial loop order) and recording the child
      seeds on the cells;
    * ``run_cell(cell)`` — execute one cell *purely*: no access to
      ``self.rng``, randomness only from ``RandomSource(cell.seeds[i])``,
      so a cell computes the same partial result in any process;
    * ``merge(cells, partials)`` — reassemble partial results in cell order
      into the kind's result dataclass, the only record of the run.

    ``run()`` composes them serially; the harness uses the same hooks to
    execute cells on a process pool with bit-identical output.

    A context holds inputs once; derived products are per process, never
    snapshotted.  Whatever a cell can compute from the context without a
    random draw (a scaled tenant set, its server ids, a
    :class:`~repro.traces.matrix.TraceMatrix`) stays out of ``_prepare``'s
    dict: the cell builds it in its own process, through :meth:`derived`
    when the next cells share it.  Every worker then unpickles each trace
    once instead of once per product.  A scalar that is costly to find may
    stay in the context as an input (fig16's per-target scaling factor):
    it ships in bytes.
    """

    kind: ClassVar[str] = ""

    #: The variant names the kind runs.  A spec naming any other fails in
    #: ``cells()`` / ``cells_from_spec()``, before any context is built.
    VARIANTS: ClassVar[Tuple[str, ...]] = ()

    #: Fork labels ``_prepare`` consumes off the runner stream, in order.
    #: Child-seed derivation is pure arithmetic, so replaying these labels
    #: through a :class:`ForkSequence` positions the fork index exactly
    #: where ``_enumerate_cells`` starts — the spec-only enumeration path.
    SHARED_FORK_LABELS: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, spec: ScenarioSpec, rng: RandomSource) -> None:
        self.spec = spec
        self.rng = rng
        self._ctx: Optional[Dict[str, Any]] = None
        self._cells: Optional[List[Cell]] = None
        self._derived: Optional[Tuple[Any, Any]] = None

    def __getstate__(self) -> Dict[str, Any]:
        # A runner is pickled only inside a context, as a sub-runner (fig14);
        # its derived product is rebuilt wherever it is needed next.
        state = self.__dict__.copy()
        state["_derived"] = None
        return state

    # -- cell protocol ------------------------------------------------------

    def cells(self) -> List[Cell]:
        """The scenario's cell grid (shared setup runs on first call)."""
        if self._cells is None:
            self.check_spec(self.spec)
            self._ctx = self._prepare()
            self._cells = self._enumerate_cells()
        return self._cells

    @property
    def ctx(self) -> Dict[str, Any]:
        """Shared context built by ``_prepare`` (forces ``cells()``)."""
        self.cells()
        assert self._ctx is not None
        return self._ctx

    @classmethod
    def check_spec(cls, spec: ScenarioSpec) -> None:
        """Reject a spec the kind cannot run (raises ``ValueError``)."""
        unknown = [name for name in spec.variants if name not in cls.VARIANTS]
        if unknown:
            raise ValueError(
                f"unknown {cls.kind} variant(s) {', '.join(map(repr, unknown))}; "
                f"expected {', '.join(cls.VARIANTS) or 'none'}"
            )

    def _prepare(self) -> Dict[str, Any]:
        """Build the state every cell shares; consumes shared stream forks."""
        raise NotImplementedError

    def _enumerate_cells(self) -> List[Cell]:
        """Enumerate the grid, forking one child stream per cell."""
        return self._grid_cells(self.spec, self.fork_seed)

    def run_cell(self, cell: Cell) -> Any:
        """Execute one cell purely; returns a picklable partial result."""
        raise NotImplementedError

    def merge(self, cells: Sequence[Cell], partials: Sequence[Any]) -> Any:
        """Assemble partial results (in cell order) into the kind result."""
        raise NotImplementedError

    def run(self) -> Any:
        """Execute the scenario serially and return its result dataclass."""
        cells = self.cells()
        return self.merge(cells, [self.run_cell(cell) for cell in cells])

    # -- spec-only enumeration ----------------------------------------------

    @classmethod
    def cells_from_spec(cls, spec: ScenarioSpec, seed: int) -> List[Cell]:
        """The kind's cell grid derived from the spec alone — no build.

        Replays the fork labels ``_prepare`` consumes (they draw nothing —
        seeds are arithmetic), then runs the same grid loops
        ``_enumerate_cells`` runs, so the returned cells are identical —
        index, key, seeds, coords — to what a fully prepared runner
        enumerates, at zero fleet-build cost.
        """
        cls.check_spec(spec)
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

    def derived(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``'s product for ``key``, memoized in this process.

        Only the most recent key is held: the grids run the cells of one
        key (one utilization target, one trace matrix) back to back, so one
        slot builds each product once per process in grid order, and any
        other order merely rebuilds it.  ``build`` must not draw from a stream:
        a product built twice has to be the same product.  The slot lets go
        of the previous product before ``build`` runs, so the two are never
        held at once.
        """
        if self._derived is None or self._derived[0] != key:
            self._derived = None
            self._derived = (key, build())
        return self._derived[1]

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


def _replay_reimages(
    namenode: NameNode,
    rng: RandomSource,
    server_ids: Sequence[str],
    num_blocks: int,
    reimages: Iterable[Tuple[float, str]],
    duration: float,
    *,
    event_name: str,
) -> Tuple[int, int]:
    """Create blocks, then replay a reimage schedule against re-replication.

    The durability and failure-storm cells share this: one batched creator
    draw off ``rng`` (stream-identical to per-block ``rng.choice``) feeds
    the NameNode's batched creation path, then every ``(time, server_id)``
    reimage up to ``duration`` (the schedule is time-ordered) fires at
    :data:`REIMAGE_PRIORITY`, ahead of the periodic re-replication round at
    the same instant.  Returns ``(blocks created, reimages replayed)``;
    losses are read off ``namenode``.
    """
    creators = [
        server_ids[int(i)]
        for i in rng.generator.integers(0, len(server_ids), size=num_blocks)
    ]
    created = sum(1 for block_id in namenode.create_blocks(0.0, creators) if block_id)

    engine = SimulationEngine()
    replayed = 0
    for time, server_id in reimages:
        if time > duration:
            break
        replayed += 1
        engine.schedule_at(
            time,
            lambda e, server_id=server_id: namenode.handle_reimage(server_id, e.now),
            priority=REIMAGE_PRIORITY,
            name=event_name,
        )
    engine.schedule_periodic(
        REPLICATION_PERIOD_SECONDS,
        lambda e: namenode.run_replication(e.now),
        priority=REPLICATION_PRIORITY,
        name="re-replication",
        until=duration,
    )
    engine.run_until(duration)
    return created, replayed


@_register
class DurabilityRunner(ScenarioRunner):
    """Figure 15: replay a reimage history against each HDFS variant.

    Cell grid: one cell per (replication level, variant) pair, in the serial
    loop's nesting order.
    """

    kind = "durability"
    VARIANTS = HDFS_VARIANTS
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
        return {"tenants": tenants, "reimages": reimages, "duration": duration}

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

    def run_cell(self, cell: Cell) -> VariantDurabilityResult:
        ctx = self.ctx
        variant = cell.coord("variant")
        replication = cell.coord("replication")
        tenants = ctx["tenants"]
        rng = RandomSource(cell.seeds[0])
        namenode = build_namenode(
            variant,
            tenants,
            replication,
            rng,
            # The matrix becomes the one copy of the context's traces.
            trace_matrix=self.derived(
                "matrix", lambda: TraceMatrix.take_over(tenants)
            ),
        )
        created, replayed = _replay_reimages(
            namenode,
            rng,
            [s.server_id for t in tenants for s in t.servers],
            self.spec.scale.num_blocks,
            ((event.time, event.server_id) for event in ctx["reimages"]),
            ctx["duration"],
            event_name="reimage",
        )
        return VariantDurabilityResult(
            variant=variant,
            replication=replication,
            blocks_created=created,
            blocks_lost=namenode.lost_block_count(),
            reimage_events=replayed,
        )

    def merge(
        self,
        cells: Sequence[Cell],
        partials: Sequence[VariantDurabilityResult],
    ) -> DurabilityResult:
        return DurabilityResult(
            self.spec.datacenter,
            results={(o.variant, o.replication): o for o in partials},
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
    VARIANTS = HDFS_VARIANTS
    SHARED_FORK_LABELS = ("fleet",)

    @classmethod
    def check_spec(cls, spec: ScenarioSpec) -> None:
        super().check_spec(spec)
        if len(spec.scalings) != 1:
            # AvailabilityResult reports one scaling method per run; sweep
            # both by registering one scenario per method.
            raise ValueError(
                "availability scenarios take exactly one scaling method "
                f"(got {len(spec.scalings)})"
            )

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        accesses_per_point = int(spec.param("accesses_per_point", 2000))
        if accesses_per_point <= 0:
            raise ValueError("accesses_per_point must be positive")
        scaling = spec.scalings[0]
        datacenter = self.build_fleet()
        trimmed = trimmed_tenants(
            datacenter, spec.max_tenants, spec.servers_per_tenant_limit
        )
        return {
            "scaling": scaling,
            "trimmed": trimmed,
            # One float per target.  Finding it is a bisection over every
            # trace, as long as a short cell's own work at tiny scale, so it
            # runs once here instead of in every process that scales a set.
            "factors": {
                target: fleet_factor(trimmed, target, scaling)
                for target in spec.utilization_levels
            },
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

    def run_cell(self, cell: Cell) -> AvailabilityPoint:
        ctx = self.ctx
        target = cell.coord("target_utilization")
        tenants, all_servers, matrix = self.derived(
            target, lambda: self._scaled_point(target)
        )
        return self._run_point(
            cell.coord("variant"),
            cell.coord("replication"),
            target,
            tenants,
            all_servers,
            matrix,
            ctx["num_blocks"],
            ctx["accesses_per_point"],
            ctx["duration"],
            RandomSource(cell.seeds[0]),
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[AvailabilityPoint]
    ) -> AvailabilityResult:
        return AvailabilityResult(
            self.spec.datacenter, self.ctx["scaling"], points=list(partials)
        )

    def _scaled_point(
        self, target: float
    ) -> Tuple[List[PrimaryTenant], List[str], Optional[TraceMatrix]]:
        """One target's scaled tenants, their server ids and trace matrix.

        Trace scaling draws nothing from the stream, so building these in
        the cell leaves the fork sequence unchanged.
        """
        ctx = self.ctx
        tenants, matrix = scaled_tenants(
            ctx["trimmed"], target, ctx["scaling"], ctx["factors"][target]
        )
        return tenants, [s.server_id for t in tenants for s in t.servers], matrix

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
            # One (time, block) draw pair per access, stream-identical to the
            # legacy scalar loop, evaluated as one batch of numpy mask
            # reductions over the trace matrix.
            times, picks = rng.uniform_index_pairs(
                0.0, duration, len(block_ids), accesses_per_point
            )
            sampled = [block_ids[i] for i in picks.tolist()]
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


def _scheduler_counters(cluster: HarvestingCluster) -> Dict[str, int]:
    """Snapshot the RM's hot-path counter of one cluster.

    The result carries it as telemetry, which ``--json`` output lists
    outside the fingerprinted result document.
    """
    return {
        "waves_coalesced": cluster.resource_manager.waves_coalesced,
    }


class _SweepVariant(NamedTuple):
    """What a sweep point reports of one finished scheduler variant."""

    seconds: float
    tasks_killed: int
    jobs_completed: int
    counters: Dict[str, int]


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
        return {
            "trimmed": trimmed_tenants(
                datacenter, spec.max_tenants, spec.servers_per_tenant_limit
            )
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for scaling in spec.scalings:
            for target in spec.utilization_levels:
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
        # A point is empty exactly when no tenant in ``trimmed`` is traced
        # (``scaled_tenants`` returns ``([], None)``), so either every point
        # is empty or none is.  The serial loop skipped empty points before
        # forking.
        if not any(t.trace is not None for t in self._ctx["trimmed"]):
            return []
        return super()._enumerate_cells()

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
        # One cell per sweep point: the scaled set is never reused, so it is
        # built here rather than memoized.  Both variants read its matrix.
        tenants, matrix = scaled_tenants(ctx["trimmed"], target, scaling)
        point_rng = RandomSource(cell.seeds[0])
        pt = self._run_variant(
            SchedulerMode.PRIMARY_AWARE, tenants, matrix, point_rng
        )
        h = self._run_variant(SchedulerMode.HISTORY, tenants, matrix, point_rng)
        return SchedulingSweepPoint(
            target_utilization=target,
            scaling=scaling,
            yarn_pt_seconds=pt.seconds,
            yarn_h_seconds=h.seconds,
            yarn_pt_tasks_killed=pt.tasks_killed,
            yarn_h_tasks_killed=h.tasks_killed,
            jobs_completed_pt=pt.jobs_completed,
            jobs_completed_h=h.jobs_completed,
            scheduler_counters={
                "yarn_pt": pt.counters,
                "yarn_h": h.counters,
            },
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[SchedulingSweepPoint]
    ) -> SchedulingSweepResult:
        return SchedulingSweepResult(self.spec.datacenter, points=list(partials))

    def _run_variant(
        self,
        mode: SchedulerMode,
        tenants: Sequence[PrimaryTenant],
        matrix: TraceMatrix,
        rng: RandomSource,
    ) -> _SweepVariant:
        """Run one scheduler variant over the scaled tenants; its numbers.

        Only the numbers leave: the cluster is freed before the next
        variant's is built.
        """
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
            trace_matrix=matrix,
        )
        generator = WorkloadGenerator(
            factory,
            SIMULATION_INTERARRIVAL_SECONDS,
            rng.fork(f"workload-{mode.value}"),
        )
        cluster.submit_arrivals(generator.arrivals(duration * 0.8))
        cluster.run(duration)
        return _SweepVariant(
            cluster.average_job_execution_seconds(),
            cluster.total_tasks_killed(),
            cluster.completed_job_count(),
            _scheduler_counters(cluster),
        )


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
            runner = SchedulingSweepRunner(sweep_spec, RandomSource(self.rng.seed))
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


def _baseline_cell(fork_seed: Any) -> Cell:
    """The testbed grids' first cell: the No-Harvesting baseline."""
    return Cell(
        index=0,
        key=BASELINE,
        seeds=(fork_seed("latency-baseline"),),
        coords={"variant": BASELINE},
    )


def _baseline_p99_of(
    cell: Cell, tenants: Sequence[PrimaryTenant], duration: float
) -> float:
    """Run the baseline cell of a testbed grid: its No-Harvesting p99."""
    return _baseline_p99(tenants, duration, RandomSource(cell.seeds[0]))


def _split_baseline(partials: Sequence[Any]) -> Tuple[float, Dict[str, Any]]:
    """A baseline-first grid's partials: (baseline p99, variants by name)."""
    return float(partials[0]), {outcome.variant: outcome for outcome in partials[1:]}


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
        average_cpu_utilization=cluster.average_utilization(),
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
    VARIANTS = tuple(_SCHEDULING_VARIANT_MODES)
    SHARED_FORK_LABELS = ("testbed-dc9",)

    def _prepare(self) -> Dict[str, Any]:
        return {"tenants": build_testbed_tenants(self.spec.scale, self.rng)}

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells = [_baseline_cell(fork_seed)]
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

    def run_cell(self, cell: Cell):
        tenants = self.ctx["tenants"]
        name = cell.coord("variant")
        duration = self.spec.scale.experiment_hours * 3600.0
        if name == BASELINE:
            return _baseline_p99_of(cell, tenants, duration)
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
        baseline_p99, variants = _split_baseline(partials)
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
    VARIANTS = HDFS_VARIANTS
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
        cells = [_baseline_cell(fork_seed)]
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

    def run_cell(self, cell: Cell):
        ctx = self.ctx
        if cell.coord("variant") == BASELINE:
            return _baseline_p99_of(cell, ctx["tenants"], ctx["duration"])
        return self._run_variant(
            cell.coord("variant"),
            ctx["tenants"],
            ctx["duration"],
            ctx["accesses_per_minute"],
            RandomSource(cell.seeds[0]),
            ctx["skew"],
        )

    def merge(self, cells: Sequence[Cell], partials: Sequence[Any]):
        baseline_p99, variants = _split_baseline(partials)
        return StorageTestbedResult(
            no_harvesting_p99_ms=baseline_p99, variants=variants
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
            if namenode.create_blocks(minute, [creator])[0] is not None:
                counts["created"] += 1
            # Background re-replication restores replicas that could not be
            # placed while their candidate servers were busy.
            namenode.run_replication(minute)

            # The whole minute's accesses as one batch over the block
            # table: served/failed counts plus the per-server io load.
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

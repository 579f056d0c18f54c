"""Scenario runners driven by the workload substrate (``repro.workload``).

Four scenario kinds the paper never ran, all built on the same op-plan
interface: the shared setup materializes a plan — synthetic (seeded
generators off one ``workload-plan`` fork) or replayed from a recorded
trace — and every cell consumes op records, never generator state.  The
``workload-plan`` fork is consumed unconditionally, so synthetic and
replay runs walk identical fork sequences and a recorded run replays
bit-identically.

* ``failure_storm`` — correlated reimage bursts vs block durability;
* ``heterogeneous_fleet`` — mixed server-capacity populations (plus
  elastic tenant arrivals) under the scheduling testbed;
* ``antagonist`` — adversarial primary-utilization spikes vs the
  harvest SLOs;
* ``predictor_ablation`` — the history-based harvest predictor against
  an online feedback controller sizing the reserve from recent
  violation counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.cluster.resource_manager import SchedulerMode
from repro.cluster.reserve_controller import (
    FeedbackReserveConfig,
    FeedbackReserveController,
)
from repro.harness.builders import build_namenode, build_testbed_tenants, trimmed_tenants
from repro.harness.cells import Cell
from repro.harness.results import (
    AntagonistPoint,
    AntagonistResult,
    FailureStormResult,
    HeterogeneousFleetResult,
    PredictorAblationResult,
    PredictorVariantResult,
    StormVariantResult,
)
from repro.harness.runners import (
    BASELINE,
    HDFS_VARIANTS,
    _SCHEDULING_VARIANT_MODES,
    ScenarioRunner,
    _baseline_cell,
    _baseline_p99_of,
    _register,
    _replay_reimages,
    _run_scheduling_variant,
    _split_baseline,
)
from repro.harness.spec import ScenarioSpec
from repro.jobs.scheduler_variants import ClusterConfig, HarvestingCluster
from repro.simulation.random import ForkSequence, RandomSource
from repro.traces.matrix import TraceMatrix
from repro.workload.distributions import Exponential, parse_distribution
from repro.workload.spec import WorkloadSpec, workload_from_param
from repro.workload.synthetic import (
    apply_spikes,
    arrival_tenants,
    arrivals_from_ops,
    materialize_plan,
    ops_in_stream,
    plan_job_arrivals,
    plan_server_classes,
    plan_spikes,
    plan_storm_reimages,
    plan_tenant_arrivals,
)
from repro.workload.trace import TraceError


def _plan_forks(runner: ScenarioRunner) -> ForkSequence:
    """The plan's sub-stream seed source (one runner fork, always taken).

    Consuming ``workload-plan`` even on the replay path keeps the runner's
    fork index aligned with :attr:`ScenarioRunner.SHARED_FORK_LABELS`, so
    cell seeds — and therefore results — match between a synthetic run and
    its replay.
    """
    return ForkSequence(runner.fork_seed("workload-plan"))


def _workload(spec: ScenarioSpec) -> WorkloadSpec:
    """The scenario's workload spec (``workload`` param over a scale base).

    The base workload inherits the scale's mean inter-arrival time, so a
    tiny spec generates tiny-many jobs without the ``workload`` param
    having to restate what the scale already says.
    """
    base = WorkloadSpec(
        interarrival=Exponential(float(spec.scale.mean_interarrival_seconds))
    )
    return workload_from_param(spec.param("workload"), base=base)


# ---------------------------------------------------------------------------
# Failure storms: correlated reimage bursts vs durability
# ---------------------------------------------------------------------------


def _rates(
    spec: ScenarioSpec, key: str, default: Tuple[float, ...]
) -> Tuple[float, ...]:
    """A rate grid param; rates name their op streams, so each must be unique."""
    rates = tuple(float(r) for r in spec.param(key, default))
    labels = [f"{rate:g}" for rate in rates]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{key} lists a rate twice: {', '.join(labels)}")
    return rates


def _storm_rates(spec: ScenarioSpec) -> Tuple[float, ...]:
    return _rates(spec, "storm_rates_per_day", (0.5, 2.0))


@_register
class FailureStormRunner(ScenarioRunner):
    """Correlated reimage storms replayed against each HDFS variant.

    Unlike the durability runner's per-tenant reimage profiles, the storm
    schedule is an op plan: recordable, replayable, and dialable in
    intensity.  Cell grid: one cell per (storm rate, variant) pair.
    """

    kind = "failure_storm"
    VARIANTS = HDFS_VARIANTS
    SHARED_FORK_LABELS = ("fleet", "workload-plan")

    @classmethod
    def check_spec(cls, spec: ScenarioSpec) -> None:
        super().check_spec(spec)
        _storm_rates(spec)
        if len(spec.replication_levels) != 1:
            # FailureStormResult reports one replication factor per run.
            raise ValueError(
                "failure_storm scenarios take exactly one replication level "
                f"(got {len(spec.replication_levels)})"
            )

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        datacenter = self.build_fleet()
        tenants = trimmed_tenants(
            datacenter, spec.max_tenants, spec.servers_per_tenant_limit
        )
        server_ids = [s.server_id for t in tenants for s in t.servers]
        duration = spec.scale.durability_days * 24 * 3600.0
        forks = _plan_forks(self)
        fraction = float(spec.param("storm_fraction", 0.05))
        rates = _storm_rates(spec)

        def builder() -> List[Dict[str, object]]:
            ops: List[Dict[str, object]] = []
            for rate in rates:
                ops.extend(
                    plan_storm_reimages(
                        len(server_ids),
                        rate,
                        fraction,
                        spec.scale.durability_days,
                        forks.fork_seed(f"storms-{rate:g}"),
                        stream=f"storm-{rate:g}",
                    )
                )
            return ops

        ops = materialize_plan(spec, self.kind, builder)
        for op in ops:
            # Python indexing would wrap a negative index onto the last
            # servers; a replayed trace with one is malformed.
            if int(op["server_index"]) < 0:
                raise TraceError(f"storm op has a negative server_index: {op}")
        return {
            "tenants": tenants,
            "server_ids": server_ids,
            "duration": duration,
            "ops": ops,
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for rate in _storm_rates(spec):
            for variant in spec.variants:
                cells.append(
                    Cell(
                        index=len(cells),
                        key=f"{variant}-s{rate:g}",
                        seeds=(fork_seed(f"{variant}-storm-{rate:g}"),),
                        coords={"variant": variant, "storm_rate": rate},
                    )
                )
        return cells

    def run_cell(self, cell: Cell) -> StormVariantResult:
        ctx = self.ctx
        variant = cell.coord("variant")
        rate = cell.coord("storm_rate")
        rng = RandomSource(cell.seeds[0])
        server_ids: List[str] = ctx["server_ids"]
        namenode = build_namenode(
            variant,
            ctx["tenants"],
            self.spec.replication_levels[0],
            rng,
            # The matrix becomes the one copy of the context's traces.
            trace_matrix=self.derived(
                "matrix", lambda: TraceMatrix.take_over(ctx["tenants"])
            ),
        )
        # A trace recorded against a larger fleet reimages servers that
        # don't exist here; those reimages are moot.
        in_fleet = [
            op
            for op in ops_in_stream(ctx["ops"], f"storm-{rate:g}")
            if int(op["server_index"]) < len(server_ids)
        ]
        created, replayed = _replay_reimages(
            namenode,
            rng,
            server_ids,
            self.spec.scale.num_blocks,
            (
                (float(op["time"]), server_ids[int(op["server_index"])])
                for op in in_fleet
            ),
            ctx["duration"],
            event_name="storm-reimage",
        )
        return StormVariantResult(
            variant=variant,
            storm_rate_per_day=rate,
            blocks_created=created,
            blocks_lost=namenode.lost_block_count(),
            reimage_events=replayed,
            storms=len({int(op["storm"]) for op in in_fleet[:replayed]}),
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[StormVariantResult]
    ) -> FailureStormResult:
        return FailureStormResult(
            self.spec.datacenter,
            self.spec.replication_levels[0],
            results={(o.variant, o.storm_rate_per_day): o for o in partials},
        )


# ---------------------------------------------------------------------------
# Heterogeneous fleets: mixed capacity classes + elastic tenant arrivals
# ---------------------------------------------------------------------------

_DEFAULT_SERVER_CLASSES = (
    ("small", 8.0, 24.0, 0.3),
    ("standard", 12.0, 32.0, 0.5),
    ("large", 24.0, 96.0, 0.2),
)


def _server_classes(spec: ScenarioSpec) -> Tuple[Tuple[str, float, float, float], ...]:
    rows = spec.param("server_classes", _DEFAULT_SERVER_CLASSES)
    return tuple(
        (str(name), float(cores), float(memory_gb), float(weight))
        for name, cores, memory_gb, weight in rows
    )


@_register
class HeterogeneousFleetRunner(ScenarioRunner):
    """The scheduling testbed over a mixed-capacity server population.

    The plan draws a capacity class per server index, a job arrival
    schedule, and (when the workload's mix asks for it) elastic primary
    tenants arriving mid-run.  Cell grid: the No-Harvesting baseline, then
    one cell per YARN variant.
    """

    kind = "heterogeneous_fleet"
    VARIANTS = tuple(_SCHEDULING_VARIANT_MODES)
    SHARED_FORK_LABELS = ("testbed-dc9", "workload-plan")

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        tenants = build_testbed_tenants(spec.scale, self.rng)
        forks = _plan_forks(self)
        workload = _workload(spec)
        classes = _server_classes(spec)
        duration = spec.scale.experiment_hours * 3600.0

        def builder() -> List[Dict[str, object]]:
            ops: List[Dict[str, object]] = []
            ops.extend(
                plan_server_classes(
                    classes, spec.scale.num_servers, forks.fork_seed("servers")
                )
            )
            ops.extend(
                plan_job_arrivals(
                    workload.shape,
                    workload.interarrival,
                    duration * 0.8,
                    forks.fork_seed("jobs"),
                )
            )
            ops.extend(
                plan_tenant_arrivals(
                    workload.mix,
                    duration * 0.8,
                    forks.fork_seed("tenants"),
                    classes=classes,
                )
            )
            return ops

        ops = materialize_plan(spec, self.kind, builder)

        # Burn the class draws into the testbed servers (ids encode the
        # build index, so the mapping survives the tenant-major layout).
        by_index = {int(op["index"]): op for op in ops_in_stream(ops, "servers")}
        class_counts: Dict[str, int] = {}
        for tenant in tenants:
            for server in tenant.servers:
                prefix, _, index_text = server.server_id.rpartition("-")
                if prefix != "testbed-srv" or int(index_text) not in by_index:
                    continue
                op = by_index[int(index_text)]
                server.cores = int(op["cores"])
                server.memory_gb = float(op["memory_gb"])
                name = str(op["cls"])
                class_counts[name] = class_counts.get(name, 0) + 1

        elastic = arrival_tenants(ops, workload.mix, duration * 0.8)
        return {
            "tenants": list(tenants) + elastic,
            "ops": ops,
            "class_counts": class_counts,
            "elastic": len(elastic),
            "duration": duration,
        }

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
                        fork_seed(f"latency-{name}"),
                    ),
                    coords={"variant": name},
                )
            )
        return cells

    def run_cell(self, cell: Cell):
        ctx = self.ctx
        variant = cell.coord("variant")
        if variant == BASELINE:
            return _baseline_p99_of(cell, ctx["tenants"], ctx["duration"])
        return _run_scheduling_variant(
            variant,
            _SCHEDULING_VARIANT_MODES[variant],
            ctx["tenants"],
            arrivals_from_ops(ctx["ops"]),
            ctx["duration"],
            cell.seeds[0],
            cell.seeds[1],
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[Any]
    ) -> HeterogeneousFleetResult:
        baseline_p99, variants = _split_baseline(partials)
        return HeterogeneousFleetResult(
            no_harvesting_p99_ms=baseline_p99,
            class_counts=self.ctx["class_counts"],
            elastic_tenants=self.ctx["elastic"],
            variants=variants,
        )


# ---------------------------------------------------------------------------
# Antagonist: adversarial primary-utilization spikes vs the harvest SLOs
# ---------------------------------------------------------------------------


def _spike_rates(spec: ScenarioSpec) -> Tuple[float, ...]:
    return _rates(spec, "spike_rates_per_hour", (2.0, 6.0))


@_register
class AntagonistRunner(ScenarioRunner):
    """The scheduling testbed under planned adversarial utilization spikes.

    Each spike intensity gets its own op stream; a cell burns one stream's
    spikes into copies of the shared tenants' traces, so cells never see
    each other's writes.  Cell grid, per spike rate: the (spiked)
    No-Harvesting baseline, then one cell per YARN variant.
    """

    kind = "antagonist"
    VARIANTS = tuple(_SCHEDULING_VARIANT_MODES)
    SHARED_FORK_LABELS = ("testbed-dc9", "workload-plan")

    @classmethod
    def check_spec(cls, spec: ScenarioSpec) -> None:
        super().check_spec(spec)
        _spike_rates(spec)

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        tenants = build_testbed_tenants(spec.scale, self.rng)
        forks = _plan_forks(self)
        workload = _workload(spec)
        duration = spec.scale.experiment_hours * 3600.0
        magnitude = parse_distribution(
            str(spec.param("spike_magnitude", "uniform:low=0.3,high=0.6"))
        )
        spike_duration = parse_distribution(
            str(spec.param("spike_duration", "uniform:low=600,high=1800"))
        )
        rates = _spike_rates(spec)

        def builder() -> List[Dict[str, object]]:
            ops: List[Dict[str, object]] = []
            ops.extend(
                plan_job_arrivals(
                    workload.shape,
                    workload.interarrival,
                    duration * 0.8,
                    forks.fork_seed("jobs"),
                )
            )
            for rate in rates:
                ops.extend(
                    plan_spikes(
                        len(tenants),
                        rate,
                        magnitude,
                        spike_duration,
                        duration,
                        forks.fork_seed(f"spikes-{rate:g}"),
                        stream=f"spike-{rate:g}",
                    )
                )
            return ops

        return {
            "tenants": tenants,
            "ops": materialize_plan(spec, self.kind, builder),
            "duration": duration,
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for rate in _spike_rates(spec):
            cells.append(
                Cell(
                    index=len(cells),
                    key=f"{BASELINE}-a{rate:g}",
                    seeds=(fork_seed(f"latency-baseline-{rate:g}"),),
                    coords={"variant": BASELINE, "spike_rate": rate},
                )
            )
            for name in spec.variants:
                cells.append(
                    Cell(
                        index=len(cells),
                        key=f"{name}-a{rate:g}",
                        seeds=(
                            fork_seed(f"cluster-{name}-{rate:g}"),
                            fork_seed(f"latency-{name}-{rate:g}"),
                        ),
                        coords={"variant": name, "spike_rate": rate},
                    )
                )
        return cells

    def run_cell(self, cell: Cell):
        ctx = self.ctx
        variant = cell.coord("variant")
        rate = cell.coord("spike_rate")
        tenants = apply_spikes(ctx["tenants"], ctx["ops"], f"spike-{rate:g}")
        if variant == BASELINE:
            return _baseline_p99_of(cell, tenants, ctx["duration"])
        return _run_scheduling_variant(
            variant,
            _SCHEDULING_VARIANT_MODES[variant],
            tenants,
            arrivals_from_ops(ctx["ops"]),
            ctx["duration"],
            cell.seeds[0],
            cell.seeds[1],
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[Any]
    ) -> AntagonistResult:
        result = AntagonistResult()
        baselines: Dict[float, float] = {}
        for cell, outcome in zip(cells, partials):
            rate = cell.coord("spike_rate")
            if cell.coord("variant") == BASELINE:
                baselines[rate] = float(outcome)
                continue
            point = AntagonistPoint(
                variant=outcome.variant,
                spike_rate_per_hour=rate,
                baseline_p99_ms=baselines[rate],
                average_p99_ms=outcome.average_p99_ms,
                average_job_seconds=outcome.average_job_seconds,
                jobs_completed=outcome.jobs_completed,
                tasks_killed=outcome.tasks_killed,
            )
            result.points.append(point)
        return result


# ---------------------------------------------------------------------------
# Predictor ablation: harvest predictor vs online feedback controller
# ---------------------------------------------------------------------------

_PREDICTOR_MODES = {
    # The paper's predictor: reserve sized from utilization history.
    "YARN-H": SchedulerMode.HISTORY,
    # The ablation arm: primary-aware scheduling, reserve sized online by
    # the feedback controller from recent violation counts.
    "YARN-FB": SchedulerMode.PRIMARY_AWARE,
}


@_register
class PredictorAblationRunner(ScenarioRunner):
    """History-based harvest prediction vs online feedback reserve sizing.

    Both arms run the identical planned job stream on the identical
    tenants; only the reserve-sizing mechanism differs.  Cell grid: one
    cell per predictor arm.
    """

    kind = "predictor_ablation"
    VARIANTS = tuple(_PREDICTOR_MODES)
    SHARED_FORK_LABELS = ("testbed-dc9", "workload-plan")

    def _prepare(self) -> Dict[str, Any]:
        spec = self.spec
        tenants = build_testbed_tenants(spec.scale, self.rng)
        forks = _plan_forks(self)
        workload = _workload(spec)
        duration = spec.scale.experiment_hours * 3600.0

        def builder() -> List[Dict[str, object]]:
            return plan_job_arrivals(
                workload.shape,
                workload.interarrival,
                duration * 0.8,
                forks.fork_seed("jobs"),
            )

        return {
            "tenants": tenants,
            "ops": materialize_plan(spec, self.kind, builder),
            "duration": duration,
        }

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for name in spec.variants:
            cells.append(
                Cell(
                    index=len(cells),
                    key=name,
                    seeds=(
                        fork_seed(f"cluster-{name}"),
                        fork_seed(f"latency-{name}"),
                    ),
                    coords={"variant": name},
                )
            )
        return cells

    def run_cell(self, cell: Cell) -> PredictorVariantResult:
        ctx = self.ctx
        spec = self.spec
        variant = cell.coord("variant")
        duration: float = ctx["duration"]
        controllers: List[FeedbackReserveController] = []

        def before_run(cluster: HarvestingCluster) -> None:
            if variant != "YARN-FB":
                return
            controller = FeedbackReserveController(
                cluster,
                FeedbackReserveConfig(
                    interval_seconds=float(
                        spec.param("controller_interval_seconds", 300.0)
                    ),
                    target_kills_per_interval=float(
                        spec.param("controller_target_kills", 1.0)
                    ),
                ),
            )
            controller.install(duration)
            controllers.append(controller)

        outcome = _run_scheduling_variant(
            variant,
            _PREDICTOR_MODES[variant],
            ctx["tenants"],
            arrivals_from_ops(ctx["ops"]),
            duration,
            cell.seeds[0],
            cell.seeds[1],
            before_run=before_run,
        )
        controller = controllers[0] if controllers else None
        if controller is not None:
            final_fraction = controller.fraction
            adjustments = controller.adjustments
        else:
            final_fraction = ClusterConfig(
                mode=_PREDICTOR_MODES[variant]
            ).reserve_cpu_fraction
            adjustments = 0
        return PredictorVariantResult(
            variant=variant,
            average_p99_ms=outcome.average_p99_ms,
            average_job_seconds=outcome.average_job_seconds,
            jobs_completed=outcome.jobs_completed,
            tasks_killed=outcome.tasks_killed,
            average_cpu_utilization=outcome.average_cpu_utilization,
            final_reserve_fraction=final_fraction,
            reserve_adjustments=adjustments,
        )

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[PredictorVariantResult]
    ) -> PredictorAblationResult:
        return PredictorAblationResult(
            variants={outcome.variant: outcome for outcome in partials}
        )

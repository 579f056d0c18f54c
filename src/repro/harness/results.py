"""Result dataclasses produced by the scenario runners.

Every top-level result implements the uniform presentation protocol the
``repro.api`` envelope relies on:

* ``headline()`` — the figure's fingerprint-relevant numbers as JSON-safe
  data (what ``benchmarks/emit_bench.py`` emits and
  ``benchmarks/diff_bench.py`` gates on);
* ``render()`` — the figure's table as text (what the CLI prints).

Both used to be ~75-line ``isinstance`` switches in ``cli.py`` and
``emit_bench.py``; as methods, a new scenario kind brings its own
presentation along and no tool needs a new case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.harness.report import format_table
from repro.traces.scaling import ScalingMethod


# ---------------------------------------------------------------------------
# Figure 15: durability
# ---------------------------------------------------------------------------


@dataclass
class VariantDurabilityResult:
    """Durability outcome for one (system, replication level) pair."""

    variant: str
    replication: int
    blocks_created: int
    blocks_lost: int
    reimage_events: int

    @property
    def lost_fraction(self) -> float:
        """Fraction of blocks lost during the simulated period."""
        if self.blocks_created == 0:
            return 0.0
        return self.blocks_lost / self.blocks_created


@dataclass
class DurabilityResult:
    """Figure 15: lost blocks per datacenter, system, and replication level."""

    datacenter: str
    results: Dict[Tuple[str, int], VariantDurabilityResult] = field(
        default_factory=dict
    )

    def result(self, variant: str, replication: int) -> VariantDurabilityResult:
        """Result for one system at one replication level."""
        return self.results[(variant, replication)]

    def loss_reduction_factor(self, replication: int) -> float:
        """How many times fewer blocks HDFS-H loses than HDFS-Stock.

        Infinite (represented as ``float('inf')``) when HDFS-H loses nothing
        while HDFS-Stock loses some.
        """
        stock = self.result("HDFS-Stock", replication).blocks_lost
        history = self.result("HDFS-H", replication).blocks_lost
        if history == 0:
            return float("inf") if stock > 0 else 1.0
        return stock / history

    def headline(self) -> Dict[str, Dict[str, int]]:
        """Fingerprint-relevant numbers: created/lost per (variant, R)."""
        return {
            f"{variant}-r{replication}": {
                "blocks_created": r.blocks_created,
                "blocks_lost": r.blocks_lost,
            }
            for (variant, replication), r in sorted(self.results.items())
        }

    def render(self) -> str:
        """Figure 15's table."""
        rows = [
            [variant, replication, r.blocks_created, r.blocks_lost,
             f"{100 * r.lost_fraction:.4f}%"]
            for (variant, replication), r in sorted(self.results.items())
        ]
        return format_table(
            ["system", "replication", "blocks", "lost", "lost fraction"],
            rows,
            title=f"Durability ({self.datacenter})",
        )


# ---------------------------------------------------------------------------
# Figure 16: availability
# ---------------------------------------------------------------------------


@dataclass
class AvailabilityPoint:
    """Failed-access fraction for one (system, replication, utilization)."""

    variant: str
    replication: int
    target_utilization: float
    accesses: int
    failed_accesses: int

    @property
    def failed_fraction(self) -> float:
        """Fraction of accesses that could not be served."""
        if self.accesses == 0:
            return 0.0
        return self.failed_accesses / self.accesses


@dataclass
class AvailabilityResult:
    """Figure 16: failed accesses vs utilization per system and replication."""

    datacenter: str
    scaling: ScalingMethod
    points: List[AvailabilityPoint] = field(default_factory=list)

    def series(self, variant: str, replication: int) -> List[AvailabilityPoint]:
        """Points for one system/replication ordered by utilization."""
        return sorted(
            (
                p
                for p in self.points
                if p.variant == variant and p.replication == replication
            ),
            key=lambda p: p.target_utilization,
        )

    def failed_fraction(
        self, variant: str, replication: int, target_utilization: float
    ) -> float:
        """Failed fraction at one utilization level (nearest point)."""
        series = self.series(variant, replication)
        if not series:
            return 0.0
        closest = min(
            series, key=lambda p: abs(p.target_utilization - target_utilization)
        )
        return closest.failed_fraction

    def headline(self) -> Dict[str, Dict[str, int]]:
        """Fingerprint-relevant numbers: accesses/failures per grid point."""
        return {
            f"{p.variant}-r{p.replication}-u{p.target_utilization}": {
                "accesses": p.accesses,
                "failed_accesses": p.failed_accesses,
            }
            for p in self.points
        }

    def render(self) -> str:
        """Figure 16's table."""
        variants = sorted({(p.variant, p.replication) for p in self.points})
        levels = sorted({p.target_utilization for p in self.points})
        rows = [
            [f"{util:.2f}"]
            + [
                f"{100 * self.failed_fraction(v, r, util):.2f}%"
                for v, r in variants
            ]
            for util in levels
        ]
        return format_table(
            ["avg util"] + [f"{v} R{r}" for v, r in variants],
            rows,
            title=f"Availability ({self.datacenter}, {self.scaling.value})",
        )


# ---------------------------------------------------------------------------
# Figures 13 and 14: datacenter-scale scheduling
# ---------------------------------------------------------------------------


@dataclass
class SchedulingSweepPoint:
    """One (utilization level, scaling method) point of the Figure 13 sweep."""

    target_utilization: float
    scaling: ScalingMethod
    yarn_pt_seconds: float
    yarn_h_seconds: float
    yarn_pt_tasks_killed: int
    yarn_h_tasks_killed: int
    jobs_completed_pt: int
    jobs_completed_h: int
    #: Per-variant hot-path counters: telemetry, outside the
    #: fingerprinted JSON (see ``result_telemetry``).
    scheduler_counters: Dict[str, Dict[str, int]] = field(
        default_factory=dict, metadata={"jsonable": False}
    )

    @property
    def improvement(self) -> float:
        """Relative run-time reduction of YARN-H over YARN-PT (0..1)."""
        if self.yarn_pt_seconds <= 0:
            return 0.0
        return max(0.0, 1.0 - self.yarn_h_seconds / self.yarn_pt_seconds)


@dataclass
class SchedulingSweepResult:
    """Figure 13: sweep points for one datacenter under both scalings."""

    datacenter: str
    points: List[SchedulingSweepPoint] = field(default_factory=list)

    def points_for(self, scaling: ScalingMethod) -> List[SchedulingSweepPoint]:
        """The sweep restricted to one scaling method, ordered by utilization."""
        return sorted(
            (p for p in self.points if p.scaling is scaling),
            key=lambda p: p.target_utilization,
        )

    def improvements(self, scaling: Optional[ScalingMethod] = None) -> List[float]:
        """Improvement fractions, optionally restricted to one scaling."""
        points = self.points if scaling is None else self.points_for(scaling)
        return [p.improvement for p in points]

    def average_improvement(self, scaling: Optional[ScalingMethod] = None) -> float:
        """Mean improvement over the sweep."""
        improvements = self.improvements(scaling)
        return float(np.mean(improvements)) if improvements else 0.0

    def max_improvement(self, scaling: Optional[ScalingMethod] = None) -> float:
        """Largest improvement seen in the sweep."""
        improvements = self.improvements(scaling)
        return float(np.max(improvements)) if improvements else 0.0

    def min_improvement(self, scaling: Optional[ScalingMethod] = None) -> float:
        """Smallest improvement seen in the sweep."""
        improvements = self.improvements(scaling)
        return float(np.min(improvements)) if improvements else 0.0

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant numbers: every sweep point plus the mean."""
        return {
            "points": [
                {
                    "scaling": p.scaling.value,
                    "target_utilization": p.target_utilization,
                    "yarn_pt_seconds": p.yarn_pt_seconds,
                    "yarn_h_seconds": p.yarn_h_seconds,
                    "improvement": p.improvement,
                    "yarn_pt_tasks_killed": p.yarn_pt_tasks_killed,
                    "yarn_h_tasks_killed": p.yarn_h_tasks_killed,
                }
                for p in self.points
            ],
            "average_improvement_linear": self.average_improvement(
                ScalingMethod.LINEAR
            ),
        }

    def render(self) -> str:
        """Figure 13's table."""
        rows = [
            [p.scaling.value, f"{p.target_utilization:.2f}",
             f"{p.yarn_pt_seconds:.0f}", f"{p.yarn_h_seconds:.0f}",
             f"{100 * p.improvement:.0f}%"]
            for p in self.points
        ]
        return format_table(
            ["scaling", "target util", "YARN-PT (s)", "YARN-H (s)", "improvement"],
            rows,
            title=f"{self.datacenter} utilization sweep",
        )


@dataclass
class FleetImprovementResult:
    """Figure 14: per-datacenter improvement summary."""

    sweeps: Dict[str, SchedulingSweepResult] = field(default_factory=dict)

    def summary(
        self, scaling: Optional[ScalingMethod] = None
    ) -> Dict[str, Dict[str, float]]:
        """min / avg / max improvement per datacenter."""
        table: Dict[str, Dict[str, float]] = {}
        for name, sweep in self.sweeps.items():
            table[name] = {
                "min": sweep.min_improvement(scaling),
                "avg": sweep.average_improvement(scaling),
                "max": sweep.max_improvement(scaling),
            }
        return table

    def headline(self) -> Dict[str, Dict[str, float]]:
        """Fingerprint-relevant numbers: the per-datacenter summary."""
        return {name: dict(stats) for name, stats in sorted(self.summary().items())}

    def render(self) -> str:
        """Figure 14's table."""
        rows = [
            [name, f"{100 * s['min']:.0f}%", f"{100 * s['avg']:.0f}%",
             f"{100 * s['max']:.0f}%"]
            for name, s in sorted(self.summary().items())
        ]
        return format_table(
            ["DC", "min", "avg", "max"], rows, title="Fleet improvements"
        )


# ---------------------------------------------------------------------------
# Figures 10-12: the testbed
# ---------------------------------------------------------------------------


@dataclass
class VariantSchedulingResult:
    """Per-variant outcome of the scheduling testbed."""

    variant: str
    average_p99_ms: float
    max_p99_ms: float
    average_job_seconds: float
    jobs_completed: int
    tasks_killed: int
    average_cpu_utilization: float
    latency_samples: List[float] = field(default_factory=list)
    job_execution_seconds: List[float] = field(default_factory=list)
    #: Hot-path counters (waves_coalesced):
    #: telemetry, outside the fingerprinted JSON (see ``result_telemetry``).
    scheduler_counters: Dict[str, int] = field(
        default_factory=dict, metadata={"jsonable": False}
    )


@dataclass
class SchedulingTestbedResult:
    """Figure 10/11 results: one entry per system variant plus the baseline."""

    no_harvesting_p99_ms: float
    variants: Dict[str, VariantSchedulingResult]

    def variant(self, name: str) -> VariantSchedulingResult:
        """Result for one variant by name (e.g. ``"YARN-H"``)."""
        return self.variants[name]

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant numbers: baseline plus per-variant summary."""
        return {
            "no_harvesting_p99_ms": self.no_harvesting_p99_ms,
            "variants": {
                name: {
                    "average_p99_ms": v.average_p99_ms,
                    "max_p99_ms": v.max_p99_ms,
                    "average_job_seconds": v.average_job_seconds,
                    "jobs_completed": v.jobs_completed,
                    "tasks_killed": v.tasks_killed,
                    "average_cpu_utilization": v.average_cpu_utilization,
                }
                for name, v in self.variants.items()
            },
        }

    def render(self) -> str:
        """Figure 10/11's table."""
        rows = [["No-Harvesting", f"{self.no_harvesting_p99_ms:.0f}", "-", "-", "-"]]
        for name, v in self.variants.items():
            rows.append([
                name, f"{v.average_p99_ms:.0f}", f"{v.average_job_seconds:.0f}",
                v.tasks_killed, f"{100 * v.average_cpu_utilization:.0f}%",
            ])
        return format_table(
            ["variant", "avg p99 (ms)", "avg job (s)", "kills", "cpu util"],
            rows,
            title="Scheduling testbed",
        )


@dataclass
class VariantStorageResult:
    """Per-variant outcome of the storage testbed."""

    variant: str
    average_p99_ms: float
    max_p99_ms: float
    failed_accesses: int
    served_accesses: int
    blocks_created: int


@dataclass
class StorageTestbedResult:
    """Figure 12 results keyed by HDFS variant."""

    no_harvesting_p99_ms: float
    variants: Dict[str, VariantStorageResult]

    def variant(self, name: str) -> VariantStorageResult:
        """Result for one variant by name (e.g. ``"HDFS-H"``)."""
        return self.variants[name]

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant numbers: baseline plus per-variant summary."""
        return {
            "no_harvesting_p99_ms": self.no_harvesting_p99_ms,
            "variants": {
                name: {
                    "average_p99_ms": v.average_p99_ms,
                    "failed_accesses": v.failed_accesses,
                    "served_accesses": v.served_accesses,
                }
                for name, v in self.variants.items()
            },
        }

    def render(self) -> str:
        """Figure 12's table."""
        rows = [["No-Harvesting", f"{self.no_harvesting_p99_ms:.0f}", "-", "-"]]
        for name, v in self.variants.items():
            rows.append([
                name, f"{v.average_p99_ms:.0f}", v.failed_accesses, v.served_accesses,
            ])
        return format_table(
            ["variant", "avg p99 (ms)", "failed accesses", "served accesses"],
            rows,
            title="Storage testbed",
        )


# ---------------------------------------------------------------------------
# Continuous mode: windowed epoch metrics
# ---------------------------------------------------------------------------


@dataclass
class EpochMetrics:
    """One epoch window of a continuous run.

    All counts are *deltas within the window* except ``queue_depth``, which
    is the backlog (jobs submitted but not yet finished) at the window's
    closing boundary.  ``p99_primary_ms`` is the 99th percentile of the
    per-minute fleet-mean primary latency samples whose minute starts inside
    the window (0.0 when the window holds no complete minute).
    """

    index: int
    start_seconds: float
    end_seconds: float
    jobs_submitted: int
    jobs_completed: int
    tasks_completed: int
    tasks_killed: int
    queue_depth: int
    p99_primary_ms: float

    @property
    def duration_hours(self) -> float:
        """Window length in hours (rates below are per hour)."""
        return (self.end_seconds - self.start_seconds) / 3600.0

    @property
    def harvest_throughput_tasks_per_hour(self) -> float:
        """Harvested work rate: batch tasks completed per hour."""
        return self.tasks_completed / self.duration_hours

    @property
    def kill_rate(self) -> float:
        """Fraction of this window's finished task attempts that were killed."""
        attempts = self.tasks_completed + self.tasks_killed
        if attempts == 0:
            return 0.0
        return self.tasks_killed / attempts


def epoch_record(variant: str, epoch: "EpochMetrics") -> Dict[str, object]:
    """One JSON-safe record for a finalized epoch.

    The schema of the ``--emit-epochs`` JSONL stream: the epoch's headline
    fields plus its window bounds and owning variant, so a line is
    self-describing without the surrounding payload.
    """
    return {
        "variant": variant,
        "index": epoch.index,
        "start_seconds": epoch.start_seconds,
        "end_seconds": epoch.end_seconds,
        "jobs_submitted": epoch.jobs_submitted,
        "jobs_completed": epoch.jobs_completed,
        "tasks_completed": epoch.tasks_completed,
        "tasks_killed": epoch.tasks_killed,
        "queue_depth": epoch.queue_depth,
        "p99_primary_ms": epoch.p99_primary_ms,
    }


@dataclass
class VariantContinuousResult:
    """The epoch stream one scheduler variant produced."""

    variant: str
    epochs: List["EpochMetrics"]
    #: Streaming-fold telemetry (outside the JSON payload and therefore the
    #: fingerprint; see ``result_telemetry``): peak raw heartbeat rows/bytes
    #: the aggregator held at once, and how many fold passes ran.
    peak_tail_rows: int = field(default=0, metadata={"jsonable": False})
    peak_tail_bytes: int = field(default=0, metadata={"jsonable": False})
    series_folds: int = field(default=0, metadata={"jsonable": False})

    @property
    def jobs_completed(self) -> int:
        """Jobs finished over the whole horizon."""
        return sum(e.jobs_completed for e in self.epochs)

    @property
    def tasks_killed(self) -> int:
        """Task attempts killed over the whole horizon."""
        return sum(e.tasks_killed for e in self.epochs)


@dataclass
class ContinuousResult:
    """Continuous-mode results: one windowed epoch stream per variant.

    Unlike the figure results, the payload here *is* the time series — the
    fingerprint covers every epoch of every variant, so a single diverging
    window anywhere in the horizon changes the run's fingerprint.
    """

    traffic: str
    epoch_seconds: float
    num_epochs: int
    variants: Dict[str, VariantContinuousResult] = field(default_factory=dict)

    def variant(self, name: str) -> VariantContinuousResult:
        """The epoch stream for one variant by name (e.g. ``"YARN-H"``)."""
        return self.variants[name]

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant data: the full per-variant epoch stream."""
        return {
            "traffic": self.traffic,
            "epoch_seconds": self.epoch_seconds,
            "num_epochs": self.num_epochs,
            "variants": {
                name: {
                    "epochs": [
                        {
                            "index": e.index,
                            "jobs_submitted": e.jobs_submitted,
                            "jobs_completed": e.jobs_completed,
                            "tasks_completed": e.tasks_completed,
                            "tasks_killed": e.tasks_killed,
                            "queue_depth": e.queue_depth,
                            "p99_primary_ms": e.p99_primary_ms,
                        }
                        for e in v.epochs
                    ]
                }
                for name, v in self.variants.items()
            },
        }

    def render(self) -> str:
        """Per-epoch table, one row per (variant, epoch) window."""
        rows = []
        for name, v in self.variants.items():
            for e in v.epochs:
                rows.append(
                    [
                        name,
                        e.index,
                        f"{e.start_seconds:.0f}-{e.end_seconds:.0f}s",
                        f"{e.p99_primary_ms:.0f}",
                        e.jobs_submitted,
                        e.jobs_completed,
                        f"{e.harvest_throughput_tasks_per_hour:.0f}",
                        e.tasks_killed,
                        f"{100 * e.kill_rate:.1f}%",
                        e.queue_depth,
                    ]
                )
        return format_table(
            [
                "variant",
                "epoch",
                "window",
                "p99 (ms)",
                "submitted",
                "completed",
                "tasks/h",
                "kills",
                "kill rate",
                "queue",
            ],
            rows,
            title=f"Continuous run — {self.traffic}",
        )


# ---------------------------------------------------------------------------
# Workload-substrate scenario kinds (failure storms, heterogeneous fleets,
# antagonist tenants, predictor ablations)
# ---------------------------------------------------------------------------


@dataclass
class StormVariantResult:
    """One (variant, storm rate) durability cell under correlated storms."""

    variant: str
    storm_rate_per_day: float
    blocks_created: int
    blocks_lost: int
    reimage_events: int
    storms: int

    @property
    def lost_fraction(self) -> float:
        """Fraction of created blocks that were lost."""
        return self.blocks_lost / self.blocks_created if self.blocks_created else 0.0


@dataclass
class FailureStormResult:
    """Failure-storm scenario: block loss per variant and storm intensity."""

    datacenter: str
    replication: int
    results: Dict[Tuple[str, float], StormVariantResult] = field(
        default_factory=dict
    )

    def result(self, variant: str, storm_rate: float) -> StormVariantResult:
        """Result for one variant at one storm rate."""
        return self.results[(variant, storm_rate)]

    def headline(self) -> Dict[str, Dict[str, int]]:
        """Fingerprint-relevant numbers: created/lost per (variant, rate)."""
        return {
            f"{variant}-s{rate}": {
                "blocks_created": r.blocks_created,
                "blocks_lost": r.blocks_lost,
                "storms": r.storms,
            }
            for (variant, rate), r in sorted(self.results.items())
        }

    def render(self) -> str:
        """The failure-storm table."""
        rows = [
            [variant, f"{rate:g}/day", r.storms, r.reimage_events,
             r.blocks_created, r.blocks_lost, f"{100 * r.lost_fraction:.4f}%"]
            for (variant, rate), r in sorted(self.results.items())
        ]
        return format_table(
            ["variant", "storm rate", "storms", "reimages", "created", "lost",
             "lost %"],
            rows,
            title=f"Failure storms — {self.datacenter} (R={self.replication})",
        )


@dataclass
class HeterogeneousFleetResult:
    """Mixed-capacity fleet: scheduling outcomes per variant, plus the mix."""

    no_harvesting_p99_ms: float
    class_counts: Dict[str, int]
    elastic_tenants: int
    variants: Dict[str, VariantSchedulingResult] = field(default_factory=dict)

    def variant(self, name: str) -> VariantSchedulingResult:
        """Result for one variant by name (e.g. ``"YARN-H"``)."""
        return self.variants[name]

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant numbers: mix, baseline, per-variant summary."""
        return {
            "no_harvesting_p99_ms": self.no_harvesting_p99_ms,
            "class_counts": dict(sorted(self.class_counts.items())),
            "elastic_tenants": self.elastic_tenants,
            "variants": {
                name: {
                    "average_p99_ms": v.average_p99_ms,
                    "average_job_seconds": v.average_job_seconds,
                    "jobs_completed": v.jobs_completed,
                    "tasks_killed": v.tasks_killed,
                    "average_cpu_utilization": v.average_cpu_utilization,
                }
                for name, v in self.variants.items()
            },
        }

    def render(self) -> str:
        """The heterogeneous-fleet table."""
        mix = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.class_counts.items())
        )
        rows = [["No-Harvesting", f"{self.no_harvesting_p99_ms:.0f}", "-", "-", "-"]]
        for name, v in self.variants.items():
            rows.append([
                name, f"{v.average_p99_ms:.0f}", f"{v.average_job_seconds:.0f}",
                v.jobs_completed, v.tasks_killed,
            ])
        return format_table(
            ["variant", "avg p99 (ms)", "avg job (s)", "jobs", "kills"],
            rows,
            title=(
                f"Heterogeneous fleet [{mix}] "
                f"(+{self.elastic_tenants} elastic tenants)"
            ),
        )


@dataclass
class AntagonistPoint:
    """One (variant, spike rate) cell under adversarial primary spikes."""

    variant: str
    spike_rate_per_hour: float
    baseline_p99_ms: float
    average_p99_ms: float
    average_job_seconds: float
    jobs_completed: int
    tasks_killed: int

    @property
    def slo_inflation(self) -> float:
        """Harvest-SLO pressure: p99 relative to the spiked baseline."""
        if self.baseline_p99_ms <= 0:
            return 1.0
        return self.average_p99_ms / self.baseline_p99_ms


@dataclass
class AntagonistResult:
    """Antagonist scenario: SLO pressure per variant and spike intensity."""

    points: List[AntagonistPoint] = field(default_factory=list)

    def point(self, variant: str, spike_rate: float) -> AntagonistPoint:
        """Result for one variant at one spike rate."""
        for p in self.points:
            if p.variant == variant and p.spike_rate_per_hour == spike_rate:
                return p
        raise KeyError((variant, spike_rate))

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant numbers per (variant, spike rate)."""
        return {
            f"{p.variant}-a{p.spike_rate_per_hour:g}": {
                "baseline_p99_ms": p.baseline_p99_ms,
                "average_p99_ms": p.average_p99_ms,
                "average_job_seconds": p.average_job_seconds,
                "jobs_completed": p.jobs_completed,
                "tasks_killed": p.tasks_killed,
            }
            for p in self.points
        }

    def render(self) -> str:
        """The antagonist table."""
        rows = [
            [p.variant, f"{p.spike_rate_per_hour:g}/h",
             f"{p.baseline_p99_ms:.0f}", f"{p.average_p99_ms:.0f}",
             f"{p.slo_inflation:.2f}x", p.jobs_completed, p.tasks_killed]
            for p in self.points
        ]
        return format_table(
            ["variant", "spikes", "baseline p99", "avg p99 (ms)", "inflation",
             "jobs", "kills"],
            rows,
            title="Antagonist tenants",
        )


@dataclass
class PredictorVariantResult:
    """One predictor arm: history-based vs online feedback reserve sizing."""

    variant: str
    average_p99_ms: float
    average_job_seconds: float
    jobs_completed: int
    tasks_killed: int
    average_cpu_utilization: float
    final_reserve_fraction: float
    reserve_adjustments: int


@dataclass
class PredictorAblationResult:
    """Predictor ablation: the harvest predictor against a feedback loop."""

    variants: Dict[str, PredictorVariantResult] = field(default_factory=dict)

    def variant(self, name: str) -> PredictorVariantResult:
        """Result for one predictor arm by name (e.g. ``"YARN-FB"``)."""
        return self.variants[name]

    def headline(self) -> Dict[str, object]:
        """Fingerprint-relevant numbers per predictor arm."""
        return {
            name: {
                "average_p99_ms": v.average_p99_ms,
                "average_job_seconds": v.average_job_seconds,
                "jobs_completed": v.jobs_completed,
                "tasks_killed": v.tasks_killed,
                "average_cpu_utilization": v.average_cpu_utilization,
                "final_reserve_fraction": v.final_reserve_fraction,
                "reserve_adjustments": v.reserve_adjustments,
            }
            for name, v in self.variants.items()
        }

    def render(self) -> str:
        """The predictor-ablation table."""
        rows = [
            [name, f"{v.average_p99_ms:.0f}", f"{v.average_job_seconds:.0f}",
             v.jobs_completed, v.tasks_killed,
             f"{v.final_reserve_fraction:.2f}", v.reserve_adjustments]
            for name, v in self.variants.items()
        ]
        return format_table(
            ["predictor", "avg p99 (ms)", "avg job (s)", "jobs", "kills",
             "reserve", "adjusts"],
            rows,
            title="Predictor ablation",
        )


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def result_to_jsonable(value):
    """Convert any scenario result (or nested piece of one) to JSON-safe data.

    Dataclasses become objects, enums their values, numpy scalars/arrays
    plain floats/lists, and non-string dict keys (the durability results are
    keyed by ``(variant, replication)`` tuples) dash-joined strings.  Used by
    ``repro run-scenario --json`` and the benchmark emitter.
    """
    import dataclasses
    import enum

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Fields marked ``metadata={"jsonable": False}`` are telemetry
        # (see ``result_telemetry``): carried on the payload but excluded
        # here, so the fingerprinted result JSON never sees them.
        return {
            f.name: result_to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("jsonable", True)
        }
    if isinstance(value, enum.Enum):
        return result_to_jsonable(value.value)
    if isinstance(value, dict):
        return {_json_key(key): result_to_jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [result_to_jsonable(item) for item in value]
    return value


def _json_key(key) -> str:
    """A dict key as a JSON object key (tuples dash-joined)."""
    if isinstance(key, tuple):
        return "-".join(str(result_to_jsonable(part)) for part in key)
    return key if isinstance(key, str) else str(result_to_jsonable(key))


def result_telemetry(value):
    """The telemetry a result carries: the complement of ``result_to_jsonable``.

    The same walk, keeping only the fields marked
    ``metadata={"jsonable": False}`` (scheduler counters, streaming-fold
    peaks) at the position they hold in the payload.  Branches holding none
    come back empty and are dropped; a list keeps every position once any
    element holds some, so indices still line up with the payload's.
    """
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if not f.metadata.get("jsonable", True):
                out[f.name] = result_to_jsonable(item)
            elif (nested := result_telemetry(item)):
                out[f.name] = nested
        return out
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if (nested := result_telemetry(item)):
                out[_json_key(key)] = nested
        return out
    if isinstance(value, (list, tuple)):
        nested = [result_telemetry(item) for item in value]
        return nested if any(nested) else {}
    return {}

"""Ablation: the job-type-dependent ranking weights of Algorithm 1.

The weight matrix W ranks utilization-pattern classes differently per job
type (long jobs prefer constant classes, short jobs prefer unpredictable
ones).  This ablation compares the paper's ranking with a flat (uniform)
ranking and with a deliberately inverted ranking, measuring how often a long
job ends up in a class whose peak utilization would leave it short of
resources.
"""

from __future__ import annotations

from typing import Dict

from repro.core.class_selection import ClassCapacity, ClassSelector, RankingWeights
from repro.core.clustering import UtilizationClass
from repro.core.job_types import JobType
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces.utilization import UtilizationPattern

TRIALS = 2000


def build_capacities() -> list[ClassCapacity]:
    """A DC-9-like class mix: stable constant classes and spiky others."""
    definitions = [
        ("constant-0", UtilizationPattern.CONSTANT, 0.30, 0.35, 400.0),
        ("constant-1", UtilizationPattern.CONSTANT, 0.20, 0.26, 300.0),
        ("periodic-0", UtilizationPattern.PERIODIC, 0.30, 0.75, 500.0),
        ("periodic-1", UtilizationPattern.PERIODIC, 0.25, 0.85, 400.0),
        ("unpredictable-0", UtilizationPattern.UNPREDICTABLE, 0.30, 0.95, 300.0),
    ]
    capacities = []
    for class_id, pattern, avg, peak, cores in definitions:
        capacities.append(
            ClassCapacity(
                utilization_class=UtilizationClass(
                    class_id=class_id,
                    pattern=pattern,
                    average_utilization=avg,
                    peak_utilization=peak,
                    tenant_ids=[class_id],
                ),
                total_capacity=cores,
                current_utilization=avg,
            )
        )
    return capacities


INVERTED = RankingWeights(
    weights={
        JobType.LONG: {
            UtilizationPattern.CONSTANT: 1.0,
            UtilizationPattern.PERIODIC: 2.0,
            UtilizationPattern.UNPREDICTABLE: 3.0,
        },
        JobType.SHORT: {
            UtilizationPattern.CONSTANT: 3.0,
            UtilizationPattern.PERIODIC: 2.0,
            UtilizationPattern.UNPREDICTABLE: 1.0,
        },
        JobType.MEDIUM: {
            UtilizationPattern.CONSTANT: 1.0,
            UtilizationPattern.PERIODIC: 1.0,
            UtilizationPattern.UNPREDICTABLE: 3.0,
        },
    }
)

FLAT = RankingWeights(weights={})


def risky_long_fraction(ranking: RankingWeights, seed: int = 11) -> float:
    """Fraction of long jobs sent to classes with peak utilization > 0.6."""
    capacities = build_capacities()
    selector = ClassSelector(ranking=ranking, rng=RandomSource(seed))
    risky = 0
    for _ in range(TRIALS):
        selection = selector.select(JobType.LONG, 30.0, capacities)
        if not selection.scheduled:
            continue
        chosen = next(
            c for c in capacities
            if c.utilization_class.class_id == selection.class_ids[0]
        )
        if chosen.utilization_class.peak_utilization > 0.6:
            risky += 1
    return risky / TRIALS


def run_ablation() -> Dict[str, float]:
    return {
        "paper ranking": risky_long_fraction(RankingWeights()),
        "flat ranking": risky_long_fraction(FLAT),
        "inverted ranking": risky_long_fraction(INVERTED),
    }


def test_ablation_weights():
    results = run_ablation()

    print()
    print(format_table(
        ["ranking", "long jobs placed on spiky classes"],
        [[name, f"{100 * value:.1f}%"] for name, value in results.items()],
        title="Ablation: Algorithm 1 ranking weights",
    ))

    # The paper's ranking sends long jobs to spiky (high-peak) classes less
    # often than a flat ranking, and far less often than an inverted one.
    assert results["paper ranking"] <= results["flat ranking"]
    assert results["paper ranking"] < results["inverted ranking"]

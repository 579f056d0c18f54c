"""Figure 3: percentage of servers per utilization class.

Although periodic tenants are few (Figure 2), they own roughly 40% of the
servers on average, and periodic plus constant tenants — the ones whose
history predicts the future — cover about 75% of all servers.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import characterize_fleet
from repro.analysis.characterization import average_server_fraction
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_fleet
from repro.traces.utilization import UtilizationPattern


def characterize(scale: float = 0.08, months: int = 6):
    rng = RandomSource(0)
    fleet = build_fleet(rng, scale=scale)
    return characterize_fleet(fleet, months=months, rng=rng)


def test_fig03_server_classes():
    results = characterize()

    rows = []
    for name in sorted(results):
        fractions = results[name].server_fraction_by_pattern
        rows.append([
            name,
            f"{100 * fractions[UtilizationPattern.PERIODIC]:.0f}%",
            f"{100 * fractions[UtilizationPattern.CONSTANT]:.0f}%",
            f"{100 * fractions[UtilizationPattern.UNPREDICTABLE]:.0f}%",
            f"{100 * results[name].predictable_server_fraction():.0f}%",
        ])
    print()
    print(format_table(
        ["DC", "periodic", "constant", "unpredictable", "predictable"],
        rows,
        title="Figure 3: percentage of servers per class",
    ))

    periodic_avg = average_server_fraction(results, UtilizationPattern.PERIODIC)
    predictable = [r.predictable_server_fraction() for r in results.values()]
    # ~40% of servers belong to periodic tenants on average.
    assert 0.2 < periodic_avg < 0.6
    # ~75% of servers run tenants whose history is a good predictor.
    assert float(np.mean(predictable)) > 0.65

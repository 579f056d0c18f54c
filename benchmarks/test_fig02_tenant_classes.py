"""Figure 2: percentage of primary tenants per utilization class.

The paper finds that periodic (user-facing) tenants are a small minority of
primary tenants: the vast majority show roughly constant utilization.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import characterize_fleet
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_fleet
from repro.traces.utilization import UtilizationPattern

from conftest import run_once


def characterize(scale: float = 0.08, months: int = 6):
    rng = RandomSource(0)
    fleet = build_fleet(rng, scale=scale)
    return characterize_fleet(fleet, months=months, rng=rng)


def test_fig02_tenant_classes(benchmark):
    results = run_once(benchmark, characterize)

    rows = []
    for name in sorted(results):
        fractions = results[name].tenant_fraction_by_pattern
        rows.append([
            name,
            f"{100 * fractions[UtilizationPattern.PERIODIC]:.0f}%",
            f"{100 * fractions[UtilizationPattern.CONSTANT]:.0f}%",
            f"{100 * fractions[UtilizationPattern.UNPREDICTABLE]:.0f}%",
        ])
    print()
    print(format_table(
        ["DC", "periodic", "constant", "unpredictable"],
        rows,
        title="Figure 2: percentage of primary tenants per class",
    ))

    periodic = [
        r.tenant_fraction_by_pattern[UtilizationPattern.PERIODIC]
        for r in results.values()
    ]
    constant = [
        r.tenant_fraction_by_pattern[UtilizationPattern.CONSTANT]
        for r in results.values()
    ]
    # Periodic tenants are a small minority; constant tenants the vast majority.
    assert float(np.mean(periodic)) < 0.3
    assert float(np.mean(constant)) > 0.5
    assert float(np.mean(constant)) > float(np.mean(periodic))

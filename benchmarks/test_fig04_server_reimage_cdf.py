"""Figure 4: CDF of per-server reimages per month.

The paper reports that reimaging is not overly aggressive on average — at
least 90% of servers are reimaged once or fewer times per month — but a tail
of roughly 10% of servers is reimaged much more frequently.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import characterize_datacenter
from repro.analysis.cdf import empirical_cdf, fraction_at_or_below
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_datacenter, fleet_specs

DATACENTERS = ("DC-0", "DC-7", "DC-9", "DC-3", "DC-1")


def characterize(scale: float = 0.1, months: int = 18):
    rng = RandomSource(0)
    results = {}
    for name in DATACENTERS:
        spec = [s for s in fleet_specs() if s.name == name][0]
        datacenter = build_datacenter(spec, rng, scale=scale)
        results[name] = characterize_datacenter(datacenter, months=months, rng=rng)
    return results


def test_fig04_server_reimage_cdf():
    results = characterize()

    rows = []
    for name in DATACENTERS:
        samples = results[name].per_server_reimages_per_month
        rows.append([
            name,
            f"{100 * fraction_at_or_below(samples, 0.5):.0f}%",
            f"{100 * fraction_at_or_below(samples, 1.0):.0f}%",
            f"{100 * fraction_at_or_below(samples, 2.0):.0f}%",
            f"{float(np.percentile(samples, 95)):.2f}",
        ])
    print()
    print(format_table(
        ["DC", "<=0.5/mo", "<=1/mo", "<=2/mo", "p95 reimages/mo"],
        rows,
        title="Figure 4: per-server reimages per month (CDF points)",
    ))

    for name in DATACENTERS:
        samples = results[name].per_server_reimages_per_month
        values, fractions = empirical_cdf(samples)
        assert len(values) == len(samples)
        # Most servers see at most ~1 reimage per month.
        assert fraction_at_or_below(samples, 1.0) > 0.6
        # But there is a non-trivial frequent-reimage tail.
        assert max(samples) > np.median(samples)

    # The low-reimage datacenters (DC-3) reimage less than the heavy ones (DC-1).
    assert fraction_at_or_below(
        results["DC-3"].per_server_reimages_per_month, 0.5
    ) >= fraction_at_or_below(results["DC-1"].per_server_reimages_per_month, 0.5)

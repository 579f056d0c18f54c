"""Figure 5: CDF of per-tenant reimages per server per month.

At least 80% of primary tenants are reimaged once or fewer times per server
per month, with good diversity in the average reimaging frequency across
tenants (the CDF is not a near-vertical line).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import characterize_datacenter
from repro.analysis.cdf import fraction_at_or_below
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


def test_fig05_tenant_reimage_cdf():
    results = characterize()

    rows = []
    for name in DATACENTERS:
        samples = results[name].per_tenant_reimages_per_server_month
        rows.append([
            name,
            f"{100 * fraction_at_or_below(samples, 0.5):.0f}%",
            f"{100 * fraction_at_or_below(samples, 1.0):.0f}%",
            f"{np.std(samples):.2f}",
        ])
    print()
    print(format_table(
        ["DC", "<=0.5/srv/mo", "<=1/srv/mo", "std across tenants"],
        rows,
        title="Figure 5: per-tenant reimages per server per month (CDF points)",
    ))

    for name in DATACENTERS:
        samples = results[name].per_tenant_reimages_per_server_month
        # Most tenants are reimaged at most about once per server per month.
        assert fraction_at_or_below(samples, 1.2) > 0.6
        # Diversity across tenants: the distribution is spread, not a step.
        assert np.std(samples) > 0.05

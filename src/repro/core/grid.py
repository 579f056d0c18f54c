"""The two-dimensional clustering scheme behind Algorithm 2.

Replica placement clusters primary tenants along two axes at once:

* **reimage frequency** — the durability axis (disks that get reformatted
  destroy their replicas);
* **peak CPU utilization** — the availability axis (servers whose primary
  tenant is busy deny secondary data accesses).

The space is split into 3x3 cells, each holding the *same amount of
harvestable storage*, so that spreading a block's replicas across distinct
rows and columns yields diversity in both dimensions simultaneously.  A
tenant is assigned to exactly one cell (splitting a tenant across cells would
hurt diversity), which means the equal-space split is approximate when
tenants are large relative to a cell — the space/diversity tradeoff the paper
discusses in Sections 4.2 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class TenantPlacementStats:
    """Per-tenant inputs to the grid clustering.

    Attributes:
        tenant_id: the primary tenant.
        environment: the tenant's management environment (placement
            constraint: never two replicas in the same environment).
        reimage_rate: reimages per server per month (historical).
        peak_utilization: peak (p99) CPU utilization fraction (historical).
        available_space_gb: harvestable storage the tenant currently offers.
        server_ids: servers belonging to the tenant, candidates for replicas.
        racks_by_server: optional rack of each server (extended constraint
            from the production deployment).
    """

    tenant_id: str
    environment: str
    reimage_rate: float
    peak_utilization: float
    available_space_gb: float
    server_ids: List[str] = field(default_factory=list)
    racks_by_server: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.reimage_rate < 0:
            raise ValueError("reimage_rate must be non-negative")
        if not 0.0 <= self.peak_utilization <= 1.0:
            raise ValueError("peak_utilization must be in [0, 1]")
        if self.available_space_gb < 0:
            raise ValueError("available_space_gb must be non-negative")


@dataclass
class GridCell:
    """One cell of the reimage-frequency x peak-utilization grid.

    Attributes:
        row: reimage-frequency tercile (0 = infrequent .. 2 = frequent).
        column: peak-utilization tercile (0 = low .. 2 = high).
        tenant_ids: tenants assigned to this cell.
        total_space_gb: harvestable storage summed over the member tenants.
    """

    row: int
    column: int
    tenant_ids: List[str] = field(default_factory=list)
    total_space_gb: float = 0.0


@dataclass
class GridClustering:
    """Result of the two-dimensional clustering.

    Attributes:
        rows: number of reimage-frequency bins.
        columns: number of peak-utilization bins.
        cells: cells keyed by (row, column).
        cell_of_tenant: the cell each tenant was assigned to.
        stats_by_tenant: the input stats, kept for server lookups.
    """

    rows: int
    columns: int
    cells: Dict[Tuple[int, int], GridCell]
    cell_of_tenant: Dict[str, Tuple[int, int]]
    stats_by_tenant: Dict[str, TenantPlacementStats]

    def cell(self, row: int, column: int) -> GridCell:
        """Look up a cell by coordinates."""
        key = (row, column)
        if key not in self.cells:
            raise KeyError(f"no grid cell at {key}")
        return self.cells[key]

    def tenants_in_cell(self, row: int, column: int) -> List[TenantPlacementStats]:
        """Stats for every tenant in one cell."""
        return [self.stats_by_tenant[t] for t in self.cell(row, column).tenant_ids]

    def total_space_gb(self) -> float:
        """Total harvestable storage across all cells."""
        return sum(cell.total_space_gb for cell in self.cells.values())

    def space_balance(self) -> float:
        """Ratio of the smallest cell's space to the largest cell's space.

        1.0 means a perfectly balanced split; the value degrades when large
        tenants cannot be divided across cells.
        """
        spaces = [cell.total_space_gb for cell in self.cells.values()]
        if not spaces or max(spaces) <= 0:
            return 0.0
        return min(spaces) / max(spaces)

    def non_empty_cells(self) -> List[GridCell]:
        """Cells that contain at least one tenant with space."""
        return [
            cell
            for cell in self.cells.values()
            if cell.tenant_ids and cell.total_space_gb > 0
        ]


def _equal_space_boundaries(
    ordered: Sequence[TenantPlacementStats], bins: int
) -> List[int]:
    """Split an ordered tenant list into ``bins`` groups of roughly equal space.

    Returns the end index (exclusive) of each bin.  A tenant is never split,
    so the balance is approximate when individual tenants are large.
    """
    total_space = sum(t.available_space_gb for t in ordered)
    if total_space <= 0 or not ordered:
        # Degenerate: fall back to equal tenant counts.
        n = len(ordered)
        return [int(round((i + 1) * n / bins)) for i in range(bins)]
    target = total_space / bins
    boundaries: List[int] = []
    accumulated = 0.0
    next_target = target
    for index, tenant in enumerate(ordered):
        accumulated += tenant.available_space_gb
        while len(boundaries) < bins - 1 and accumulated >= next_target:
            boundaries.append(index + 1)
            next_target += target
    while len(boundaries) < bins:
        boundaries.append(len(ordered))
    # A single huge tenant can swallow several targets at once, which would
    # leave later bins empty; when there are at least as many tenants as bins,
    # nudge the boundaries so every bin keeps at least one tenant — placement
    # diversity matters more than perfect space balance (Section 4.2).
    if len(ordered) >= bins:
        for i in range(bins):
            minimum = (boundaries[i - 1] if i > 0 else 0) + 1
            maximum = len(ordered) - (bins - 1 - i)
            boundaries[i] = min(max(boundaries[i], minimum), maximum)
    return boundaries


def _bin_of(index: int, boundaries: Sequence[int]) -> int:
    """Which bin an ordered index falls into, given bin end boundaries."""
    for bin_index, end in enumerate(boundaries):
        if index < end:
            return bin_index
    return len(boundaries) - 1


def build_grid(
    stats: Sequence[TenantPlacementStats],
    rows: int = 3,
    columns: int = 3,
) -> GridClustering:
    """Cluster tenants into the rows x columns grid with equal space per cell.

    The reimage axis is split first into ``rows`` equal-space groups, then
    each group is split independently into ``columns`` equal-space
    peak-utilization bins.  Splitting the columns *within* each row is what
    makes every cell hold roughly S/(rows*columns) of the total space even
    when reimage rate and peak utilization are correlated (and is why, as in
    the paper's Figure 8, the utilization boundaries of different rows do not
    align).
    """
    if rows <= 0 or columns <= 0:
        raise ValueError("rows and columns must be positive")
    stats = list(stats)
    cells: Dict[Tuple[int, int], GridCell] = {
        (r, c): GridCell(r, c) for r in range(rows) for c in range(columns)
    }
    cell_of_tenant: Dict[str, Tuple[int, int]] = {}
    stats_by_tenant = {s.tenant_id: s for s in stats}

    if not stats:
        return GridClustering(rows, columns, cells, cell_of_tenant, stats_by_tenant)

    by_reimage = sorted(stats, key=lambda s: (s.reimage_rate, s.tenant_id))
    row_boundaries = _equal_space_boundaries(by_reimage, rows)

    row_members: Dict[int, List[TenantPlacementStats]] = {r: [] for r in range(rows)}
    for index, tenant in enumerate(by_reimage):
        row_members[_bin_of(index, row_boundaries)].append(tenant)

    for row, members in row_members.items():
        if not members:
            continue
        by_peak = sorted(members, key=lambda s: (s.peak_utilization, s.tenant_id))
        column_boundaries = _equal_space_boundaries(by_peak, columns)
        for index, tenant in enumerate(by_peak):
            column = _bin_of(index, column_boundaries)
            cell = cells[(row, column)]
            cell.tenant_ids.append(tenant.tenant_id)
            cell.total_space_gb += tenant.available_space_gb
            cell_of_tenant[tenant.tenant_id] = (row, column)

    return GridClustering(rows, columns, cells, cell_of_tenant, stats_by_tenant)


"""Algorithm 2: diversity-maximizing replica placement.

Given the 3x3 grid clustering of primary tenants (reimage frequency x peak
utilization), the replica placer chooses one server for each replica of a new
block:

1. the first replica goes to the server creating the block (locality), and
   that server's grid cell counts as "used";
2. every subsequent replica picks a random cell whose row *and* column have
   not been used yet in the current round, then a random tenant in that cell
   whose environment (and, optionally, rack) has not already received a
   replica, then a random server of that tenant;
3. after every three replicas the row/column history is forgotten, so
   replication levels above three keep spreading across the grid.

The placer also supports a *soft-constraint* mode that mirrors the initial
production configuration (space over diversity): when the hard constraints
cannot be met, they are relaxed in order (rack, environment, row/column)
instead of failing the block creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.grid import GridCell, GridClustering
from repro.simulation.random import Draws, RandomSource

#: Pool size at which the index-pool scans switch from plain Python lists to
#: numpy masks.  Both branches build identical candidate pools in identical
#: order and consume the random stream purely by pool length, so the switch
#: is invisible to a fixed seed; below this size numpy's per-op overhead
#: loses to list comprehensions.
_VECTOR_MIN = 16


@dataclass(frozen=True)
class PlacementConstraints:
    """Which diversity constraints the placer enforces.

    Attributes:
        distinct_rows_and_columns: never reuse a grid row or column within a
            round of three replicas (the core of Algorithm 2).
        distinct_environments: never place two replicas of a block in the
            same management environment.
        distinct_racks: never place two replicas of a block in the same
            physical rack (production extension, Section 7).
        hard: when True a block creation fails if the constraints cannot be
            met; when False the constraints are relaxed in order (rack, then
            environment, then rows/columns) — the "space over diversity"
            configuration.
    """

    distinct_rows_and_columns: bool = True
    distinct_environments: bool = True
    distinct_racks: bool = False
    hard: bool = True


@dataclass
class PlacementDecision:
    """The outcome of placing one block's replicas.

    Attributes:
        server_ids: chosen servers, one per replica, in placement order.
        tenant_ids: owning tenant of each chosen server.
        cells: grid cell of each chosen server.
        relaxed_constraints: names of constraints that had to be relaxed
            (only possible in soft mode).
        complete: True when the requested replication level was reached.
    """

    server_ids: List[str] = field(default_factory=list)
    tenant_ids: List[str] = field(default_factory=list)
    cells: List[Tuple[int, int]] = field(default_factory=list)
    relaxed_constraints: List[str] = field(default_factory=list)
    complete: bool = False

    @property
    def replication(self) -> int:
        """Number of replicas actually placed."""
        return len(self.server_ids)


class ReplicaPlacer:
    """Implements Algorithm 2 over a grid clustering."""

    def __init__(
        self,
        grid: GridClustering,
        rng: Optional[RandomSource] = None,
        constraints: PlacementConstraints = PlacementConstraints(),
        space_used_gb: Optional[Dict[str, float]] = None,
        block_size_gb: float = 0.25,
    ) -> None:
        self._grid = grid
        self._rng = rng or RandomSource(0)
        self._constraints = constraints
        #: Space already consumed on each tenant, so the placer can skip
        #: tenants whose harvestable space is exhausted.
        self._space_used_gb: Dict[str, float] = dict(space_used_gb or {})
        if block_size_gb <= 0:
            raise ValueError("block_size_gb must be positive")
        self._block_size_gb = block_size_gb
        #: ``(grid, environment, rack, relaxed name)`` constraint sets, tried
        #: in order for each replica; soft mode relaxes rack, then
        #: environment, then rows/columns.
        self._relaxation_plan: List[Tuple[bool, bool, bool, Optional[str]]] = [
            (
                constraints.distinct_rows_and_columns,
                constraints.distinct_environments,
                constraints.distinct_racks,
                None,
            )
        ]
        if not constraints.hard:
            if constraints.distinct_racks:
                self._relaxation_plan.append(
                    (
                        constraints.distinct_rows_and_columns,
                        constraints.distinct_environments,
                        False,
                        "rack",
                    )
                )
            if constraints.distinct_environments:
                self._relaxation_plan.append(
                    (constraints.distinct_rows_and_columns, False, False, "environment")
                )
            if constraints.distinct_rows_and_columns:
                self._relaxation_plan.append((False, False, False, "rows_and_columns"))
        self._index_grid()

    def _index_grid(self) -> None:
        """Precompute the columnar lookups the per-block hot path uses.

        Tenants become rows of flat numpy columns (available space, space
        used, environment code, grid cell), servers become rows of a global
        index (tenant-major, ``server_ids`` order) with integer rack codes,
        and each non-empty cell keeps its candidate tenants as an index
        array in the same order the scalar per-stats scan used.
        """
        grid = self._grid
        self._tenant_ids: List[str] = list(grid.stats_by_tenant)
        self._tenant_index: Dict[str, int] = {
            tenant_id: i for i, tenant_id in enumerate(self._tenant_ids)
        }
        stats_list = [grid.stats_by_tenant[tid] for tid in self._tenant_ids]
        n = len(stats_list)
        self._avail = np.array([s.available_space_gb for s in stats_list])
        self._used = np.array(
            [self._space_used_gb.get(tid, 0.0) for tid in self._tenant_ids]
        )
        env_code: Dict[str, int] = {}
        self._env_codes = np.array(
            [env_code.setdefault(s.environment, len(env_code)) for s in stats_list],
            dtype=np.int64,
        )
        self._cell_rows = np.full(n, -1, dtype=np.int64)
        self._cell_cols = np.full(n, -1, dtype=np.int64)
        for i, tenant_id in enumerate(self._tenant_ids):
            cell = grid.cell_of_tenant.get(tenant_id)
            if cell is not None:
                self._cell_rows[i], self._cell_cols[i] = cell

        # Global server universe (tenant-major, per-tenant server_ids order
        # — the candidate order of the scalar per-server scan).  Rack code
        # -1 marks "no rack", which passes every rack-inequality filter.
        server_ids: List[str] = []
        server_tenant: List[int] = []
        rack_codes: List[int] = []
        rack_code_of: Dict[str, int] = {}
        self._servers_of_tenant: List[np.ndarray] = []
        for i, stats in enumerate(stats_list):
            start = len(server_ids)
            for server_id in stats.server_ids:
                server_ids.append(server_id)
                server_tenant.append(i)
                rack = stats.racks_by_server.get(server_id)
                rack_codes.append(
                    -1
                    if rack is None
                    else rack_code_of.setdefault(rack, len(rack_code_of))
                )
            self._servers_of_tenant.append(
                np.arange(start, len(server_ids), dtype=np.int64)
            )
        self._server_ids = server_ids
        self._server_index: Dict[str, int] = {
            server_id: i for i, server_id in enumerate(server_ids)
        }
        self._server_tenant = np.array(server_tenant, dtype=np.int64)
        self._server_rack = np.array(rack_codes, dtype=np.int64)

        self._non_empty_cells: List[GridCell] = grid.non_empty_cells()
        #: Per non-empty cell (by position), its grid row and column and its
        #: candidate tenant indices with the static "has servers" filter
        #: baked in, in the cell's ``tenant_ids`` order.
        self._cell_rc: List[Tuple[int, int]] = [
            (cell.row, cell.column) for cell in self._non_empty_cells
        ]
        self._cell_tenants: List[np.ndarray] = [
            np.array(
                [
                    self._tenant_index[tenant_id]
                    for tenant_id in cell.tenant_ids
                    if grid.stats_by_tenant[tenant_id].server_ids
                ],
                dtype=np.int64,
            )
            for cell in self._non_empty_cells
        ]
        #: Cells whose row and column are both unused, per used-row and
        #: used-column bitsets; filled on demand.
        self._open_cells: Dict[Tuple[int, int], List[int]] = {}
        # Plain-list mirrors of the columns for the per-replica reads and
        # the small-pool fast path: below ``_VECTOR_MIN`` candidates, Python
        # list scans beat numpy's per-op overhead (the shipped grids have a
        # handful of tenants per cell); wide pools take the mask path.
        # ``_used_list`` is kept in sync by ``_consume_space`` /
        # ``release_space``.
        self._avail_list: List[float] = self._avail.tolist()
        self._used_list: List[float] = self._used.tolist()
        self._env_list: List[int] = self._env_codes.tolist()
        self._rack_list: List[int] = self._server_rack.tolist()
        self._cell_row_list: List[int] = self._cell_rows.tolist()
        self._cell_col_list: List[int] = self._cell_cols.tolist()
        self._server_tenant_list: List[int] = self._server_tenant.tolist()
        self._cell_tenant_lists: List[List[int]] = [
            tenants.tolist() for tenants in self._cell_tenants
        ]
        self._server_lists: List[List[int]] = [
            servers.tolist() for servers in self._servers_of_tenant
        ]
        #: The last exclusion mask :meth:`place_block_indices` saw, its
        #: plain-list mirror, and per tenant the servers it leaves free
        #: (filled on demand; the small-pool path reads them).
        self._excluded_key: Optional[np.ndarray] = None
        self._excluded: List[bool] = []
        self._free_servers: List[Optional[List[int]]] = []
        self._nothing_excluded = np.zeros(len(server_ids), dtype=bool)

    @property
    def num_servers(self) -> int:
        """Size of the placer's internal server universe."""
        return len(self._server_ids)

    def server_index_of(self, server_id: str) -> Optional[int]:
        """Internal row of a server id (None when the grid doesn't know it)."""
        return self._server_index.get(server_id)

    # -- bookkeeping -------------------------------------------------------

    @property
    def grid(self) -> GridClustering:
        """The grid clustering the placer operates on."""
        return self._grid

    def space_used_gb(self, tenant_id: str) -> float:
        """Space already consumed on a tenant by placed replicas."""
        return self._space_used_gb.get(tenant_id, 0.0)

    def remaining_space_gb(self, tenant_id: str) -> float:
        """Harvestable space a tenant still offers."""
        stats = self._grid.stats_by_tenant.get(tenant_id)
        if stats is None:
            return 0.0
        return max(0.0, stats.available_space_gb - self.space_used_gb(tenant_id))

    def release_space(self, tenant_id: str, gigabytes: float) -> None:
        """Return space (e.g. after a block is deleted or a replica lost)."""
        if gigabytes < 0:
            raise ValueError("released space must be non-negative")
        current = self._space_used_gb.get(tenant_id, 0.0)
        value = max(0.0, current - gigabytes)
        self._space_used_gb[tenant_id] = value
        index = self._tenant_index.get(tenant_id)
        if index is not None:
            self._used[index] = value
            self._used_list[index] = value

    def _consume_space(self, tenant_internal: int) -> None:
        """Account one replica's space on a tenant (array and dict in sync)."""
        tenant_id = self._tenant_ids[tenant_internal]
        value = self._space_used_gb.get(tenant_id, 0.0) + self._block_size_gb
        self._space_used_gb[tenant_id] = value
        self._used[tenant_internal] = value
        self._used_list[tenant_internal] = value

    # -- placement -----------------------------------------------------------

    def place_block(
        self,
        replication: int,
        creating_server_id: Optional[str] = None,
        excluded_servers: Optional[Set[str]] = None,
    ) -> PlacementDecision:
        """Choose a server for each of a new block's ``replication`` replicas.

        ``excluded_servers`` are servers that cannot receive a replica right
        now (e.g. the NameNode marked them busy); they are skipped entirely,
        including for the locality replica.
        """
        # An unchanged (empty) exclusion keeps one mask, so the per-mask
        # caches of :meth:`place_block_indices` carry over between calls.
        used_mask = self._nothing_excluded
        if excluded_servers:
            used_mask = np.zeros(len(self._server_ids), dtype=bool)
            for server_id in excluded_servers:
                index = self._server_index.get(server_id)
                if index is not None:
                    used_mask[index] = True
        creating_index = (
            self._server_index.get(creating_server_id)
            if creating_server_id is not None
            else None
        )
        picks, relaxed, complete = self.place_block_indices(
            replication, creating_index, used_mask, self._rng
        )
        decision = PlacementDecision(relaxed_constraints=relaxed, complete=complete)
        for server_internal, tenant_internal in picks:
            decision.server_ids.append(self._server_ids[server_internal])
            decision.tenant_ids.append(self._tenant_ids[tenant_internal])
            row = self._cell_row_list[tenant_internal]
            column = self._cell_col_list[tenant_internal]
            decision.cells.append((row, column) if row >= 0 else (-1, -1))
        return decision

    def place_block_indices(
        self,
        replication: int,
        creating_index: Optional[int],
        used_mask: np.ndarray,
        draws: Draws,
    ) -> Tuple[List[Tuple[int, int]], List[str], bool]:
        """Index-pool twin of :meth:`place_block`, over internal server rows.

        ``used_mask`` marks servers that may not receive a replica; it is
        read, never written, and its plain-list mirror is cached by
        identity, so a caller that changes the exclusions must pass a new
        array.  ``draws`` is this placer's stream or a buffered session
        open on it.
        Returns ``(picks, relaxed_constraints, complete)`` where each pick
        is an ``(internal server row, internal tenant row)`` pair.

        Draw-exactness: the cell shuffle, the per-cell candidate-tenant
        shuffle, and the one bounded-integer server pick consume the random
        stream exactly as the scalar object-list implementation did —
        shuffles depend only on sequence length, and every candidate pool is
        built in the same order the scalar scans walked — so a fixed seed
        places identically (``tests/test_core_placement.py`` keeps a scalar
        oracle).
        """
        if replication <= 0:
            raise ValueError(f"replication must be positive (got {replication})")
        if used_mask is not self._excluded_key:
            self._excluded_key = used_mask
            self._excluded = used_mask.tolist()
            self._free_servers = [None] * len(self._server_lists)
        excluded = self._excluded

        picks: List[Tuple[int, int]] = []
        placed: List[int] = []
        placed_tenants: List[int] = []
        relaxed: List[str] = []
        # Rows and columns used in the current round of three, as bitsets.
        used_rows = used_columns = 0
        used_environments: List[int] = []
        used_racks: List[int] = []
        cell_rows, cell_cols = self._cell_row_list, self._cell_col_list
        envs, racks = self._env_list, self._rack_list

        def record(server_internal: int, tenant_internal: int) -> None:
            nonlocal used_rows, used_columns
            row = cell_rows[tenant_internal]
            if row >= 0:
                used_rows |= 1 << row
                used_columns |= 1 << cell_cols[tenant_internal]
            environment = envs[tenant_internal]
            if environment not in used_environments:
                used_environments.append(environment)
            rack = racks[server_internal]
            if rack >= 0 and rack not in used_racks:
                used_racks.append(rack)
            placed.append(server_internal)
            placed_tenants.append(tenant_internal)
            self._consume_space(tenant_internal)
            picks.append((server_internal, tenant_internal))

        if creating_index is not None and not excluded[creating_index]:
            tenant_internal = self._server_tenant_list[creating_index]
            if (
                self._avail_list[tenant_internal] - self._used_list[tenant_internal]
                >= self._block_size_gb
            ):
                # Replica 1: the creating server itself, for locality.
                record(creating_index, tenant_internal)

        while len(picks) < replication:
            for enforce_grid, enforce_env, enforce_rack, name in self._relaxation_plan:
                chosen = self._try_place(
                    self._cells_open(used_rows, used_columns) if enforce_grid else None,
                    enforce_env and bool(used_environments),
                    enforce_rack and bool(used_racks),
                    used_environments,
                    used_racks,
                    used_mask,
                    placed,
                    placed_tenants,
                    draws,
                )
                if chosen is not None:
                    break
            else:
                return picks, relaxed, False
            if name is not None and name not in relaxed:
                relaxed.append(name)
            record(*chosen)
            # Line 15-17 of Algorithm 2: after every three replicas, forget
            # the rows and columns selected so far.
            if len(picks) % 3 == 0:
                used_rows = used_columns = 0

        return picks, relaxed, True

    def _cells_open(self, used_rows: int, used_columns: int) -> List[int]:
        """Positions of the cells whose row and column are both unused."""
        key = (used_rows, used_columns)
        cells = self._open_cells.get(key)
        if cells is None:
            cells = self._open_cells[key] = [
                position
                for position, (row, column) in enumerate(self._cell_rc)
                if not (used_rows >> row) & 1 and not (used_columns >> column) & 1
            ]
        return cells

    def _try_place(
        self,
        cells: Optional[List[int]],
        env_on: bool,
        rack_on: bool,
        used_environments: List[int],
        used_racks: List[int],
        used_mask: np.ndarray,
        placed: List[int],
        placed_tenants: List[int],
        draws: Draws,
    ) -> Optional[Tuple[int, int]]:
        """One attempt at placing a replica under the given constraint set.

        ``cells`` are the cell positions the grid constraint leaves open
        (``None``: every non-empty cell).  ``env_on`` / ``rack_on`` are set
        only when the constraint is enforced and some replica already
        claimed an environment / rack.  Servers in ``used_mask`` or
        ``placed`` (which belong to ``placed_tenants``) are skipped; only
        the two shuffles and the final bounded server pick touch the random
        stream.
        """
        if cells is None:
            cells = range(len(self._cell_rc))
        block_size = self._block_size_gb
        avail, used, envs = self._avail_list, self._used_list, self._env_list
        racks, free_servers = self._rack_list, self._free_servers
        # Shuffle cells so the random choice below explores all of them
        # (``shuffle`` copies, so the cached cell list stays untouched).
        for cell in draws.shuffle(cells):
            tenant_pool = self._cell_tenant_lists[cell]
            # Both branches build the same candidate membership in the same
            # order; the shuffles below consume the stream purely by length,
            # so the paths are interchangeable draw for draw.
            if len(tenant_pool) < _VECTOR_MIN:
                candidates = [
                    t
                    for t in tenant_pool
                    if avail[t] - used[t] >= block_size
                    and not (env_on and envs[t] in used_environments)
                ]
                if not candidates:
                    continue
                shuffled = draws.shuffle(candidates)
            else:
                tenants = self._cell_tenants[cell]
                mask = self._avail[tenants] - self._used[tenants] >= block_size
                if env_on:
                    environments = self._env_codes[tenants]
                    for code in used_environments:
                        mask &= environments != code
                if not mask.any():
                    continue
                shuffled = draws.shuffle_array(tenants[mask]).tolist()
            for tenant_internal in shuffled:
                server_pool = self._server_lists[tenant_internal]
                if len(server_pool) < _VECTOR_MIN:
                    pool = free_servers[tenant_internal]
                    if pool is None:
                        excluded = self._excluded
                        pool = free_servers[tenant_internal] = [
                            s for s in server_pool if not excluded[s]
                        ]
                    if rack_on:
                        pool = [
                            s
                            for s in pool
                            if s not in placed and racks[s] not in used_racks
                        ]
                    elif tenant_internal in placed_tenants:
                        pool = [s for s in pool if s not in placed]
                else:
                    servers = self._servers_of_tenant[tenant_internal]
                    ok = ~used_mask[servers]
                    for server in placed:
                        ok &= servers != server
                    if rack_on:
                        server_racks = self._server_rack[servers]
                        # Rack code -1 ("no rack") never equals a used code,
                        # so the scalar ``rack is not None`` guard is
                        # implicit.
                        for code in used_racks:
                            ok &= server_racks != code
                    pool = servers[ok].tolist()
                if pool:
                    return pool[draws.integer(0, len(pool))], tenant_internal
        return None

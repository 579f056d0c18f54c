"""Replica placement policies for the NameNode.

Three policies mirror the paper's systems:

* :class:`StockPlacementPolicy` — the default HDFS rule: first replica on the
  creating server, second on another server of the same rack, third on a
  remote rack.  It knows nothing about primary tenants.
* the PT variant simply reuses the stock policy but the NameNode excludes
  busy servers from the candidate set (that part lives in the NameNode).
* :class:`HistoryPlacementPolicy` — Algorithm 2: the two-dimensional grid
  clustering plus the row/column/environment diversity constraints,
  delegating to :class:`repro.core.placement.ReplicaPlacer`.

The NameNode calls :meth:`~PlacementPolicy.choose_server_indices` over
server indices and an exclusion mask; each policy's id-based
``choose_servers`` is the scalar reference that entry point is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.core.grid import GridClustering, TenantPlacementStats, build_grid
from repro.core.placement import PlacementConstraints, ReplicaPlacer
from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode


@dataclass(frozen=True)
class PlacementContext:
    """Precomputed per-server arrays for the vectorized placement paths.

    Built once by the NameNode (server order = DataNode registration order)
    so per-block placement never rebuilds per-server candidate lists in
    Python.  ``rack_codes`` assigns one integer per distinct rack, in first-
    appearance order — rack equality is all the stock rule needs.
    """

    server_ids: Sequence[str]
    racks: Sequence[str]
    rack_codes: np.ndarray

    @classmethod
    def build(
        cls, server_ids: Sequence[str], racks: Sequence[str]
    ) -> "PlacementContext":
        """Derive the rack code array from the per-server rack names."""
        code_of: Dict[str, int] = {}
        codes = np.array(
            [code_of.setdefault(rack, len(code_of)) for rack in racks],
            dtype=np.int64,
        )
        return cls(server_ids=list(server_ids), racks=list(racks), rack_codes=codes)


class PlacementPolicy(Protocol):
    """Interface the NameNode uses to pick replica destinations."""

    def choose_server_indices(
        self,
        replication: int,
        creating_index: Optional[int],
        excluded_mask: np.ndarray,
        context: PlacementContext,
        candidates: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Return up to ``replication`` distinct server indices for a block.

        ``excluded_mask`` flags every server that cannot take a replica
        (busy, or without room for the block); ``candidates``, when given,
        is ``np.flatnonzero(~excluded_mask)`` and keeps its identity while
        the mask is unchanged.
        """
        ...


class StockPlacementPolicy:
    """Default HDFS placement: local server, same rack, then remote racks."""

    def __init__(self, rng: Optional[RandomSource] = None) -> None:
        self._rng = rng or RandomSource(0)
        # Rack-pool cache for the vectorized path: valid while the caller
        # keeps passing the same candidates array (batch creation does).
        self._pool_cache_key: Optional[np.ndarray] = None
        self._same_rack_pools: Dict[int, np.ndarray] = {}
        self._remote_pools: Dict[tuple, np.ndarray] = {}

    def choose_server_indices(
        self,
        replication: int,
        creating_index: Optional[int],
        excluded_mask: np.ndarray,
        context: PlacementContext,
        candidates: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Vectorized twin of :meth:`choose_servers`, over server indices.

        Candidate pools are numpy index arrays (ascending server order, the
        order ``datanodes.items()`` yields) and every ``pick`` draws one
        bounded integer — the same stream consumption as the scalar path's
        ``choice(pool_list)`` — so a fixed seed picks identical servers
        through either entry point.  Batch callers may pass ``candidates``
        (``np.flatnonzero(~excluded_mask)``) to reuse it while the mask is
        unchanged; the rack-pool caches are keyed by that array's identity,
        so a caller that mutates the mask MUST pass a fresh candidates array
        (or ``None``) afterwards — ``NameNode.create_blocks`` nulls it on
        every exclusion flip.
        """
        if replication <= 0:
            raise ValueError("replication must be positive")
        if candidates is None:
            candidates = np.flatnonzero(~excluded_mask)
        if not len(candidates):
            return []
        rack_codes = context.rack_codes
        if self._pool_cache_key is not candidates:
            self._pool_cache_key = candidates
            self._same_rack_pools = {}
            self._remote_pools = {}
        chosen: List[int] = []
        chosen_racks: List[int] = []

        def pick(pool: np.ndarray) -> Optional[int]:
            # ``chosen`` holds at most ``replication`` entries, so chained
            # elementwise compares beat ``np.isin``'s sort-based machinery.
            if chosen:
                mask = pool != chosen[0]
                for index in chosen[1:]:
                    mask &= pool != index
                pool = pool[mask]
            if not len(pool):
                return None
            return int(pool[self._rng.integer(0, len(pool))])

        # Replica 1: the creating server when possible, otherwise random.
        first: Optional[int] = None
        if creating_index is not None and not excluded_mask[creating_index]:
            first = int(creating_index)
        if first is None:
            first = pick(candidates)
        if first is None:
            return []
        chosen.append(first)
        chosen_racks.append(int(rack_codes[first]))

        # Replica 2: same rack as the first, if any other server is there.
        if len(chosen) < replication:
            same_rack = self._same_rack_pools.get(chosen_racks[0])
            if same_rack is None:
                same_rack = candidates[rack_codes[candidates] == chosen_racks[0]]
                self._same_rack_pools[chosen_racks[0]] = same_rack
            second = pick(same_rack)
            if second is None:
                second = pick(candidates)
            if second is not None:
                chosen.append(second)
                chosen_racks.append(int(rack_codes[second]))

        # Remaining replicas: prefer racks not used yet.
        while len(chosen) < replication:
            rack_key = tuple(sorted(set(chosen_racks)))
            remote = self._remote_pools.get(rack_key)
            if remote is None:
                candidate_racks = rack_codes[candidates]
                mask = candidate_racks != chosen_racks[0]
                for code in chosen_racks[1:]:
                    mask &= candidate_racks != code
                remote = candidates[mask]
                self._remote_pools[rack_key] = remote
            nxt = pick(remote)
            if nxt is None:
                nxt = pick(candidates)
            if nxt is None:
                break
            chosen.append(nxt)
            chosen_racks.append(int(rack_codes[nxt]))
        return chosen

    def choose_servers(
        self,
        replication: int,
        creating_server_id: Optional[str],
        datanodes: Dict[str, DataNode],
        exclude: Sequence[str] = (),
    ) -> List[str]:
        """Pick servers with the rack-aware stock rule, over server ids.

        The scalar reference for :meth:`choose_server_indices`; servers
        without room for the block belong in ``exclude``.
        """
        if replication <= 0:
            raise ValueError("replication must be positive")
        excluded = set(exclude)
        candidates = [
            (sid, dn.server.rack)
            for sid, dn in datanodes.items()
            if sid not in excluded
        ]
        if not candidates:
            return []

        chosen: List[str] = []
        chosen_racks: List[str] = []

        def pick(pool: List[tuple]) -> Optional[tuple]:
            pool = [entry for entry in pool if entry[0] not in chosen]
            if not pool:
                return None
            return self._rng.choice(pool)

        # Replica 1: the creating server when possible, otherwise random.
        first: Optional[tuple] = None
        if creating_server_id in datanodes and creating_server_id not in excluded:
            first = (creating_server_id, datanodes[creating_server_id].server.rack)
        if first is None:
            first = pick(candidates)
        if first is None:
            return []
        chosen.append(first[0])
        chosen_racks.append(first[1])

        # Replica 2: same rack as the first, if any other server is there.
        if len(chosen) < replication:
            same_rack = [entry for entry in candidates if entry[1] == chosen_racks[0]]
            second = pick(same_rack) or pick(candidates)
            if second is not None:
                chosen.append(second[0])
                chosen_racks.append(second[1])

        # Remaining replicas: prefer racks not used yet.
        while len(chosen) < replication:
            remote = [entry for entry in candidates if entry[1] not in chosen_racks]
            nxt = pick(remote) or pick(candidates)
            if nxt is None:
                break
            chosen.append(nxt[0])
            chosen_racks.append(nxt[1])
        return chosen


class HistoryPlacementPolicy:
    """Algorithm 2 placement on top of the two-dimensional grid clustering."""

    def __init__(
        self,
        rng: Optional[RandomSource] = None,
        constraints: PlacementConstraints = PlacementConstraints(),
        rows: int = 3,
        columns: int = 3,
        block_size_gb: float = 0.25,
    ) -> None:
        self._rng = rng or RandomSource(0)
        self._constraints = constraints
        self._rows = rows
        self._columns = columns
        self._block_size_gb = block_size_gb
        self._placer: Optional[ReplicaPlacer] = None
        # Caches for the vectorized entry point: the context->placer index
        # maps (rebuilt when the grid or context changes) and the mapped
        # exclusion mask (valid while the caller's candidates array identity
        # is stable, exactly like the stock policy's pool caches).
        self._map_cache: Optional[tuple] = None
        self._mask_cache_key: Optional[np.ndarray] = None
        self._mask_cache: Optional[np.ndarray] = None

    @property
    def grid(self) -> Optional[GridClustering]:
        """The current grid clustering (None before the first update)."""
        if self._placer is None:
            return None
        return self._placer.grid

    def update_clustering(self, stats: Sequence[TenantPlacementStats]) -> None:
        """(Re)build the grid from fresh tenant statistics.

        Space already consumed by previously placed replicas is carried over
        so the placer keeps respecting per-tenant quotas across refreshes.
        """
        grid = build_grid(stats, rows=self._rows, columns=self._columns)
        space_used = None
        if self._placer is not None:
            space_used = {
                tenant_id: self._placer.space_used_gb(tenant_id)
                for tenant_id in grid.stats_by_tenant
            }
        self._placer = ReplicaPlacer(
            grid,
            rng=self._rng,
            constraints=self._constraints,
            space_used_gb=space_used,
            block_size_gb=self._block_size_gb,
        )
        self._map_cache = None
        self._mask_cache_key = None
        self._mask_cache = None

    def _index_maps(self, context: PlacementContext) -> tuple:
        """NameNode-order <-> placer-internal index maps, cached per grid."""
        placer = self._placer
        cache = self._map_cache
        if cache is not None and cache[0] is placer and cache[1] is context:
            return cache
        to_internal = np.array(
            [
                -1 if (i := placer.server_index_of(sid)) is None else i
                for sid in context.server_ids
            ],
            dtype=np.int64,
        )
        to_caller = np.full(placer.num_servers, -1, dtype=np.int64)
        known = to_internal >= 0
        to_caller[to_internal[known]] = np.flatnonzero(known)
        cache = (placer, context, to_internal, to_caller)
        self._map_cache = cache
        self._mask_cache_key = None
        self._mask_cache = None
        return cache

    def choose_server_indices(
        self,
        replication: int,
        creating_index: Optional[int],
        excluded_mask: np.ndarray,
        context: PlacementContext,
        candidates: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Vectorized twin of :meth:`choose_servers`, over server indices.

        The caller's exclusion mask (NameNode server order, space already
        filtered in) is gathered into the placer's internal order once and
        reused while ``candidates`` keeps the same identity, mirroring
        :meth:`StockPlacementPolicy.choose_server_indices`'s caching
        contract; placement itself is the draw-exact
        :meth:`~repro.core.placement.ReplicaPlacer.place_block_indices`.
        """
        if self._placer is None:
            raise RuntimeError(
                "HistoryPlacementPolicy.update_clustering must run before placement"
            )
        placer, _, to_internal, to_caller = self._index_maps(context)
        if candidates is not None and self._mask_cache_key is candidates:
            internal_excluded = self._mask_cache
        else:
            internal_excluded = np.zeros(placer.num_servers, dtype=bool)
            known = to_internal >= 0
            internal_excluded[to_internal[known]] = excluded_mask[known]
            if candidates is not None:
                self._mask_cache_key = candidates
                self._mask_cache = internal_excluded
        creating_internal: Optional[int] = None
        if creating_index is not None:
            mapped = int(to_internal[creating_index])
            if mapped >= 0:
                creating_internal = mapped
        picks, _, _ = placer.place_block_indices(
            replication, creating_internal, internal_excluded.copy()
        )
        chosen: List[int] = []
        for server_internal, _ in picks:
            caller_index = int(to_caller[server_internal])
            if caller_index < 0:
                raise KeyError(
                    f"placer chose {placer._server_ids[server_internal]!r}, "
                    "which is not a registered DataNode"
                )
            chosen.append(caller_index)
        return chosen

    def choose_servers(
        self,
        replication: int,
        creating_server_id: Optional[str],
        exclude: Sequence[str] = (),
    ) -> List[str]:
        """Pick servers with Algorithm 2, over server ids.

        The scalar reference for :meth:`choose_server_indices`.  Servers
        that are busy or out of space belong in ``exclude``: the placer must
        know them up front so it can pick alternatives that still satisfy
        the diversity constraints.
        """
        if self._placer is None:
            raise RuntimeError(
                "HistoryPlacementPolicy.update_clustering must run before placement"
            )
        decision = self._placer.place_block(
            replication, creating_server_id, excluded_servers=set(exclude)
        )
        return list(decision.server_ids)

    def release_space(self, tenant_id: str, gigabytes: float) -> None:
        """Return space to a tenant after a replica is destroyed or deleted."""
        if self._placer is not None:
            self._placer.release_space(tenant_id, gigabytes)

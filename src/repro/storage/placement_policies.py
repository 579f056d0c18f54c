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
server indices and an exclusion mask, drawing from a buffered session it
opens on the policy's :attr:`~PlacementPolicy.rng`; each policy's id-based
``choose_servers`` is the scalar reference that entry point is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.core.grid import GridClustering, TenantPlacementStats, build_grid
from repro.core.placement import PlacementConstraints, ReplicaPlacer
from repro.simulation.random import Draws, RandomSource
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

    #: The stream every placement draw comes from; the NameNode opens one
    #: :meth:`~repro.simulation.random.RandomSource.buffered_draws` session
    #: on it per batch of blocks.
    rng: RandomSource

    def choose_server_indices(
        self,
        replication: int,
        creating_index: Optional[int],
        excluded_mask: np.ndarray,
        context: PlacementContext,
        candidates: Optional[np.ndarray],
        draws: Draws,
    ) -> List[int]:
        """Return up to ``replication`` distinct server indices for a block.

        ``excluded_mask`` flags every server that cannot take a replica
        (busy, or without room for the block); ``candidates``, when given,
        is ``np.flatnonzero(~excluded_mask)`` and keeps its identity while
        the mask is unchanged.  ``draws`` is :attr:`rng` or a buffered
        session open on it.
        """
        ...


class StockPlacementPolicy:
    """Default HDFS placement: local server, same rack, then remote racks."""

    def __init__(self, rng: Optional[RandomSource] = None) -> None:
        self.rng = rng or RandomSource(0)
        # Pool caches for the index path: valid while the caller keeps
        # passing the same candidates array (batch creation does).
        self._pool_cache_key: Optional[np.ndarray] = None
        self._candidate_pool: Optional[List[int]] = None
        self._candidate_racks: Optional[np.ndarray] = None
        self._same_rack_pools: Dict[int, List[int]] = {}
        self._remote_pools: Dict[frozenset, List[int]] = {}

    def choose_server_indices(
        self,
        replication: int,
        creating_index: Optional[int],
        excluded_mask: np.ndarray,
        context: PlacementContext,
        candidates: Optional[np.ndarray],
        draws: Draws,
    ) -> List[int]:
        """Index twin of :meth:`choose_servers`, over server indices.

        Candidate pools are built with numpy masks and kept as ascending
        lists of server indices (the order ``datanodes.items()`` yields),
        and every ``pick`` draws one bounded integer over the pool minus the
        servers already chosen — the same stream consumption as the scalar
        path's ``choice(pool_list)`` — so a fixed seed picks identical
        servers through either entry point.  Batch callers may pass
        ``candidates`` (``np.flatnonzero(~excluded_mask)``) to reuse it
        while the mask is unchanged; the pool caches are keyed by that
        array's identity, so a
        caller that mutates the mask MUST pass a fresh candidates array (or
        ``None``) afterwards — ``NameNode.create_blocks`` nulls it on every
        exclusion flip.
        """
        if replication <= 0:
            raise ValueError("replication must be positive")
        if candidates is None:
            candidates = np.flatnonzero(~excluded_mask)
        if self._pool_cache_key is not candidates:
            self._pool_cache_key = candidates
            self._candidate_pool = None
            self._candidate_racks = context.rack_codes[candidates]
            self._same_rack_pools = {}
            self._remote_pools = {}
        if not len(candidates):
            return []
        rack_codes = context.rack_codes
        chosen: List[int] = []
        chosen_racks: List[int] = []

        def pick(pool: List[int]) -> Optional[int]:
            # Draw as if over ``pool`` with the chosen servers filtered out:
            # pools ascend, so each chosen member's position is a bisect,
            # and the draw steps past those positions in order.
            taken = []
            for server in chosen:
                at = bisect_left(pool, server)
                if at < len(pool) and pool[at] == server:
                    taken.append(at)
            count = len(pool) - len(taken)
            if count <= 0:
                return None
            index = draws.integer(0, count)
            for at in sorted(taken):
                if at > index:
                    break
                index += 1
            return pool[index]

        # Replica 1: the creating server when possible, otherwise random.
        first: Optional[int] = None
        if creating_index is not None and not excluded_mask[creating_index]:
            first = int(creating_index)
        if first is None:
            first = pick(self._everywhere(candidates))
        if first is None:
            return []
        chosen.append(first)
        chosen_racks.append(int(rack_codes[first]))

        # Replica 2: same rack as the first, if any other server is there.
        if len(chosen) < replication:
            rack = chosen_racks[0]
            same_rack = self._same_rack_pools.get(rack)
            if same_rack is None:
                same_rack = candidates[self._candidate_racks == rack].tolist()
                self._same_rack_pools[rack] = same_rack
            second = pick(same_rack)
            if second is None:
                second = pick(self._everywhere(candidates))
            if second is not None:
                chosen.append(second)
                chosen_racks.append(int(rack_codes[second]))

        # Remaining replicas: prefer racks not used yet.
        while len(chosen) < replication:
            used_racks = frozenset(chosen_racks)
            remote = self._remote_pools.get(used_racks)
            if remote is None:
                # ``chosen`` holds at most ``replication`` racks, so chained
                # elementwise compares beat ``np.isin``'s sort machinery.
                mask = self._candidate_racks != chosen_racks[0]
                for code in chosen_racks[1:]:
                    mask &= self._candidate_racks != code
                remote = candidates[mask].tolist()
                self._remote_pools[used_racks] = remote
            nxt = pick(remote)
            if nxt is None:
                nxt = pick(self._everywhere(candidates))
            if nxt is None:
                break
            chosen.append(nxt)
            chosen_racks.append(int(rack_codes[nxt]))
        return chosen

    def _everywhere(self, candidates: np.ndarray) -> List[int]:
        """The whole candidate pool as a list, built on first use."""
        if self._candidate_pool is None:
            self._candidate_pool = candidates.tolist()
        return self._candidate_pool

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
            return self.rng.choice(pool)

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
        self.rng = rng or RandomSource(0)
        self._constraints = constraints
        self._rows = rows
        self._columns = columns
        self._block_size_gb = block_size_gb
        self._placer: Optional[ReplicaPlacer] = None
        # Caches for the index entry point: the context->placer index
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
            rng=self.rng,
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
        cache = (placer, context, to_internal, to_internal.tolist(), to_caller.tolist())
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
        candidates: Optional[np.ndarray],
        draws: Draws,
    ) -> List[int]:
        """Index twin of :meth:`choose_servers`, over server indices.

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
        placer, _, to_internal, internal_of, caller_of = self._index_maps(context)
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
        if creating_index is not None and internal_of[creating_index] >= 0:
            creating_internal = internal_of[creating_index]
        picks, _, _ = placer.place_block_indices(
            replication, creating_internal, internal_excluded, draws
        )
        chosen: List[int] = []
        for server_internal, _ in picks:
            caller_index = caller_of[server_internal]
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

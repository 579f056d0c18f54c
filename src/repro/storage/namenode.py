"""The Name Node: block namespace, placement, access, and recovery.

The NameNode owns the block namespace, asks its placement policy for replica
destinations when a client creates a block, answers block accesses by listing
the servers holding healthy replicas (excluding busy ones when primary-tenant
aware), and re-creates replicas destroyed by reimages subject to the
replication rate limit.

Three awareness levels match the paper's HDFS variants:

* ``HDFS-Stock`` — ``primary_aware=False`` with :class:`StockPlacementPolicy`;
* ``HDFS-PT`` — ``primary_aware=True`` with :class:`StockPlacementPolicy`;
* ``HDFS-H`` — ``primary_aware=True`` with :class:`HistoryPlacementPolicy`.

All storage state lives here: a columnar :class:`~repro.storage.block_table
.BlockTable` (one numpy row per block, plus each server's set of rows) and
per-server columns for capacity and used space.  DataNodes only configure a
server.  The hot paths — creation, batched access checking, reimage replay,
and recovery candidate picks — run as mask reductions over these columns.
Every array expression reproduces the scalar arithmetic and random-draw
ordering of the per-object path it replaced, so fixed seeds yield
bit-identical experiment results (see ``tests/test_storage_block_table.py``).
"""

from __future__ import annotations

import enum
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.simulation.random import Draws, RandomSource
from repro.storage.block_table import BlockTable
from repro.storage.datanode import DataNode
from repro.storage.placement_policies import PlacementContext, PlacementPolicy
from repro.storage.replication import ReplicationManager
from repro.traces.matrix import TraceMatrix


class AccessResult(str, enum.Enum):
    """Outcome of a block access attempt."""

    SERVED = "served"
    UNAVAILABLE = "unavailable"
    LOST = "lost"


@dataclass
class AccessBatch:
    """Outcome of one :meth:`NameNode.access_blocks` round.

    Attributes:
        served: accesses served from a healthy (and, when primary-aware,
            non-busy) replica.
        failed: accesses denied because every healthy replica was busy.
        lost: accesses that hit a lost block.
        io_load: per-server secondary-I/O fraction added by the served
            accesses, indexed like :attr:`NameNode.server_ids`.
    """

    served: int
    failed: int
    lost: int
    io_load: np.ndarray


#: Batches smaller than this draw straight from the policy's stream: a
#: buffered session's bulk draw and rewind cost about what it saves over a
#: handful of blocks (fig12 creates one block per simulated minute).  Both
#: consume the stream identically.
BUFFERED_MIN_BLOCKS = 8


class NameNode:
    """Block namespace manager with pluggable placement policy."""

    def __init__(
        self,
        datanodes: Iterable[DataNode],
        placement_policy: PlacementPolicy,
        primary_aware: bool = True,
        default_replication: int = 3,
        rng: Optional[RandomSource] = None,
        replication_manager: Optional[ReplicationManager] = None,
        trace_matrix: Optional[TraceMatrix] = None,
    ) -> None:
        self._datanodes: Dict[str, DataNode] = {dn.server_id: dn for dn in datanodes}
        if not self._datanodes:
            raise ValueError("a NameNode needs at least one DataNode")
        self._policy = placement_policy
        self._primary_aware = primary_aware
        if default_replication <= 0:
            raise ValueError("default_replication must be positive")
        self._default_replication = default_replication
        self._rng = rng or RandomSource(0)
        self._replication = replication_manager or ReplicationManager()
        self._block_counter = 0
        #: Cached count of servers with free space, invalidated whenever
        #: used space changes; the re-replication loop reads it every round.
        self._healthy_server_count: Optional[int] = None
        self._init_vector_state(trace_matrix)

    def _init_vector_state(self, trace_matrix: Optional[TraceMatrix]) -> None:
        """Build the columnar server/block state used by the hot paths.

        Busy checks and space filtering run once per block creation, recovery
        candidate pick, and access; evaluating them per DataNode in Python
        dominates the storage experiments.  The NameNode therefore keeps a
        per-server view — tenant trace row, busy threshold, capacity, and
        used space (the only record of it) — as flat numpy arrays, and a
        :class:`BlockTable` holding one row per block.
        """
        dns = list(self._datanodes.values())
        self._table = BlockTable(
            [dn.server_id for dn in dns], replica_slots=self._default_replication
        )
        self._server_ids = self._table.server_ids
        self._index_of_server = self._table.index_of_server
        if trace_matrix is None:
            tenants, seen = [], set()
            for dn in dns:
                if dn.tenant.tenant_id not in seen:
                    seen.add(dn.tenant.tenant_id)
                    tenants.append(dn.tenant)
            trace_matrix = TraceMatrix(tenants)
        self._matrix = trace_matrix
        self._server_rows = np.array(
            [self._matrix.row_of_tenant(dn.tenant.tenant_id) for dn in dns],
            dtype=np.int64,
        )
        self._server_aware = np.array([dn.primary_aware for dn in dns], dtype=bool)
        self._server_thresholds = np.array([dn.busy_threshold for dn in dns])
        self._server_capacity = np.array([dn.capacity_gb for dn in dns])
        self._capacity_list: List[float] = self._server_capacity.tolist()
        self._server_used = np.zeros(len(dns))
        self._placement_context = PlacementContext.build(
            self._server_ids, [dn.server.rack for dn in dns]
        )

    @property
    def block_table(self) -> BlockTable:
        """The columnar substrate every block hot path runs on."""
        return self._table

    @property
    def server_ids(self) -> List[str]:
        """Server ids in column order (the order io-load vectors use)."""
        return list(self._server_ids)

    @property
    def datanodes(self) -> Dict[str, DataNode]:
        """All registered DataNodes keyed by server id."""
        return self._datanodes

    def lost_block_count(self) -> int:
        """Number of blocks whose every replica has been destroyed."""
        return int(self._table.lost.sum())

    # -- block creation ----------------------------------------------------------

    def create_blocks(
        self,
        time: float,
        creating_server_ids: Sequence[Optional[str]],
        replication: Optional[int] = None,
        size_gb: float = 0.25,
    ) -> List[Optional[str]]:
        """Create one block per entry of ``creating_server_ids``, batched.

        The one creation path.  Busy servers (when primary-aware) and
        servers without space are excluded up front in one vectorized pass;
        the busy mask is a pure function of ``time``, so within the batch
        only the replicas placed here change the exclusions, and each placed
        replica re-checks its server's space over plain-float copies of the
        used-space entries the call touches.  Every placement draw of a
        batch of at least :data:`BUFFERED_MIN_BLOCKS` blocks comes from one
        buffered session on the policy's stream (smaller batches draw from
        it directly), and the placed blocks, the used space and the
        re-replication enqueues are written once at the end.  A call that
        raises writes nothing to the NameNode.  Returns the id of each
        created block (``None`` where placement found no candidates; such a
        block still consumes its id).
        """
        if replication is None:
            replication = self._default_replication
        elif replication <= 0:
            raise ValueError(f"replication must be positive (got {replication!r})")
        if not (math.isfinite(size_gb) and size_gb > 0):
            raise ValueError(f"size_gb must be positive and finite (got {size_gb!r})")
        if not len(creating_server_ids):
            return []
        busy = self._busy_mask(time) if self._primary_aware else None
        excluded_mask = ~self._space_mask(size_gb)
        if busy is not None:
            excluded_mask |= busy
        capacity = self._capacity_list
        # Used space of every server this call touches, as plain floats.
        used: Dict[int, float] = {}
        index_of_server = self._index_of_server
        policy = self._policy
        context = self._placement_context
        counter = self._block_counter
        candidates: Optional[np.ndarray] = None
        results: List[Optional[str]] = []
        placed: List[Tuple[str, List[int]]] = []
        pending: List[str] = []
        if len(creating_server_ids) < BUFFERED_MIN_BLOCKS:
            session: ContextManager[Draws] = nullcontext(policy.rng)
        else:
            expected = len(creating_server_ids) * replication
            session = policy.rng.buffered_draws(expected)
        with session as draws:
            for creating_server_id in creating_server_ids:
                counter += 1
                if candidates is None:
                    candidates = np.flatnonzero(~excluded_mask)
                # ``candidates`` keeps its identity while the mask is
                # unchanged, which is what the policies key their caches on.
                chosen = policy.choose_server_indices(
                    replication,
                    index_of_server.get(creating_server_id),
                    excluded_mask,
                    context,
                    candidates,
                    draws,
                )
                if not chosen:
                    results.append(None)
                    continue
                block_id = f"block-{counter}"
                for server in chosen:
                    taken = used.get(server)
                    if taken is None:
                        taken = float(self._server_used[server])
                    # Goal G1: a server never holds more than its primary
                    # tenant allows.
                    if size_gb > max(0.0, capacity[server] - taken) + 1e-9:
                        raise ValueError(
                            f"server {self._server_ids[server]} has no space "
                            f"for block {block_id}"
                        )
                    taken += size_gb
                    used[server] = taken
                    # Space only shrinks within the call, so the one flip
                    # possible is a server that just filled up; ``candidates``
                    # is rebuilt from the mask, so the policies' pools follow.
                    if (
                        not size_gb <= max(0.0, capacity[server] - taken) + 1e-9
                        and not excluded_mask[server]
                    ):
                        excluded_mask[server] = True
                        candidates = None
                placed.append((block_id, chosen))
                if len(chosen) < replication:
                    pending.append(block_id)
                results.append(block_id)
        if placed:
            self._table.append_blocks(placed, size_gb, replication)
            for server, taken in used.items():
                self._server_used[server] = taken
            self._healthy_server_count = None
        self._block_counter = counter
        self._replication.enqueue_many(pending)
        return results

    def _busy_mask(self, time: float) -> np.ndarray:
        """Per-server busy flags, evaluated as one trace-matrix gather."""
        util = self._matrix.utilization_rows(self._server_rows, time)
        return self._server_aware & (util > self._server_thresholds)

    def _space_mask(self, size_gb: float) -> np.ndarray:
        """Per-server flags: a replica of ``size_gb`` fits in the free space."""
        free = np.maximum(0.0, self._server_capacity - self._server_used)
        return size_gb <= free + 1e-9

    # -- access -------------------------------------------------------------------

    def access_block(self, block_id: str, time: float) -> AccessResult:
        """Attempt to read a block.

        A primary-aware NameNode only lists non-busy replicas; the access
        fails (``UNAVAILABLE``) when all healthy replicas sit on busy servers.
        A primary-oblivious deployment serves the access regardless, paying
        with primary-tenant interference instead (that cost is modelled by
        the latency model, not here).
        """
        row = self._table.get_row(block_id)
        if row is None:
            raise KeyError(f"unknown block {block_id}")
        if self._table.lost[row]:
            return AccessResult.LOST

        healthy = self._table.healthy_servers_of(row)
        if not len(healthy):
            return AccessResult.LOST

        if not self._primary_aware:
            return AccessResult.SERVED

        busy = self._busy_mask(time)
        if not busy[healthy].all():
            return AccessResult.SERVED
        return AccessResult.UNAVAILABLE

    #: Integer codes used by :meth:`check_accesses`, index-aligned with the
    #: order the batch path reports them in.
    ACCESS_CODES = (AccessResult.SERVED, AccessResult.UNAVAILABLE, AccessResult.LOST)

    def check_accesses(
        self,
        block_ids: Sequence[str],
        times: Union[Sequence[float], np.ndarray],
    ) -> np.ndarray:
        """Evaluate a whole batch of accesses as numpy mask reductions.

        Semantically identical to calling :meth:`access_block` for each
        ``(block_ids[i], times[i])`` pair, but the per-replica busy checks
        collapse into one ``(accesses x replicas)`` trace-matrix lookup over
        the block table's live-slot matrix.  Returns an ``int8`` array whose
        values index :data:`ACCESS_CODES` (0 = served, 1 = unavailable,
        2 = lost).
        """
        times = np.asarray(times, dtype=float)
        if len(block_ids) != len(times):
            raise ValueError("block_ids and times must have the same length")
        n = len(block_ids)
        codes = np.zeros(n, dtype=np.int8)
        if n == 0:
            return codes

        rows = np.empty(n, dtype=np.int64)
        for i, block_id in enumerate(block_ids):
            row = self._table.get_row(block_id)
            if row is None:
                raise KeyError(f"unknown block {block_id}")
            rows[i] = row

        # (accesses x slots) server-index matrix straight from the table's
        # live slots; empty (-1) slots are masked out.
        servers = self._table.live_servers[rows]
        valid = servers >= 0
        lost = ~valid.any(axis=1)
        codes[lost] = 2

        if not self._primary_aware:
            served = ~lost
        else:
            safe = np.where(valid, servers, 0)
            util = self._matrix.utilization(
                self._server_rows[safe], times[:, None]
            )
            busy = self._server_aware[safe] & (
                util > self._server_thresholds[safe]
            )
            available = valid & ~busy
            served = available.any(axis=1) & ~lost
            codes[~served & ~lost] = 1
        codes[served] = 0
        return codes

    def access_blocks(
        self,
        time: float,
        count: int,
        rng: RandomSource,
        io_per_access: float = 0.05,
        sampler=None,
    ) -> AccessBatch:
        """Serve ``count`` sampled accesses at ``time``, effectfully.

        The effectful twin of :meth:`check_accesses`: each access draws one
        block (by default uniform over every block ever created, in creation
        order) and — when served — one replica to read from, consuming
        ``rng`` exactly as the per-access scalar loop did
        (``choice(block_ids)`` then ``choice(candidate_servers)``).  Each
        served access adds ``io_per_access`` to the serving server's entry
        of the returned io-load vector.
        Primary-aware NameNodes only read from non-busy replicas and fail
        the access when all are busy; oblivious ones read from any healthy
        replica (the interference cost is the latency model's problem).

        ``sampler`` — an access-skew sampler from
        :mod:`repro.workload.distributions` (``index(rng, n)``) — replaces
        the uniform block draw; ``None`` keeps the historical uniform
        stream bit for bit.
        """
        table = self._table
        io_load = np.zeros(table.num_servers)
        n = table.num_blocks
        if n == 0 or count <= 0:
            return AccessBatch(0, 0, 0, io_load)
        aware = self._primary_aware
        busy = self._busy_mask(time) if aware else None
        served = failed = lost = 0
        for _ in range(count):
            row = rng.integer(0, n) if sampler is None else sampler.index(rng, n)
            healthy = table.healthy_servers_of(row)
            if not len(healthy):
                lost += 1
                continue
            if aware:
                pool = healthy[~busy[healthy]]
                if not len(pool):
                    failed += 1
                    continue
            else:
                pool = healthy
            served += 1
            target = int(pool[rng.integer(0, len(pool))])
            io_load[target] += io_per_access
        return AccessBatch(served, failed, lost, io_load)

    # -- reimages and recovery -------------------------------------------------------

    def handle_reimage(self, server_id: str, time: float) -> List[str]:
        """A server's disk was reimaged: destroy its replicas, queue recovery.

        Returns the ids of blocks that became lost as a result.
        """
        server_index = self._index_of_server.get(server_id)
        if server_index is None:
            return []
        self._server_used[server_index] = 0.0
        self._healthy_server_count = None
        table = self._table
        rows = table.destroy_replicas_on(server_index)
        newly_lost: List[str] = []
        # Queue the affected blocks in lexicographic block-id order
        # (``block-10`` before ``block-2``), not row order: the
        # re-replication queue, and every random draw downstream of it,
        # follows this order, and the committed fingerprints pin it.
        for block_id, lost in sorted(
            zip(map(table.id_of, rows.tolist()), table.lost[rows].tolist())
        ):
            if lost:
                newly_lost.append(block_id)
                self._replication.discard(block_id)
            else:
                self._replication.enqueue(block_id)
        return newly_lost

    def run_replication(self, time: float) -> int:
        """Re-create replicas for queued blocks, subject to the rate limit.

        Returns the number of replicas restored in this round.  The busy
        mask (a pure function of ``time``) is evaluated once; the viable
        masks follow used space as restored replicas consume it.
        """
        if self._healthy_server_count is None:
            # ``max(0, capacity - used) > 0`` is ``capacity - used > 0``; a
            # pure function of used space, so cache it between mutations.
            self._healthy_server_count = int(
                (self._server_capacity - self._server_used > 0).sum()
            )
        drained = self._replication.drain(time, self._healthy_server_count)
        if not drained:
            return 0
        # The picks are the round's only draws: replay them from one
        # buffered session, stream-identical to one ``integer(0, count)``
        # per pick.
        with self._rng.buffered_draws(len(drained)) as draws:
            return self._restore(drained, time, draws)

    def _restore(self, drained: List[str], time: float, draws: Draws) -> int:
        """Restore the missing replicas of ``drained``; returns how many.

        Per missing replica, in drain order, one ``draws.integer(0, count)``
        picks among the ``count`` viable servers (space for the block and,
        when primary-aware, not busy) that never held the block, in
        lexicographic server-id order; a block out of such servers goes
        back on the queue, in drain order, without a draw.

        The round runs in steps, each placing every remaining pick as
        arrays: the blocks' ever-held rows form one ``(blocks x servers)``
        matrix in rank order, ANDed with the viable mask of each block's
        size to count its candidates.  A block's ``j``-th pick then has
        bound ``count - j`` (its earlier targets count as held), so every
        bound is known up front and drawn in one
        :meth:`~repro.simulation.random.BufferedDraws.integers` call; each
        index maps to its server through the candidate matrix's row-major
        positions, one pass per pick layer (every block's first pick, then
        every second pick, ...).  The step is written with one
        :meth:`~repro.storage.block_table.BlockTable.add_replicas` call and
        an in-order add to the used-space column.  Placements only shrink
        space, so the masks hold until a placement leaves its server too
        full for a block size of the step: the step ends there, the session
        rewinds to the words that placement's draw consumed, and the next
        step starts from rebuilt masks.
        """
        table = self._table
        rows = table.rows_of(drained)
        known = np.flatnonzero(rows >= 0)
        alive = known[~table.lost[rows[known]]]
        rows = rows[alive]
        sizes = table.size_gb[rows]
        targets = table.target_replication[rows]
        busy = self._busy_mask(time) if self._primary_aware else None
        order = table.sorted_server_order
        width = table.num_servers
        capacity = self._server_capacity
        used = self._server_used
        restored = 0
        requeued: List[int] = []
        start = 0
        while start < len(rows):
            step_rows = rows[start:]
            step_sizes = sizes[start:]
            missing = targets[start:] - table.healthy_count[step_rows]
            levels = np.array(sorted(set(step_sizes.tolist())))
            level_of = levels.searchsorted(step_sizes)
            free = np.maximum(0.0, capacity - used) + 1e-9
            viable = levels[:, None] <= free
            if busy is not None:
                viable &= ~busy
            candidates = viable[:, order][level_of] & ~table.held_matrix(step_rows)
            counts = candidates.sum(axis=1)
            picks = np.minimum(np.maximum(missing, 0), counts)
            total = int(picks.sum())
            first = np.cumsum(picks) - picks
            block_of = np.repeat(np.arange(len(step_rows)), picks)
            layer = np.arange(total) - first[block_of]
            index, ends = draws.integers(counts[block_of] - layer)
            chosen = np.empty(total, dtype=np.int64)
            for j in range(int(picks.max(initial=0))):
                at = np.flatnonzero(picks > j)
                pos = first[at] + j
                # Row-major candidate ranks: row i's start is the sum of the
                # earlier rows' counts (each down by the j picks taken).
                flat = np.flatnonzero(candidates[at])
                left = counts[at] - j
                ranks = flat[np.cumsum(left) - left + index[pos]] % width
                candidates[at, ranks] = False
                chosen[pos] = ranks
            servers = order[chosen]
            placed_sizes = step_sizes[block_of]
            end = self._first_fill(levels, free, servers, placed_sizes)
            done = len(step_rows) if end == total else int(block_of[end - 1])
            table.add_replicas(step_rows[block_of[:end]], servers[:end])
            np.add.at(used, servers[:end], placed_sizes[:end])
            restored += end
            if end < total:
                draws.rewind(int(ends[end - 1]))
            short = np.flatnonzero(missing[:done] > counts[:done])
            requeued.extend(alive[start + short].tolist())
            start += done
        if restored:
            self._healthy_server_count = None
        for position in requeued:
            # Out of viable targets; try again on a later round.
            self._replication.enqueue(drained[position])
        return restored

    def _first_fill(
        self,
        levels: np.ndarray,
        free: np.ndarray,
        servers: np.ndarray,
        sizes: np.ndarray,
    ) -> int:
        """How many of a step's placements (``sizes[i]`` on ``servers[i]``,
        in order) keep every mask of the step valid: the count up to and
        including the first one after which its server no longer fits a
        block size in ``levels`` that it fitted before (``free`` is the
        step's ``max(0, capacity - used) + 1e-9``), or all of them."""
        capacity = self._server_capacity
        used = self._server_used
        after = used.copy()
        np.add.at(after, servers, sizes)
        fitted = levels[:, None] <= free
        fills = fitted & ~(levels[:, None] <= np.maximum(0.0, capacity - after) + 1e-9)
        filled = fills.any(axis=0)
        if not filled[servers].any():
            return len(servers)
        # Used space grows in placement order, so each filled server
        # crosses at one placement; replay the ones on those servers.
        running: Dict[int, float] = {}
        for position in np.flatnonzero(filled[servers]).tolist():
            server = int(servers[position])
            taken = running.get(server, float(used[server])) + float(sizes[position])
            running[server] = taken
            room = max(0.0, float(capacity[server]) - taken) + 1e-9
            if (levels[fills[:, server]] > room).any():
                return position + 1
        raise AssertionError("a filled server must cross at one placement")

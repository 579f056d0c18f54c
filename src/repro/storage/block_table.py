"""Array-backed substrate for the storage-harvesting stack.

Per-object blocks (the scalar ``Block`` and its replicas, kept as the test
oracle in ``tests/scalar_block.py``) are pleasant to reason about but cost one Python call per replica per
creation, access, reimage, and recovery pick.  At paper scale (4M blocks)
those loops dominate the fig12/fig15/fig16 experiments.

A :class:`BlockTable` stacks the per-block state into numpy columns (one row
per created block, in creation order):

* block size, target replication, healthy-replica count, and the sticky
  ``lost`` flag,
* a ``(blocks x slots)`` *live-slot* matrix: the servers holding a healthy
  replica, compacted to the front of the row in insertion order and
  ``-1`` padded.  It is as wide as the replication factor (wider only if a
  block ever holds more live replicas), so accesses, reimages and recovery
  picks touch O(replication) slots per block,
* per row, the *ever-held* record: every server that ever held a replica,
  as a packed bit column over the servers' lexicographic ranks (a recovery
  round unpacks its blocks' rows into one boolean matrix and excludes
  them with one ``&``) plus their insertion order (only re-adding a
  replica on a server that lost one reads it),
* per server, the set of rows holding a healthy replica there — the
  NameNode's answer to "what does a reimage of this disk destroy?".

Together with the NameNode's per-server used-space column it is the only
record of where replicas live; DataNodes hold configuration only.

The companion of :class:`repro.cluster.fleet_state.FleetState` (the compute
substrate) and :class:`repro.traces.matrix.TraceMatrix` (the utilization
substrate): TraceMatrix answers "which servers are busy?", FleetState
answers "where can this container run?", and BlockTable answers "where does
this block live — and is it still alive?".

Equivalence contract
--------------------

Every mutation mirrors the scalar ``Block`` / ``BlockReplica`` semantics
exactly.  The scalar ``Block.replicas`` dict is the ever-held record in
insertion order, each entry with its liveness; the live slots are that
dict's healthy entries, in dict order.  A destroyed replica leaves the live
slots but stays in the ever-held record (it still excludes its server from
recovery), a replica re-added on a server whose old replica was destroyed
takes back its insertion-order place among the live slots (a dict
overwrite keeps the key position), and ``lost`` is set exactly when the
last healthy replica dies and never cleared.  A fixed seed therefore
produces the same fig12/fig15/fig16 results as the scalar path
(``tests/test_storage_block_table.py`` keeps that path as the oracle).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Initial live-slot width (the HDFS default replication); grown on demand
#: (doubling) when a block holds more live replicas than any block before it.
DEFAULT_REPLICA_SLOTS = 3

#: Initial row capacity; grown geometrically as blocks are appended.
INITIAL_ROW_CAPACITY = 1024


class BlockTable:
    """Numpy columns over every block a NameNode has ever created."""

    def __init__(
        self,
        server_ids: Sequence[str],
        replica_slots: int = DEFAULT_REPLICA_SLOTS,
    ) -> None:
        if not server_ids:
            raise ValueError("a BlockTable needs at least one server")
        if replica_slots <= 0:
            raise ValueError("replica_slots must be positive")
        self.server_ids: List[str] = list(server_ids)
        self.index_of_server: Dict[str, int] = {
            sid: i for i, sid in enumerate(self.server_ids)
        }
        if len(self.index_of_server) != len(self.server_ids):
            raise ValueError("server ids must be unique")
        #: Server rows in lexicographic id order — the recovery candidate
        #: draw walks this permutation so its candidate list matches the
        #: scalar path's ``sorted(candidate_ids)`` without sorting strings.
        self.sorted_server_order = np.array(
            sorted(range(len(self.server_ids)), key=self.server_ids.__getitem__),
            dtype=np.int64,
        )
        #: Inverse permutation: lexicographic rank of each server index,
        #: which is also its bit in the ever-held column.
        self.sorted_server_rank = np.empty_like(self.sorted_server_order)
        self.sorted_server_rank[self.sorted_server_order] = np.arange(
            len(self.server_ids)
        )
        self._rank: List[int] = self.sorted_server_rank.tolist()
        #: Where each server's bit sits in a row of the ever-held column.
        self._held_byte, bit = np.divmod(self.sorted_server_rank, 8)
        self._held_mask = np.left_shift(1, bit).astype(np.uint8)

        self._n = 0
        capacity = INITIAL_ROW_CAPACITY
        self._ids: List[str] = []
        self._row_of: Dict[str, int] = {}
        #: Per server index, the rows holding a healthy replica there.
        self._rows_on_server: List[Set[int]] = [set() for _ in self.server_ids]

        self._size_gb = np.zeros(capacity)
        self._target = np.zeros(capacity, dtype=np.int64)
        self._healthy_count = np.zeros(capacity, dtype=np.int64)
        self._lost = np.zeros(capacity, dtype=bool)
        self._live = np.full((capacity, replica_slots), -1, dtype=np.int64)
        #: Per row, the ever-held servers as packed bits over their ranks
        #: (``np.packbits`` little bit order: rank ``r`` is bit ``r % 8`` of
        #: byte ``r // 8``), and in insertion order: ``-1`` padded, in the
        #: smallest signed type that holds every server index, grown
        #: (doubling) like the live slots.
        self._held = np.zeros(
            (capacity, (len(self.server_ids) + 7) // 8), dtype=np.uint8
        )
        self._held_order = np.full(
            (capacity, replica_slots),
            -1,
            dtype=np.min_scalar_type(-len(self.server_ids)),
        )
        self._held_count = np.zeros(capacity, dtype=np.int64)

    # -- shape ---------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of rows (blocks ever created)."""
        return self._n

    @property
    def num_servers(self) -> int:
        """Number of servers in the universe the replica columns index."""
        return len(self.server_ids)

    def __len__(self) -> int:
        return self._n

    # -- column views (live, trimmed to the used prefix) ---------------------

    @property
    def size_gb(self) -> np.ndarray:
        """Per-block size in gigabytes."""
        return self._size_gb[: self._n]

    @property
    def target_replication(self) -> np.ndarray:
        """Per-block desired healthy-replica count."""
        return self._target[: self._n]

    @property
    def healthy_count(self) -> np.ndarray:
        """Per-block current healthy-replica count."""
        return self._healthy_count[: self._n]

    @property
    def lost(self) -> np.ndarray:
        """Per-block sticky lost flag."""
        return self._lost[: self._n]

    @property
    def slots_used(self) -> np.ndarray:
        """Per-block number of occupied live slots (the healthy count)."""
        return self._healthy_count[: self._n]

    @property
    def live_servers(self) -> np.ndarray:
        """``(blocks x slots)`` healthy-replica servers, ``-1`` padded."""
        return self._live[: self._n]

    # -- id mapping ----------------------------------------------------------

    def id_of(self, row: int) -> str:
        """The block id stored in ``row``."""
        return self._ids[row]

    def size_of(self, row: int) -> float:
        """The block size in ``row``, as a plain float (hot-path helper)."""
        return float(self._size_gb[row])

    def is_lost(self, row: int) -> bool:
        """The sticky lost flag of ``row`` (hot-path helper)."""
        return bool(self._lost[row])

    def healthy_count_of(self, row: int) -> int:
        """The healthy-replica count of ``row`` (hot-path helper)."""
        return int(self._healthy_count[row])

    def row_of(self, block_id: str) -> int:
        """Row index of a block id; raises ``KeyError`` when unknown."""
        return self._row_of[block_id]

    def get_row(self, block_id: str) -> Optional[int]:
        """Row index of a block id, or ``None`` when unknown."""
        return self._row_of.get(block_id)

    # -- growth --------------------------------------------------------------

    def _grow_rows(self, rows: int) -> None:
        """Grow the row capacity to hold at least ``rows`` rows."""
        capacity = max(2 * len(self._size_gb), rows, INITIAL_ROW_CAPACITY)

        def grown(column: np.ndarray, fill: int = 0) -> np.ndarray:
            fresh = np.full((capacity,) + column.shape[1:], fill, dtype=column.dtype)
            fresh[: self._n] = column[: self._n]
            return fresh

        self._size_gb = grown(self._size_gb)
        self._target = grown(self._target)
        self._healthy_count = grown(self._healthy_count)
        self._lost = grown(self._lost)
        self._live = grown(self._live, -1)
        self._held = grown(self._held)
        self._held_order = grown(self._held_order, -1)
        self._held_count = grown(self._held_count)

    @staticmethod
    def _widened(matrix: np.ndarray) -> np.ndarray:
        """``matrix`` with its columns doubled, the new ones ``-1``."""
        capacity, width = matrix.shape
        return np.hstack([matrix, np.full((capacity, max(1, width)), -1, matrix.dtype)])

    def _grow_slots(self) -> None:
        self._live = self._widened(self._live)

    def _grow_order(self) -> None:
        self._held_order = self._widened(self._held_order)

    # -- mutations -----------------------------------------------------------

    def append_blocks(
        self,
        blocks: Sequence[Tuple[str, Sequence[int]]],
        size_gb: float,
        target_replication: int,
    ) -> range:
        """Add one row per ``(block id, replica servers)`` pair, in one write.

        Equivalent to appending each block as a replica-less row and then
        calling :meth:`add_replica` for its servers in order (an empty
        server list leaves a replica-less row), but the columns, the live
        slots and the ever-held record are written once for the whole
        batch.  Everything is checked before anything is written: a
        non-finite or non-positive size, a non-positive replication, an id
        that exists or repeats in the batch, or a server listed twice for
        one block raise ``ValueError`` and leave the table unchanged.
        Returns the new rows.
        """
        if not (math.isfinite(size_gb) and size_gb > 0):
            raise ValueError(f"size_gb must be positive and finite (got {size_gb!r})")
        if target_replication <= 0:
            raise ValueError(
                f"target_replication must be positive (got {target_replication!r})"
            )
        first = self._n
        new_rows: Dict[str, int] = {}
        width = self._live.shape[1]
        for row, (block_id, servers) in enumerate(blocks, first):
            if block_id in self._row_of or block_id in new_rows:
                raise ValueError(f"block {block_id} already exists")
            new_rows[block_id] = row
            if len(set(servers)) != len(servers):
                seen: Set[int] = set()
                for server in servers:
                    if server in seen:
                        raise ValueError(
                            f"block {block_id} already has a replica on "
                            f"{self.server_ids[server]}"
                        )
                    seen.add(server)
            width = max(width, len(servers))
        end = first + len(new_rows)
        if end == first:
            return range(first, end)
        if end > len(self._size_gb):
            self._grow_rows(end)
        while width > self._live.shape[1]:
            self._grow_slots()
        while width > self._held_order.shape[1]:
            self._grow_order()
        slots = self._live.shape[1]
        rows_on = self._rows_on_server
        live: List[List[int]] = []
        counts: List[int] = []
        placed: List[int] = []
        for row, (_, servers) in enumerate(blocks, first):
            servers = list(servers)
            for server in servers:
                rows_on[server].add(row)
            counts.append(len(servers))
            placed.extend(servers)
            live.append(servers + [-1] * (slots - len(servers)))
        placed_at = np.array(placed, dtype=np.int64)
        np.bitwise_or.at(
            self._held,
            (np.repeat(np.arange(first, end), counts), self._held_byte[placed_at]),
            self._held_mask[placed_at],
        )
        self._ids.extend(new_rows)
        self._row_of.update(new_rows)
        self._size_gb[first:end] = size_gb
        self._target[first:end] = target_replication
        self._healthy_count[first:end] = counts
        self._held_count[first:end] = counts
        self._live[first:end] = live
        # A new row's live slots are its ever-held record, -1 past ``width``.
        order_width = min(slots, self._held_order.shape[1])
        self._held_order[first:end, :order_width] = self._live[first:end, :order_width]
        self._n = end
        return range(first, end)

    def add_replica(self, row: int, server_index: int) -> None:
        """Attach a replica of block ``row`` on ``server_index``.

        Mirrors ``Block.add_replica``: a server holds at most one healthy
        replica of a block.  A new holder takes the next live slot; a server
        whose old replica was destroyed takes back its insertion-order place
        among the live slots (a dict overwrite keeps the key position, so
        later healthy listings preserve the scalar iteration order).
        """
        if row in self._rows_on_server[server_index]:
            raise ValueError(
                f"block {self._ids[row]} already has a replica on "
                f"{self.server_ids[server_index]}"
            )
        count = int(self._healthy_count[row])
        if count == self._live.shape[1]:
            self._grow_slots()
        byte, bit = divmod(self._rank[server_index], 8)
        if self._held[row, byte] >> bit & 1:
            order = self.holders_of(row)
            earlier = set(order[: order.index(server_index)])
            live = self._live[row]
            slot = sum(1 for server in live[:count].tolist() if server in earlier)
            live[slot + 1 : count + 1] = live[slot:count]
            live[slot] = server_index
        else:
            self._held[row, byte] |= 1 << bit
            held = int(self._held_count[row])
            if held == self._held_order.shape[1]:
                self._grow_order()
            self._held_order[row, held] = server_index
            self._held_count[row] = held + 1
            self._live[row, count] = server_index
        self._healthy_count[row] = count + 1
        self._rows_on_server[server_index].add(row)

    def add_replicas(self, rows: np.ndarray, servers: np.ndarray) -> None:
        """Attach a replica of block ``rows[i]`` on ``servers[i]``, in order.

        The batched :meth:`add_replica` for servers that never held their
        block (re-replication targets): each new replica takes its row's
        next live slot.  A row listed more than once, as a block missing
        several replicas is, must have its listings next to each other;
        they fill its slots in list order.  A server that holds or once
        held the block, a pair listed twice, or a row listed apart raises
        ``ValueError`` and writes nothing.
        """
        rows = np.asarray(rows, dtype=np.int64)
        servers = np.asarray(servers, dtype=np.int64)
        if not len(rows):
            return
        byte = self._held_byte[servers]
        bits = self._held_mask[servers]
        held = np.flatnonzero(self._held[rows, byte] & bits)
        if len(held):
            raise ValueError(
                f"block {self._ids[rows[held[0]]]} already has or had a replica "
                f"on {self.server_ids[servers[held[0]]]}"
            )
        # ``nth``: how many listings of the same row come before this one.
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        if len(set(rows[starts].tolist())) != len(starts):
            raise ValueError("a row's replicas must be listed next to each other")
        run_lengths = np.diff(starts, append=len(rows))
        nth = np.arange(len(rows)) - np.repeat(starts, run_lengths)
        for lag in range(1, int(nth.max()) + 1):
            if ((servers[lag:] == servers[:-lag]) & (nth[lag:] >= lag)).any():
                raise ValueError("a (block, server) pair is listed twice")
        slots = self._healthy_count[rows] + nth
        while int(slots.max()) >= self._live.shape[1]:
            self._grow_slots()
        order = self._held_count[rows] + nth
        while int(order.max()) >= self._held_order.shape[1]:
            self._grow_order()
        self._live[rows, slots] = servers
        self._held_order[rows, order] = servers
        np.add.at(self._healthy_count, rows, 1)
        np.add.at(self._held_count, rows, 1)
        np.bitwise_or.at(self._held, (rows, byte), bits)
        rows_on = self._rows_on_server
        # The row sets keep the int the id map holds for a row, not a
        # fresh object per replica.
        row_of = self._row_of
        ids = self._ids
        for row, server in zip(rows.tolist(), servers.tolist()):
            rows_on[server].add(row_of[ids[row]])

    def destroy_replica(self, row: int, server_index: int) -> bool:
        """Destroy the replica of block ``row`` on ``server_index`` if healthy.

        Returns True when a healthy replica was destroyed; marks the block
        lost once no healthy replica remains (and never clears the flag),
        exactly like ``Block.destroy_replica_on``.  The survivors shift left
        so the live slots stay compacted in insertion order.
        """
        if row not in self._rows_on_server[server_index]:
            return False
        self._rows_on_server[server_index].discard(row)
        count = int(self._healthy_count[row])
        live = self._live[row]
        slot = live[:count].tolist().index(server_index)
        live[slot : count - 1] = live[slot + 1 : count]
        live[count - 1] = -1
        self._healthy_count[row] = count - 1
        if count == 1:
            self._lost[row] = True
        return True

    def destroy_replicas_on(self, server_index: int) -> np.ndarray:
        """Destroy every healthy replica on ``server_index`` at once.

        The batched twin of calling :meth:`destroy_replica` for each row of
        :meth:`rows_on`: one stable compaction of those rows' live slots,
        with the healthy counts and ``lost`` flags updated as arrays.
        Returns the affected rows, in no particular order.
        """
        held = self._rows_on_server[server_index]
        self._rows_on_server[server_index] = set()
        rows = np.fromiter(held, dtype=np.int64, count=len(held))
        live = self._live[rows]
        live[live == server_index] = -1
        # Survivors keep their order; the hole joins the -1 tail.
        order = np.argsort(live < 0, axis=1, kind="stable")
        self._live[rows] = np.take_along_axis(live, order, axis=1)
        counts = self._healthy_count[rows] - 1
        self._healthy_count[rows] = counts
        self._lost[rows[counts == 0]] = True
        return rows

    # -- queries -------------------------------------------------------------

    def rows_on(self, server_index: int) -> Set[int]:
        """Rows holding a healthy replica on ``server_index`` (live set)."""
        return self._rows_on_server[server_index]

    def healthy_servers_of(self, row: int) -> np.ndarray:
        """Server indices holding a healthy replica of ``row``, slot order."""
        return self._live[row, : int(self._healthy_count[row])]

    def holders_of(self, row: int) -> List[int]:
        """Every server that holds or ever held a replica of ``row``.

        In insertion order, matching the scalar ``block.replicas.keys()`` —
        destroyed replicas still exclude their server from recovery
        placement.
        """
        return self._held_order[row, : self._held_count[row]].tolist()

    def held_bits(self, row: int) -> int:
        """:meth:`holders_of` as an integer bitset: bit
        ``sorted_server_rank[s]`` per server ``s``."""
        return int.from_bytes(self._held[row].tobytes(), "little")

    def held_matrix(self, rows: np.ndarray) -> np.ndarray:
        """``(rows x servers)`` ever-held flags, columns in rank order.

        Row ``i`` is :meth:`held_bits` of ``rows[i]`` unpacked, so a
        recovery round excludes every ever-held server of its blocks with
        one ``&`` against a viable mask permuted by ``sorted_server_order``.
        """
        return np.unpackbits(
            self._held[rows], axis=1, count=self.num_servers, bitorder="little"
        ).view(bool)

    def rows_of(self, block_ids: Sequence[str]) -> np.ndarray:
        """The row of each block id, ``-1`` where the id is unknown."""
        row_of = self._row_of
        return np.array(
            [row_of.get(block_id, -1) for block_id in block_ids], dtype=np.int64
        )

    def missing_of(self, row: int) -> int:
        """How many replicas re-replication still needs to restore."""
        return max(0, int(self._target[row]) - int(self._healthy_count[row]))

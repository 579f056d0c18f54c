"""Array-backed substrate for the storage-harvesting stack.

Per-object blocks (:class:`~repro.storage.block.Block` and its replicas)
are pleasant to reason about but cost one Python call per replica per
creation, access, reimage, and recovery pick.  At paper scale (4M blocks)
those loops dominate the fig12/fig15/fig16 experiments.

A :class:`BlockTable` stacks the per-block state into numpy columns (one row
per created block, in creation order):

* block size, target replication, healthy-replica count, and the sticky
  ``lost`` flag,
* a ``(blocks x slots)`` matrix of replica server indices (slot order is
  replica insertion order, mirroring the ``Block.replicas`` dict) plus the
  matching liveness mask,
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
exactly: a replica destroyed by a reimage keeps its slot (so later healthy
listings preserve the dict-insertion order the scalar path produced), a
replica re-added on a server whose old replica was destroyed reuses that
slot (dict overwrite keeps the key position), and ``lost`` is set exactly
when the last healthy replica dies and never cleared.  A fixed seed
therefore produces the same fig12/fig15/fig16 results as the scalar path
(``tests/test_storage_block_table.py`` keeps that path as the oracle).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

#: Initial replica-slot width; grown on demand (doubling) when a block
#: collects more distinct replica servers than any block before it.
DEFAULT_REPLICA_SLOTS = 4

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
        #: Inverse permutation: lexicographic rank of each server index.
        self.sorted_server_rank = np.empty_like(self.sorted_server_order)
        self.sorted_server_rank[self.sorted_server_order] = np.arange(
            len(self.server_ids)
        )

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
        self._slots_used = np.zeros(capacity, dtype=np.int64)
        self._replica_servers = np.full((capacity, replica_slots), -1, dtype=np.int64)
        self._replica_healthy = np.zeros((capacity, replica_slots), dtype=bool)

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
        """Per-block number of occupied replica slots (healthy or not)."""
        return self._slots_used[: self._n]

    @property
    def replica_servers(self) -> np.ndarray:
        """``(blocks x slots)`` server indices, ``-1`` padded, slot order."""
        return self._replica_servers[: self._n]

    @property
    def replica_healthy(self) -> np.ndarray:
        """``(blocks x slots)`` liveness mask matching ``replica_servers``."""
        return self._replica_healthy[: self._n]

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

    def _grow_rows(self) -> None:
        capacity = max(2 * len(self._size_gb), INITIAL_ROW_CAPACITY)
        slots = self._replica_servers.shape[1]

        def grown(column: np.ndarray) -> np.ndarray:
            fresh = np.zeros(capacity, dtype=column.dtype)
            fresh[: self._n] = column[: self._n]
            return fresh

        self._size_gb = grown(self._size_gb)
        self._target = grown(self._target)
        self._healthy_count = grown(self._healthy_count)
        self._lost = grown(self._lost)
        self._slots_used = grown(self._slots_used)
        servers = np.full((capacity, slots), -1, dtype=np.int64)
        servers[: self._n] = self._replica_servers[: self._n]
        self._replica_servers = servers
        healthy = np.zeros((capacity, slots), dtype=bool)
        healthy[: self._n] = self._replica_healthy[: self._n]
        self._replica_healthy = healthy

    def _grow_slots(self) -> None:
        capacity, slots = self._replica_servers.shape
        extra = max(1, slots)
        self._replica_servers = np.hstack(
            [self._replica_servers, np.full((capacity, extra), -1, dtype=np.int64)]
        )
        self._replica_healthy = np.hstack(
            [self._replica_healthy, np.zeros((capacity, extra), dtype=bool)]
        )

    # -- mutations -----------------------------------------------------------

    def append(self, block_id: str, size_gb: float, target_replication: int) -> int:
        """Add a new (replica-less) block row; returns its row index."""
        if size_gb <= 0:
            raise ValueError("block size must be positive")
        if target_replication <= 0:
            raise ValueError("target_replication must be positive")
        if block_id in self._row_of:
            raise ValueError(f"block {block_id} already exists")
        if self._n == len(self._size_gb):
            self._grow_rows()
        row = self._n
        self._n += 1
        self._ids.append(block_id)
        self._row_of[block_id] = row
        self._size_gb[row] = size_gb
        self._target[row] = target_replication
        return row

    def add_replica(self, row: int, server_index: int) -> None:
        """Attach a replica of block ``row`` on ``server_index``.

        Mirrors ``Block.add_replica``: a server holds at most one healthy
        replica of a block, and re-adding on a server whose old replica was
        destroyed reuses that slot (a dict overwrite keeps the key position,
        so later healthy listings preserve the scalar iteration order).

        Slots per row are few (the replication level), so the membership
        scan runs as a plain Python loop — cheaper than numpy machinery at
        this width, and this is the hottest write in the durability runs.
        """
        used = int(self._slots_used[row])
        slot = -1
        if used:
            for i, existing in enumerate(self._replica_servers[row, :used].tolist()):
                if existing == server_index:
                    slot = i
                    break
        if slot >= 0:
            if self._replica_healthy[row, slot]:
                raise ValueError(
                    f"block {self._ids[row]} already has a replica on "
                    f"{self.server_ids[server_index]}"
                )
            self._replica_healthy[row, slot] = True
        else:
            if used == self._replica_servers.shape[1]:
                self._grow_slots()
            self._replica_servers[row, used] = server_index
            self._replica_healthy[row, used] = True
            self._slots_used[row] = used + 1
        self._healthy_count[row] += 1
        self._rows_on_server[server_index].add(row)

    def destroy_replica(self, row: int, server_index: int) -> bool:
        """Destroy the replica of block ``row`` on ``server_index`` if healthy.

        Returns True when a healthy replica was destroyed; marks the block
        lost once no healthy replica remains (and never clears the flag),
        exactly like ``Block.destroy_replica_on``.
        """
        used = int(self._slots_used[row])
        if not used:
            return False
        # A server occupies at most one slot, so find it first and only then
        # consult liveness.
        for slot, existing in enumerate(self._replica_servers[row, :used].tolist()):
            if existing == server_index:
                if not self._replica_healthy[row, slot]:
                    return False
                self._replica_healthy[row, slot] = False
                self._rows_on_server[server_index].discard(row)
                self._healthy_count[row] -= 1
                if self._healthy_count[row] == 0:
                    self._lost[row] = True
                return True
        return False

    # -- queries -------------------------------------------------------------

    def rows_on(self, server_index: int) -> Set[int]:
        """Rows holding a healthy replica on ``server_index`` (live set)."""
        return self._rows_on_server[server_index]

    def healthy_servers_of(self, row: int) -> np.ndarray:
        """Server indices holding a healthy replica of ``row``, slot order."""
        used = int(self._slots_used[row])
        return self._replica_servers[row, :used][self._replica_healthy[row, :used]]

    def holders_of(self, row: int) -> np.ndarray:
        """Every server that holds or ever held a replica of ``row``.

        Matches the scalar ``block.replicas.keys()`` — destroyed replicas
        still exclude their server from recovery placement.
        """
        return self._replica_servers[row, : int(self._slots_used[row])]

    def missing_of(self, row: int) -> int:
        """How many replicas re-replication still needs to restore."""
        return max(0, int(self._target[row]) - int(self._healthy_count[row]))

"""The per-replica block-creation loop, kept as the oracle for the batch.

``NameNode.create_blocks`` places a whole batch with one buffered-draw
session on the policy's stream, checks space over plain-float copies of the
used-space column, and writes every placed block with one
``BlockTable.append_blocks`` call.  This module keeps the loop it replaced:
per block, one policy call and a replica-less table row, then per replica a
:func:`place_replica` (``BlockTable.add_replica`` plus a scalar used-space
write) and a refresh of the exclusion mask.  Each policy call
draws straight from the policy's ``RandomSource``, one numpy call per draw.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.storage.namenode import NameNode


def place_replica(namenode: NameNode, row: int, server_index: int) -> float:
    """Place a replica of ``row`` on ``server_index`` and charge its space.

    Goal G1: a server never holds more than its primary tenant allows.
    Returns the space left on the server afterwards.
    """
    table = namenode.block_table
    size_gb = table.size_of(row)
    capacity = float(namenode._server_capacity[server_index])
    used = float(namenode._server_used[server_index])
    if size_gb > max(0.0, capacity - used) + 1e-9:
        raise ValueError(
            f"server {table.server_ids[server_index]} has no space for "
            f"block {table.id_of(row)}"
        )
    table.add_replica(row, server_index)
    used += size_gb
    namenode._server_used[server_index] = used
    namenode._healthy_server_count = None
    return capacity - used


def create_blocks_per_replica(
    namenode: NameNode,
    time: float,
    creating_server_ids: Sequence[Optional[str]],
    replication: Optional[int] = None,
    size_gb: float = 0.25,
) -> List[Optional[str]]:
    """Create one block per creator, one replica at a time."""
    if replication is None:
        replication = namenode._default_replication
    policy = namenode._policy
    table = namenode.block_table
    busy = namenode._busy_mask(time) if namenode._primary_aware else None
    excluded_mask = ~namenode._space_mask(size_gb)
    if busy is not None:
        excluded_mask |= busy
    candidates: Optional[np.ndarray] = None
    results: List[Optional[str]] = []
    pending: List[str] = []
    for creating_server_id in creating_server_ids:
        namenode._block_counter += 1
        block_id = f"block-{namenode._block_counter}"
        if candidates is None:
            candidates = np.flatnonzero(~excluded_mask)
        chosen = policy.choose_server_indices(
            replication,
            namenode._index_of_server.get(creating_server_id),
            excluded_mask,
            namenode._placement_context,
            candidates,
            policy.rng,
        )
        if not chosen:
            results.append(None)
            continue
        (row,) = table.append_blocks([(block_id, ())], size_gb, replication)
        for server_index in chosen:
            free = place_replica(namenode, row, server_index)
            now_excluded = not (size_gb <= max(0.0, free) + 1e-9) or bool(
                busy is not None and busy[server_index]
            )
            if bool(excluded_mask[server_index]) != now_excluded:
                excluded_mask[server_index] = now_excluded
                candidates = None
        if table.healthy_count_of(row) < replication:
            pending.append(block_id)
        results.append(block_id)
    namenode._replication.enqueue_many(pending)
    return results

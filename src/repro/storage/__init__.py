"""Storage-harvesting substrate: an HDFS-like distributed file system model.

The paper stores batch-job data on spare disk space of primary-tenant
servers.  This package models the Name Node / Data Node protocol with three
placement variants:

* **Stock** — default rack-aware placement, no primary-tenant awareness.
* **PT** — primary-tenant aware accesses (busy servers deny reads/writes and
  are excluded from the NameNode's replica lists) but default placement.
* **H** — PT plus the Algorithm 2 history-based replica placement.

Durability is threatened by disk reimages (which destroy all replicas on a
server) and availability by primary-tenant load spikes (which make replicas
temporarily inaccessible); the NameNode re-creates lost replicas at a bounded
rate, mirroring the real system's 30 blocks/hour/server limit.

All storage state is the NameNode's: its :class:`BlockTable` and per-server
used-space column.  :class:`DataNode` only configures a server; the scalar
per-block model the table is tested against lives with the tests
(``tests/scalar_block.py``).
"""

from repro.storage.block_table import BlockTable
from repro.storage.datanode import DataNode
from repro.storage.namenode import AccessBatch, AccessResult, NameNode
from repro.storage.placement_policies import (
    HistoryPlacementPolicy,
    PlacementContext,
    PlacementPolicy,
    StockPlacementPolicy,
)
from repro.storage.replication import ReplicationManager

__all__ = [
    "BlockTable",
    "DataNode",
    "NameNode",
    "AccessBatch",
    "AccessResult",
    "PlacementContext",
    "PlacementPolicy",
    "StockPlacementPolicy",
    "HistoryPlacementPolicy",
    "ReplicationManager",
]

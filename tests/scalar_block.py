"""Scalar per-object reference for the storage substrate: blocks and replicas.

HDFS stores files as fixed-size blocks (256 MB in the paper's deployment),
each replicated a configurable number of times (three by default, four in
the high-durability experiments).  A block is *lost* when every replica has
been destroyed before re-replication could restore the count; it is
*unavailable* when every surviving replica currently sits on a busy server.

:class:`Block` and :class:`BlockReplica` are the scalar, per-object model
the columnar :class:`~repro.storage.block_table.BlockTable` (which is what
the NameNode runs on) replaced; the equivalence tests compare the table
against it, as ``scalar_cluster.py`` does for the compute side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

#: Default block size used by the modelled deployment.
DEFAULT_BLOCK_SIZE_GB = 0.25


class ReplicaState(str, enum.Enum):
    """Lifecycle of one replica of a block."""

    HEALTHY = "healthy"
    DESTROYED = "destroyed"


@dataclass
class BlockReplica:
    """One replica of a block on one server.

    Attributes:
        server_id: the server holding the replica.
        tenant_id: the primary tenant owning that server.
        state: healthy or destroyed (by a reimage).
        created_time: when the replica was written.
    """

    server_id: str
    tenant_id: str
    state: ReplicaState = ReplicaState.HEALTHY
    created_time: float = 0.0

    def destroy(self) -> None:
        """Mark the replica destroyed (disk reimaged)."""
        self.state = ReplicaState.DESTROYED

    @property
    def healthy(self) -> bool:
        """True while the replica survives."""
        return self.state is ReplicaState.HEALTHY


@dataclass
class Block:
    """A block of secondary-tenant data and its replicas.

    Attributes:
        block_id: unique identifier.
        size_gb: block size in gigabytes.
        target_replication: desired number of healthy replicas.
        replicas: current replicas keyed by server id.
        lost: set once all replicas were destroyed (never cleared: a lost
            block stays lost even if storage later frees up).
    """

    block_id: str
    size_gb: float = DEFAULT_BLOCK_SIZE_GB
    target_replication: int = 3
    replicas: Dict[str, BlockReplica] = field(default_factory=dict)
    lost: bool = False

    def __post_init__(self) -> None:
        if self.size_gb <= 0:
            raise ValueError("block size must be positive")
        if self.target_replication <= 0:
            raise ValueError("target_replication must be positive")

    def add_replica(self, replica: BlockReplica) -> None:
        """Attach a new replica; a server holds at most one replica of a block."""
        if (
            replica.server_id in self.replicas
            and self.replicas[replica.server_id].healthy
        ):
            raise ValueError(
                f"block {self.block_id} already has a replica on {replica.server_id}"
            )
        self.replicas[replica.server_id] = replica

    def healthy_replicas(self) -> List[BlockReplica]:
        """Replicas that are still intact."""
        return [r for r in self.replicas.values() if r.healthy]

    @property
    def healthy_count(self) -> int:
        """Number of intact replicas."""
        return len(self.healthy_replicas())

    @property
    def missing_replicas(self) -> int:
        """How many replicas re-replication still needs to restore."""
        return max(0, self.target_replication - self.healthy_count)

    def destroy_replica_on(self, server_id: str, time: float) -> bool:
        """Destroy the replica on ``server_id`` if one exists.

        Returns True when a healthy replica was destroyed.  Marks the block
        lost once no healthy replica remains.
        """
        replica = self.replicas.get(server_id)
        if replica is None or not replica.healthy:
            return False
        replica.destroy()
        if self.healthy_count == 0:
            self.lost = True
        return True

    def servers_with_healthy_replicas(self) -> List[str]:
        """Servers currently holding an intact replica."""
        return [r.server_id for r in self.healthy_replicas()]

    def tenants_with_healthy_replicas(self) -> List[str]:
        """Primary tenants currently holding an intact replica."""
        return [r.tenant_id for r in self.healthy_replicas()]

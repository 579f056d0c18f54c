"""The Data Node: one server's storage configuration and access gating.

Each shared server runs a DataNode that stores block replicas on the disk
space its primary tenant allows.  Where replicas live and how much space
they use is the NameNode's record (its :class:`~repro.storage.block_table
.BlockTable` and per-server columns); the DataNode only describes the
server — its quota and whether its primary tenant is busy.

The primary-tenant-aware DataNode (DN-H / DN-PT) denies data accesses
whenever serving them would consume the server's CPU reserve — i.e. when the
primary tenant's utilization exceeds the busy threshold — and reports its
busy/available status to the NameNode in its heartbeat so the NameNode stops
listing it as a replica source or placement target (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traces.datacenter import PrimaryTenant, Server


@dataclass
class DataNode:
    """Per-server storage agent.

    Attributes:
        server: the underlying physical server.
        tenant: the server's primary tenant (drives the busy signal).
        primary_aware: whether the DataNode denies accesses under load.
        busy_threshold: primary CPU utilization above which accesses are
            denied; the paper's testbed reserves a third of the CPU, so a
            server whose primary tenant exceeds roughly two thirds cannot
            serve secondary I/O.
    """

    server: Server
    tenant: PrimaryTenant
    primary_aware: bool = True
    busy_threshold: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if not 0.0 < self.busy_threshold <= 1.0:
            raise ValueError("busy_threshold must be in (0, 1]")

    @property
    def server_id(self) -> str:
        """The hosting server's id."""
        return self.server.server_id

    @property
    def tenant_id(self) -> str:
        """The hosting server's primary tenant."""
        return self.tenant.tenant_id

    @property
    def capacity_gb(self) -> float:
        """Disk space the primary tenant allows the file system to use."""
        return self.server.harvestable_disk_gb

    def is_busy(self, time: float) -> bool:
        """Whether the DataNode currently denies secondary accesses.

        A primary-oblivious (stock) DataNode never reports busy — it simply
        interferes with the primary tenant instead.
        """
        if not self.primary_aware:
            return False
        return self.tenant.utilization_at(time) > self.busy_threshold

    def can_serve(self, time: float) -> bool:
        """Whether a read of a stored replica would be served right now."""
        return not self.is_busy(time)

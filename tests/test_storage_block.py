"""Tests for blocks, replicas, and the per-server DataNode.

A DataNode only configures its server; the space its replicas use is the
NameNode's record, so the DataNode storage checks drive a one-server
NameNode.
"""

from __future__ import annotations

import numpy as np
import pytest
from per_replica_creation import place_replica
from scalar_block import Block, BlockReplica

from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode
from repro.storage.namenode import NameNode
from repro.storage.placement_policies import StockPlacementPolicy
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def make_block(replication: int = 3) -> Block:
    return Block("b1", target_replication=replication)


def make_datanode(
    utilization: float = 0.3, primary_aware: bool = True, disk: float = 10.0
) -> DataNode:
    tenant = PrimaryTenant(
        tenant_id="t",
        environment="env",
        machine_function="mf",
        trace=UtilizationTrace(np.full(50, utilization), UtilizationPattern.CONSTANT),
        pattern=UtilizationPattern.CONSTANT,
    )
    server = Server("s0", "t", disk_gb=disk * 2, harvestable_disk_gb=disk)
    tenant.servers.append(server)
    return DataNode(server=server, tenant=tenant, primary_aware=primary_aware)


def make_namenode(disk: float = 10.0) -> NameNode:
    """A NameNode over one DataNode, storing single-replica blocks."""
    return NameNode(
        [make_datanode(disk=disk)],
        StockPlacementPolicy(RandomSource(1)),
        default_replication=1,
    )


def used_gb(namenode: NameNode) -> float:
    return float(namenode._server_used[0])


class TestBlock:
    def test_validation(self):
        with pytest.raises(ValueError):
            Block("b", size_gb=0.0)
        with pytest.raises(ValueError):
            Block("b", target_replication=0)

    def test_add_and_count_replicas(self):
        block = make_block()
        block.add_replica(BlockReplica("s1", "t1"))
        block.add_replica(BlockReplica("s2", "t2"))
        assert block.healthy_count == 2
        assert block.missing_replicas == 1
        assert set(block.servers_with_healthy_replicas()) == {"s1", "s2"}
        assert set(block.tenants_with_healthy_replicas()) == {"t1", "t2"}

    def test_duplicate_server_replica_rejected(self):
        block = make_block()
        block.add_replica(BlockReplica("s1", "t1"))
        with pytest.raises(ValueError):
            block.add_replica(BlockReplica("s1", "t1"))

    def test_destroy_and_loss(self):
        block = make_block(replication=2)
        block.add_replica(BlockReplica("s1", "t1"))
        block.add_replica(BlockReplica("s2", "t2"))
        assert block.destroy_replica_on("s1", 10.0)
        assert not block.lost
        assert block.missing_replicas == 1
        assert block.destroy_replica_on("s2", 20.0)
        assert block.lost
        assert block.healthy_count == 0

    def test_destroying_missing_replica_is_noop(self):
        block = make_block()
        assert not block.destroy_replica_on("unknown", 0.0)
        block.add_replica(BlockReplica("s1", "t1"))
        block.destroy_replica_on("s1", 0.0)
        assert not block.destroy_replica_on("s1", 1.0)


class TestDataNode:
    def test_space_accounting(self):
        namenode = make_namenode(disk=1.0)
        assert namenode.create_blocks(0.0, [None], size_gb=0.25) == ["block-1"]
        assert used_gb(namenode) == pytest.approx(0.25)
        assert namenode.datanodes["s0"].capacity_gb == 1.0
        namenode.handle_reimage("s0", 1.0)
        assert used_gb(namenode) == 0.0

    def test_quota_never_exceeded(self):
        """Goal G1: never use more space than the primary tenant allows."""
        namenode = make_namenode(disk=0.5)
        assert namenode.create_blocks(0.0, [None] * 3, size_gb=0.25) == [
            "block-1",
            "block-2",
            None,
        ]
        assert used_gb(namenode) == pytest.approx(0.5)
        # Storing past the quota directly is refused, not over-committed.
        (row,) = namenode.block_table.append_blocks([("extra", ())], 0.25, 1)
        with pytest.raises(ValueError, match="no space"):
            place_replica(namenode, row, 0)
        assert used_gb(namenode) == pytest.approx(0.5)

    def test_duplicate_replica_rejected(self):
        namenode = make_namenode()
        (block_id,) = namenode.create_blocks(0.0, [None])
        with pytest.raises(ValueError, match="already has a replica"):
            place_replica(namenode, namenode.block_table.row_of(block_id), 0)
        assert used_gb(namenode) == pytest.approx(0.25)

    def test_reimage_clears_everything(self):
        namenode = make_namenode()
        namenode.create_blocks(0.0, [None] * 3)
        table = namenode.block_table
        assert table.rows_on(0) == {0, 1, 2}
        lost = namenode.handle_reimage("s0", 1.0)
        assert lost == ["block-1", "block-2", "block-3"]
        assert used_gb(namenode) == 0.0
        assert table.rows_on(0) == set()
        assert table.healthy_count.tolist() == [0, 0, 0]

    def test_busy_above_threshold(self):
        busy = make_datanode(utilization=0.8)
        idle = make_datanode(utilization=0.3)
        assert busy.is_busy(0.0)
        assert not busy.can_serve(0.0)
        assert not idle.is_busy(0.0)

    def test_stock_datanode_never_busy(self):
        datanode = make_datanode(utilization=0.9, primary_aware=False)
        assert not datanode.is_busy(0.0)
        assert datanode.can_serve(0.0)

    def test_busy_threshold_validated(self):
        with pytest.raises(ValueError):
            DataNode(
                server=Server("s", "t"),
                tenant=PrimaryTenant("t", "e", "m"),
                busy_threshold=0.0,
            )

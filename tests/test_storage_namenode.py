"""Tests for the NameNode: placement, access, reimages, and recovery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_replica_creation import create_blocks_per_replica

from repro.core.grid import TenantPlacementStats
from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode
from repro.storage.namenode import AccessResult, NameNode
from repro.storage.placement_policies import (
    HistoryPlacementPolicy,
    StockPlacementPolicy,
)
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def make_tenant(
    tenant_id: str,
    utilization,
    num_servers: int,
    environment: str | None = None,
    disk_gb: float = 16.0,
) -> PrimaryTenant:
    """A tenant with a constant utilization, or a repeating profile."""
    values = np.resize(np.asarray(utilization, dtype=float), 100)
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=environment or f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(values, UtilizationPattern.CONSTANT),
        pattern=UtilizationPattern.CONSTANT,
    )
    for index in range(num_servers):
        tenant.servers.append(
            Server(
                server_id=f"{tenant_id}-s{index}",
                tenant_id=tenant_id,
                rack=f"rack-{index % 3}",
                harvestable_disk_gb=disk_gb,
            )
        )
    return tenant


def build_cluster(
    utilizations: dict[str, float],
    policy: str = "stock",
    primary_aware: bool = True,
    replication: int = 3,
    servers_per_tenant: int = 3,
    disk_gb: float = 16.0,
    seed: int = 1,
) -> tuple[NameNode, list[PrimaryTenant]]:
    tenants = [
        make_tenant(tenant_id, util, servers_per_tenant, disk_gb=disk_gb)
        for tenant_id, util in utilizations.items()
    ]
    datanodes = [
        DataNode(server=s, tenant=t, primary_aware=primary_aware)
        for t in tenants
        for s in t.servers
    ]
    if policy == "history":
        placement = HistoryPlacementPolicy(rng=RandomSource(seed))
        stats = [
            TenantPlacementStats(
                tenant_id=t.tenant_id,
                environment=t.environment,
                reimage_rate=t.reimage_profile.rate_per_server_month,
                peak_utilization=t.peak_utilization(),
                available_space_gb=t.harvestable_disk_gb,
                server_ids=[s.server_id for s in t.servers],
                racks_by_server={s.server_id: s.rack for s in t.servers},
            )
            for t in tenants
        ]
        placement.update_clustering(stats)
    else:
        placement = StockPlacementPolicy(rng=RandomSource(seed))
    namenode = NameNode(
        datanodes,
        placement,
        primary_aware=primary_aware,
        default_replication=replication,
        rng=RandomSource(seed + 1),
    )
    return namenode, tenants


UTILIZATIONS = {f"t{i}": 0.1 + 0.05 * i for i in range(9)}


def create(namenode: NameNode, time: float = 0.0, creator: str | None = None):
    """Create one block; its id, or ``None`` when placement failed."""
    return namenode.create_blocks(time, [creator])[0]


def healthy_servers(namenode: NameNode, block_id: str) -> list[str]:
    table = namenode.block_table
    return [
        table.server_ids[i] for i in table.healthy_servers_of(table.row_of(block_id))
    ]


def healthy_count(namenode: NameNode, block_id: str) -> int:
    table = namenode.block_table
    return table.healthy_count_of(table.row_of(block_id))


class TestCreation:
    def test_block_created_with_full_replication(self):
        namenode, tenants = build_cluster(UTILIZATIONS)
        block_id = create(namenode, creator=tenants[0].servers[0].server_id)
        assert block_id is not None
        assert healthy_count(namenode, block_id) == 3
        assert namenode._replication._pending == []

    def test_stock_placement_uses_creating_server(self):
        namenode, tenants = build_cluster(UTILIZATIONS)
        creator = tenants[0].servers[0].server_id
        block_id = create(namenode, creator=creator)
        assert creator in healthy_servers(namenode, block_id)

    def test_history_placement_spreads_over_tenants(self):
        namenode, tenants = build_cluster(UTILIZATIONS, policy="history")
        block_id = create(namenode, creator=tenants[0].servers[0].server_id)
        assert block_id is not None
        tenant_of = {s.server_id: t.tenant_id for t in tenants for s in t.servers}
        assert len({tenant_of[s] for s in healthy_servers(namenode, block_id)}) == 3

    def test_creation_fails_when_no_space(self):
        namenode, tenants = build_cluster({"t0": 0.1}, servers_per_tenant=1)
        # Fill the single server (16 GB harvestable, 0.25 GB blocks).
        for _ in range(64):
            assert create(namenode) is not None
        assert create(namenode) is None
        assert namenode.block_table.num_blocks == 64

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(UTILIZATIONS, replication=0)

    @pytest.mark.parametrize(
        "kwargs, argument",
        [
            ({"replication": 0}, "replication"),
            ({"replication": -2}, "replication"),
            ({"size_gb": math.nan}, "size_gb"),
            ({"size_gb": math.inf}, "size_gb"),
            ({"size_gb": 0.0}, "size_gb"),
            ({"size_gb": -0.25}, "size_gb"),
        ],
    )
    def test_bad_call_fails_before_consuming_an_id(self, kwargs, argument):
        namenode, _ = build_cluster(UTILIZATIONS)
        stream = namenode._policy.rng.state_dict()
        with pytest.raises(ValueError, match=argument):
            namenode.create_blocks(0.0, [None, None], **kwargs)
        assert namenode._policy.rng.state_dict() == stream
        assert namenode.block_table.num_blocks == 0
        assert namenode.create_blocks(0.0, [None]) == ["block-1"]

    def test_namenode_requires_datanodes(self):
        with pytest.raises(ValueError):
            NameNode([], StockPlacementPolicy())


class TestAccess:
    def test_access_served_when_replicas_idle(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block_id = create(namenode)
        assert namenode.access_block(block_id, 0.0) is AccessResult.SERVED

    def test_access_unavailable_when_all_replicas_busy(self):
        namenode, _ = build_cluster({f"t{i}": 0.9 for i in range(4)})
        # Creation at a time when everything is busy still places (exclusion
        # may leave the block empty), so create with awareness disabled first.
        namenode_idle, _ = build_cluster(
            {f"t{i}": 0.9 for i in range(4)}, primary_aware=False
        )
        block_id = create(namenode_idle)
        assert namenode_idle.access_block(block_id, 0.0) is AccessResult.SERVED

        # Same layout but primary-aware: all replicas busy -> unavailable.
        namenode_aware, _ = build_cluster({f"t{i}": 0.9 for i in range(4)})
        created = create(namenode_aware)
        if created is None or healthy_count(namenode_aware, created) == 0:
            pytest.skip("no replicas could be placed in this configuration")
        outcome = namenode_aware.access_block(created, 0.0)
        assert outcome is AccessResult.UNAVAILABLE

    def test_unknown_block_raises(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        with pytest.raises(KeyError):
            namenode.access_block("missing", 0.0)

    def test_lost_block_reported(self):
        namenode, tenants = build_cluster(UTILIZATIONS)
        block_id = create(namenode)
        for server_id in healthy_servers(namenode, block_id):
            namenode.handle_reimage(server_id, 1.0)
        assert namenode.access_block(block_id, 2.0) is AccessResult.LOST


class TestReimageAndRecovery:
    def test_reimage_destroys_replicas_and_queues_recovery(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block_id = create(namenode)
        victim = healthy_servers(namenode, block_id)[0]
        lost = namenode.handle_reimage(victim, 10.0)
        assert lost == []
        assert healthy_count(namenode, block_id) == 2
        assert namenode._replication._pending == [block_id]

    def test_recovery_restores_replication(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block_id = create(namenode)
        victim = healthy_servers(namenode, block_id)[0]
        namenode.handle_reimage(victim, 10.0)
        restored = namenode.run_replication(10.0 + 3600.0)
        assert restored >= 1
        assert healthy_count(namenode, block_id) == 3
        assert namenode._replication._pending == []

    def test_simultaneous_reimage_of_all_replicas_loses_block(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block_id = create(namenode)
        newly_lost = []
        for server_id in healthy_servers(namenode, block_id):
            newly_lost.extend(namenode.handle_reimage(server_id, 10.0))
        assert newly_lost == [block_id]
        assert namenode.lost_block_count() == 1
        # Lost blocks are not recovered.
        namenode.run_replication(20_000.0)
        assert namenode.block_table.is_lost(0)
        assert healthy_count(namenode, block_id) == 0

    def test_reimage_of_unknown_server_is_noop(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        assert namenode.handle_reimage("missing", 0.0) == []

    def test_used_space_tracks_replicas(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block_id = create(namenode)
        used = namenode._server_used
        assert float(used.sum()) == pytest.approx(3 * 0.25)
        victim = healthy_servers(namenode, block_id)[0]
        namenode.handle_reimage(victim, 1.0)
        assert float(used.sum()) == pytest.approx(2 * 0.25)
        assert float(used[namenode.block_table.index_of_server[victim]]) == 0.0


#: Time-varying utilization profiles, so busy masks differ across times.
PROFILES = {
    "idle": [0.1, 0.1, 0.2, 0.1],
    "diurnal": [0.2, 0.7, 0.9, 0.3],
    "busy": [0.9, 0.65, 0.7, 0.9],
    "spiky": [0.05, 0.95, 0.05, 0.95],
    "calm": [0.3, 0.2, 0.1, 0.3],
    "late": [0.1, 0.3, 0.8, 0.95],
}


def namenode_state(namenode: NameNode) -> dict:
    """Everything block creation writes, in comparable form."""
    table = namenode.block_table
    rows = range(table.num_blocks)
    state = {
        "ids": [table.id_of(row) for row in rows],
        "counter": namenode._block_counter,
        "live": [table.healthy_servers_of(row).tolist() for row in rows],
        "held_order": [table.holders_of(row) for row in rows],
        "held_bits": [table.held_bits(row) for row in rows],
        "rows_on": [table.rows_on(i) for i in range(table.num_servers)],
        "size": table.size_gb.tolist(),
        "target": table.target_replication.tolist(),
        "used": namenode._server_used.tolist(),
        "pending": list(namenode._replication._pending),
        "stream": namenode._policy.rng.state_dict(),
    }
    placer = getattr(namenode._policy, "_placer", None)
    if placer is not None:
        state["tenant_space"] = dict(placer._space_used_gb)
    return state


class TestBatchedCreation:
    """One batched ``create_blocks`` call leaves exactly the state the
    per-replica loop (``tests/per_replica_creation.py``) leaves."""

    @pytest.mark.parametrize("policy", ["stock", "history"])
    @pytest.mark.parametrize("primary_aware", [True, False])
    @given(
        seed=st.integers(0, 500),
        batches=st.lists(
            st.tuples(
                st.integers(0, 30),
                st.sampled_from([0.0, 120.0, 240.0, 360.0]),
                st.sampled_from([None, 1, 2, 3, 5]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_per_replica_loop(self, policy, primary_aware, seed, batches):
        # 1 GB disks hold four 0.25 GB replicas, so servers fill up mid-batch
        # (exclusion flips), blocks end up under-replicated and, once the
        # fleet is full, find no candidates at all.
        twins = [
            build_cluster(
                PROFILES,
                policy=policy,
                primary_aware=primary_aware,
                servers_per_tenant=2,
                disk_gb=1.0,
                seed=seed,
            )[0]
            for _ in range(2)
        ]
        batched, looped = twins
        servers = sorted(batched.datanodes)
        creators = RandomSource(seed)
        for count, time, replication in batches:
            ids = [
                None if creators.uniform() < 0.2 else creators.choice(servers)
                for _ in range(count)
            ]
            assert batched.create_blocks(
                time, ids, replication=replication
            ) == create_blocks_per_replica(looped, time, ids, replication=replication)
            assert namenode_state(batched) == namenode_state(looped)

    def test_covers_flips_under_replication_and_full_fleets(self):
        """The scenario the property test draws from really reaches every
        edge: exclusion flips, short blocks and blocks with no candidates."""
        namenode, _ = build_cluster(
            PROFILES, policy="history", servers_per_tenant=2, disk_gb=1.0
        )
        ids = namenode.create_blocks(120.0, [None] * 40)
        table = namenode.block_table
        assert None in ids
        assert namenode._replication._pending  # under-replicated blocks
        full = namenode._server_used >= 1.0
        assert full.any() and table.num_blocks > 0

    @pytest.mark.parametrize(
        "choice, message", [([0], "no space"), ([1, 1], "already has a replica")]
    )
    def test_bad_policy_choices_raise_like_the_loop(self, choice, message):
        class Fixed:
            """A policy that always answers ``choice``."""

            def __init__(self, rng):
                self.rng = rng

            def choose_server_indices(self, *args):
                return list(choice)

        twins = [
            build_cluster({"t0": 0.1}, servers_per_tenant=2, disk_gb=1.0)[0]
            for _ in range(2)
        ]
        for namenode in twins:
            # Fill server 0, then hand the policy's picks over to ``Fixed``.
            namenode.create_blocks(0.0, ["t0-s0"] * 4, replication=1)
            namenode._policy = Fixed(namenode._policy.rng)
        batched, looped = twins
        before = namenode_state(batched)
        with pytest.raises(ValueError, match=message):
            batched.create_blocks(0.0, [None, None])
        with pytest.raises(ValueError, match=message):
            create_blocks_per_replica(looped, 0.0, [None, None])
        # The batch writes nothing when it raises.
        assert namenode_state(batched) == before

"""Property-based and failure-injection tests for the storage subsystem.

These drive the NameNode with randomized workloads (creations, reimages,
recovery rounds, accesses) and check the invariants that must hold no matter
what order events arrive in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def build_namenode(
    num_tenants: int, servers_per_tenant: int, policy: str, seed: int
) -> NameNode:
    tenants = []
    for i in range(num_tenants):
        tenant = PrimaryTenant(
            tenant_id=f"t{i}",
            environment=f"env-{i % max(1, num_tenants // 2)}",
            machine_function="mf",
            trace=UtilizationTrace(
                np.full(50, 0.1 + 0.07 * (i % 10)), UtilizationPattern.CONSTANT
            ),
            pattern=UtilizationPattern.CONSTANT,
        )
        for j in range(servers_per_tenant):
            tenant.servers.append(
                Server(
                    server_id=f"t{i}-s{j}",
                    tenant_id=tenant.tenant_id,
                    rack=f"rack-{(i * servers_per_tenant + j) % 5}",
                    harvestable_disk_gb=4.0,
                )
            )
        tenants.append(tenant)
    datanodes = [
        DataNode(server=s, tenant=t, primary_aware=True)
        for t in tenants
        for s in t.servers
    ]
    if policy == "history":
        placement = HistoryPlacementPolicy(rng=RandomSource(seed))
        placement.update_clustering(
            [
                TenantPlacementStats(
                    tenant_id=t.tenant_id,
                    environment=t.environment,
                    reimage_rate=0.1 * (1 + i),
                    peak_utilization=t.peak_utilization(),
                    available_space_gb=t.harvestable_disk_gb,
                    server_ids=[s.server_id for s in t.servers],
                    racks_by_server={s.server_id: s.rack for s in t.servers},
                )
                for i, t in enumerate(tenants)
            ]
        )
    else:
        placement = StockPlacementPolicy(RandomSource(seed))
    return NameNode(datanodes, placement, rng=RandomSource(seed + 1))


def check_invariants(namenode: NameNode) -> None:
    """Conservation invariants that must hold after any event sequence.

    The NameNode's block table and per-server used-space column are the
    only storage record, so every check recounts one from the other.
    """
    table = namenode.block_table
    n = table.num_blocks
    live = table.live_servers
    rank = table.sorted_server_rank
    capacity = namenode._server_capacity
    used = namenode._server_used
    for index in range(table.num_servers):
        rows = set(np.flatnonzero((live == index).any(axis=1)).tolist())
        # 1. The per-server row index matches a recount of the live slots.
        assert table.rows_on(index) == rows
        # 2. Used space is exactly the summed size of the healthy replicas,
        #    and never exceeds the quota (goal G1).
        assert used[index] == pytest.approx(float(table.size_gb[sorted(rows)].sum()))
        assert used[index] <= capacity[index] + 1e-9
    for row in range(n):
        servers = table.healthy_servers_of(row).tolist()
        count = len(servers)
        # 3. The healthy count is the number of live slots, compacted to
        #    the front of the row; a block is lost exactly when it is 0.
        assert table.healthy_count_of(row) == count
        assert min(servers, default=0) >= 0 and (live[row, count:] == -1).all()
        assert table.is_lost(row) == (count == 0)
        # 4. No block ever exceeds its target replication (live slots).
        assert count <= int(table.target_replication[row])
        # 5. A server holds at most one replica of any block.
        assert len(servers) == len(set(servers))
        # 6. The live servers are ever-held ones, in insertion order.
        holders = table.holders_of(row)
        assert len(holders) == len(set(holders))
        assert servers == [server for server in holders if server in servers]
        # 7. The ever-held bitset is exactly the ever-held record.
        assert table.held_bits(row) == sum(1 << int(rank[s]) for s in holders)


def looped_reimage(namenode: NameNode, server_id: str) -> list[str]:
    """The per-row reimage replay: ``destroy_replica`` on each of the
    server's rows in lexicographic block-id order, queueing as it goes."""
    table = namenode.block_table
    index = table.index_of_server[server_id]
    namenode._server_used[index] = 0.0
    namenode._healthy_server_count = None
    newly_lost = []
    for row in sorted(table.rows_on(index), key=table.id_of):
        block_id = table.id_of(row)
        assert table.destroy_replica(row, index)
        if table.is_lost(row):
            newly_lost.append(block_id)
            namenode._replication.discard(block_id)
        else:
            namenode._replication.enqueue(block_id)
    return newly_lost


@st.composite
def workload(draw):
    """A random sequence of storage events."""
    events = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("create"), st.integers(0, 1_000_000)),
                st.tuples(st.just("reimage"), st.integers(0, 1_000_000)),
                st.tuples(st.just("recover"), st.integers(0, 1_000_000)),
                st.tuples(st.just("access"), st.integers(0, 1_000_000)),
            ),
            min_size=5,
            max_size=60,
        )
    )
    return sorted(events, key=lambda e: e[1])


class TestStorageInvariants:
    @pytest.mark.parametrize("policy", ["stock", "history"])
    @given(events=workload(), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_under_random_workloads(self, policy, events, seed):
        namenode = build_namenode(
            num_tenants=8, servers_per_tenant=2, policy=policy, seed=seed
        )
        rng = RandomSource(seed)
        server_ids = sorted(namenode.datanodes)
        block_ids: list[str] = []
        for kind, time in events:
            time = float(time)
            if kind == "create":
                (block_id,) = namenode.create_blocks(time, [rng.choice(server_ids)])
                if block_id is not None:
                    block_ids.append(block_id)
            elif kind == "reimage":
                namenode.handle_reimage(rng.choice(server_ids), time)
            elif kind == "recover":
                namenode.run_replication(time)
            elif kind == "access" and block_ids:
                result = namenode.access_block(rng.choice(block_ids), time)
                assert result in set(AccessResult)
        check_invariants(namenode)

    @pytest.mark.parametrize("policy", ["stock", "history"])
    @given(
        batches=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 1_000_000), st.booleans()),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_after_batched_creation(self, policy, batches, seed):
        """Whole batches of creations -- enough to fill the fleet, so
        servers drop out mid-batch -- interleaved with reimages and
        recovery keep every invariant."""
        namenode = build_namenode(
            num_tenants=8, servers_per_tenant=2, policy=policy, seed=seed
        )
        rng = RandomSource(seed)
        server_ids = sorted(namenode.datanodes)
        for count, time, reimage in batches:
            creators = [rng.choice(server_ids) for _ in range(count)]
            created = namenode.create_blocks(float(time), creators)
            assert len(created) == count
            check_invariants(namenode)
            if reimage:
                namenode.handle_reimage(rng.choice(server_ids), float(time))
                namenode.run_replication(float(time) + 1800.0)
                check_invariants(namenode)

    @given(events=workload(), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_batched_reimage_matches_per_row_destroys(self, events, seed):
        """``handle_reimage``'s one-shot column destroy leaves the same
        rows, ``lost`` flags, per-server row sets and re-replication queue
        as destroying the server's replicas one row at a time."""
        batched, looped = (
            build_namenode(num_tenants=6, servers_per_tenant=2, policy="stock", seed=seed)
            for _ in range(2)
        )
        rng = RandomSource(seed)
        server_ids = sorted(batched.datanodes)
        for kind, time in events:
            time = float(time)
            if kind == "create":
                creators = [rng.choice(server_ids) for _ in range(4)]
                assert batched.create_blocks(time, creators) == looped.create_blocks(
                    time, creators
                )
            elif kind == "reimage":
                victim = rng.choice(server_ids)
                assert batched.handle_reimage(victim, time) == looped_reimage(
                    looped, victim
                )
            elif kind == "recover":
                assert batched.run_replication(time) == looped.run_replication(time)
        a, b = batched.block_table, looped.block_table
        assert np.array_equal(a.live_servers, b.live_servers)
        assert np.array_equal(a.healthy_count, b.healthy_count)
        assert np.array_equal(a.lost, b.lost)
        assert [a.rows_on(i) for i in range(a.num_servers)] == [
            b.rows_on(i) for i in range(b.num_servers)
        ]
        assert batched._replication._pending == looped._replication._pending
        check_invariants(batched)

    def test_mass_reimage_then_recovery(self):
        """Failure injection: wipe most of the cluster, then let it recover."""
        namenode = build_namenode(
            num_tenants=10, servers_per_tenant=3, policy="history", seed=3
        )
        rng = RandomSource(3)
        servers = sorted(namenode.datanodes)
        for _ in range(40):
            namenode.create_blocks(0.0, [rng.choice(servers)])
        # Reimage two thirds of the servers at nearly the same time.
        for server_id in servers[: 2 * len(servers) // 3]:
            namenode.handle_reimage(server_id, 100.0)
        check_invariants(namenode)
        # Recovery over the following hours restores every surviving block.
        for hour in range(1, 20):
            namenode.run_replication(100.0 + hour * 3600.0)
        check_invariants(namenode)
        table = namenode.block_table
        for row in range(table.num_blocks):
            if not table.is_lost(row):
                assert table.missing_of(row) == 0

    def test_creation_storm_respects_quotas(self):
        """Filling the file system never overflows any server's quota."""
        namenode = build_namenode(
            num_tenants=4, servers_per_tenant=2, policy="stock", seed=5
        )
        rng = RandomSource(5)
        servers = sorted(namenode.datanodes)
        created = [
            namenode.create_blocks(0.0, [rng.choice(servers)])[0]
            for _ in range(500)
        ]
        check_invariants(namenode)
        # Eventually creations fail rather than over-commit space.
        assert None in created

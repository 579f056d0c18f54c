"""Tests for the BlockTable substrate and its scalar-path equivalence.

Mirrors ``tests/test_cluster_fleet_state.py`` on the storage side: every
batched block operation (creation placement, effectful access batches,
reimage replay, re-replication candidate picks) is checked against the
legacy per-object path it replaced, using twin NameNodes driven through
identical random streams.  The scalar oracle below is a line-for-line
port of the pre-BlockTable NameNode hot paths over the ``Block`` /
``BlockReplica`` dataclasses of ``scalar_block.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_block import Block, BlockReplica
from test_property_storage import check_invariants

from repro.simulation.random import RandomSource
from repro.storage.block_table import BlockTable
from repro.storage.datanode import DataNode
from repro.storage.namenode import AccessResult, NameNode
from repro.storage.placement_policies import StockPlacementPolicy
from repro.storage.replication import ReplicationManager
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def make_tenant(tenant_id: str, values, num_servers: int) -> PrimaryTenant:
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(
            np.asarray(values, dtype=float), UtilizationPattern.CONSTANT
        ),
        pattern=UtilizationPattern.CONSTANT,
    )
    for index in range(num_servers):
        tenant.servers.append(
            Server(
                server_id=f"{tenant_id}-s{index}",
                tenant_id=tenant_id,
                rack=f"rack-{index % 3}",
                harvestable_disk_gb=8.0,
            )
        )
    return tenant


#: Time-varying profiles so the busy mask differs across the sampled times.
PROFILES = {
    "idle": [0.1, 0.1, 0.2, 0.1],
    "diurnal": [0.2, 0.7, 0.9, 0.3],
    "busy": [0.9, 0.65, 0.7, 0.9],
    "spiky": [0.05, 0.95, 0.05, 0.95],
}


def make_datanodes(primary_aware: bool = True):
    tenants = [make_tenant(tid, values, 3) for tid, values in PROFILES.items()]
    return [
        DataNode(server=s, tenant=t, primary_aware=primary_aware)
        for t in tenants
        for s in t.servers
    ]


def build_namenode(seed: int = 1, primary_aware: bool = True) -> NameNode:
    return NameNode(
        make_datanodes(primary_aware),
        StockPlacementPolicy(rng=RandomSource(seed)),
        primary_aware=primary_aware,
        rng=RandomSource(seed + 1),
    )


class ScalarNameNode:
    """The pre-BlockTable NameNode logic, kept as the equivalence oracle.

    It keeps its own per-server bookkeeping (stored block ids and used
    space), the way the DataNodes once did.  Its recovery round is the
    per-replica walk the NameNode's batched rounds replay: one candidate
    list, one draw and one store per missing replica, in drain order.
    """

    def __init__(self, datanodes, policy, primary_aware=True, replication=3, rng=None):
        self.datanodes = {dn.server_id: dn for dn in datanodes}
        self.policy = policy
        self.primary_aware = primary_aware
        self.default_replication = replication
        self.rng = rng or RandomSource(0)
        self.blocks: dict[str, Block] = {}
        self.counter = 0
        self.manager = ReplicationManager()
        self.stored: dict[str, set[str]] = {sid: set() for sid in self.datanodes}
        self.used: dict[str, float] = {sid: 0.0 for sid in self.datanodes}

    def free_gb(self, server_id):
        return max(0.0, self.datanodes[server_id].capacity_gb - self.used[server_id])

    def has_space_for(self, server_id, size_gb):
        return size_gb <= self.free_gb(server_id) + 1e-9

    def create_block(self, time, creating_server_id=None, size_gb=0.25):
        self.counter += 1
        block = Block(
            f"block-{self.counter}",
            size_gb=size_gb,
            target_replication=self.default_replication,
        )
        exclude = [
            sid
            for sid, dn in self.datanodes.items()
            if not self.has_space_for(sid, size_gb)
            or (self.primary_aware and dn.is_busy(time))
        ]
        chosen = self.policy.choose_servers(
            self.default_replication,
            creating_server_id,
            self.datanodes,
            exclude=exclude,
        )
        if not chosen:
            return None
        for server_id in chosen:
            self._store(block, server_id, time)
        self.blocks[block.block_id] = block
        if block.healthy_count < self.default_replication:
            self.manager.enqueue(block.block_id)
        return block

    def _store(self, block, server_id, time):
        assert block.block_id not in self.stored[server_id]
        assert self.has_space_for(server_id, block.size_gb)
        self.stored[server_id].add(block.block_id)
        self.used[server_id] += block.size_gb
        block.add_replica(
            BlockReplica(
                server_id=server_id,
                tenant_id=self.datanodes[server_id].tenant_id,
                created_time=time,
            )
        )

    def access_block(self, block_id, time):
        block = self.blocks[block_id]
        if block.lost:
            return AccessResult.LOST
        healthy = block.servers_with_healthy_replicas()
        if not healthy:
            return AccessResult.LOST
        if not self.primary_aware:
            return AccessResult.SERVED
        if any(self.datanodes[s].can_serve(time) for s in healthy):
            return AccessResult.SERVED
        return AccessResult.UNAVAILABLE

    def handle_reimage(self, server_id, time):
        if server_id not in self.datanodes:
            return []
        affected = self.stored[server_id]
        self.stored[server_id] = set()
        self.used[server_id] = 0.0
        newly_lost = []
        for block_id in sorted(affected):
            block = self.blocks.get(block_id)
            if block is None:
                continue
            was_lost = block.lost
            block.destroy_replica_on(server_id, time)
            if block.lost and not was_lost:
                newly_lost.append(block_id)
                self.manager.discard(block_id)
            elif not block.lost:
                self.manager.enqueue(block_id)
        return newly_lost

    def run_replication(self, time):
        healthy_servers = sum(1 for sid in self.datanodes if self.free_gb(sid) > 0)
        drained = self.manager.drain(time, healthy_servers)
        restored = 0
        for block_id in drained:
            block = self.blocks.get(block_id)
            if block is None or block.lost:
                continue
            while block.missing_replicas > 0:
                target = self._pick_recovery_target(block, time)
                if target is None:
                    self.manager.enqueue(block_id)
                    break
                self._store(block, target, time)
                restored += 1
        return restored

    def _pick_recovery_target(self, block, time):
        holders = set(block.replicas.keys())
        candidates = sorted(
            sid
            for sid, dn in self.datanodes.items()
            if self.has_space_for(sid, block.size_gb)
            and not (self.primary_aware and dn.is_busy(time))
            and sid not in holders
        )
        if not candidates:
            return None
        return self.rng.choice(candidates)


def twin_pair(seed=1, primary_aware=True):
    """A columnar NameNode and the scalar oracle on identical twin fleets."""
    namenode = build_namenode(seed, primary_aware)
    scalar = ScalarNameNode(
        make_datanodes(primary_aware),
        StockPlacementPolicy(rng=RandomSource(seed)),
        primary_aware=primary_aware,
        rng=RandomSource(seed + 1),
    )
    return namenode, scalar


def layout_of(namenode, block_id) -> list[tuple[str, bool]]:
    """(server, healthy) per ever-held server of a table row, in insertion
    order — the scalar ``Block.replicas`` dict.  Also checks that the live
    slots are exactly that record's healthy entries, in the same order."""
    table = namenode.block_table
    row = table.row_of(block_id)
    live = table.healthy_servers_of(row).tolist()
    holders = table.holders_of(row)
    assert live == [server for server in holders if server in live]
    return [(table.server_ids[server], server in live) for server in holders]


def scalar_layout(block) -> list[tuple[str, bool]]:
    """(server, healthy) per replica of a scalar block, in insertion order."""
    return [(r.server_id, r.healthy) for r in block.replicas.values()]


def append(table: BlockTable, block_id: str, size_gb: float, target: int) -> int:
    """A replica-less row, as the removed single-row ``append`` made."""
    (row,) = table.append_blocks([(block_id, ())], size_gb, target)
    return row


def block_ids_of(namenode) -> list[str]:
    table = namenode.block_table
    return [table.id_of(row) for row in range(table.num_blocks)]


class TestCreationEquivalence:
    def test_placements_match_scalar_draws(self):
        namenode, scalar = twin_pair()
        servers = sorted(namenode.datanodes)
        creator_rng = RandomSource(7)
        twin_creator_rng = RandomSource(7)
        for i in range(60):
            time = float(i * 37)
            (created,) = namenode.create_blocks(time, [creator_rng.choice(servers)])
            expected = scalar.create_block(
                time, creating_server_id=twin_creator_rng.choice(servers)
            )
            if expected is None:
                assert created is None
                continue
            assert created is not None
            assert layout_of(namenode, created) == scalar_layout(expected)

    def test_batched_create_matches_scalar_loop(self):
        namenode, scalar = twin_pair()
        servers = sorted(namenode.datanodes)
        creator_rng = RandomSource(11)
        twin_creator_rng = RandomSource(11)
        creators = [
            servers[int(i)]
            for i in creator_rng.generator.integers(0, len(servers), size=50)
        ]
        ids = namenode.create_blocks(120.0, creators)
        for creator in (
            twin_creator_rng.choice(servers) for _ in range(50)
        ):
            scalar.create_block(120.0, creating_server_id=creator)
        assert len(ids) == 50
        for block_id, expected in zip(
            [i for i in ids if i is not None], scalar.blocks.values()
        ):
            assert layout_of(namenode, block_id) == scalar_layout(expected)
        # The under-replicated queue matches, in order.
        assert namenode._replication._pending == scalar.manager._pending

    def test_full_cluster_fails_creation_identically(self):
        namenode, scalar = twin_pair()
        outcomes = []
        expected = []
        for i in range(500):
            outcomes.append(namenode.create_blocks(0.0, [None])[0] is not None)
            expected.append(scalar.create_block(0.0) is not None)
        assert outcomes == expected
        assert not outcomes[-1]  # the 8 GB quota fills well before 500 blocks


class TestReimageReplicationEquivalence:
    def drive(self, namenode, scalar, seed=5):
        servers = sorted(namenode.datanodes)
        rng = RandomSource(seed)
        twin = RandomSource(seed)
        for i in range(40):
            namenode.create_blocks(0.0, [rng.choice(servers)])
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        # Reimage a burst of servers, then let recovery run for hours.
        for step, victim in enumerate(servers[:8]):
            assert namenode.handle_reimage(victim, 100.0 + step) == (
                scalar.handle_reimage(victim, 100.0 + step)
            )
        for hour in range(1, 10):
            time = 100.0 + hour * 1800.0
            assert namenode.run_replication(time) == scalar.run_replication(time)

    def test_recovery_draws_and_layouts_match(self):
        namenode, scalar = twin_pair()
        self.drive(namenode, scalar)
        table = namenode.block_table
        assert block_ids_of(namenode) == list(scalar.blocks)
        for block_id, expected in scalar.blocks.items():
            assert layout_of(namenode, block_id) == scalar_layout(expected)
            assert table.is_lost(table.row_of(block_id)) == expected.lost
        assert namenode.lost_block_count() == sum(
            b.lost for b in scalar.blocks.values()
        )

    def test_oblivious_variant_matches_too(self):
        namenode, scalar = twin_pair(seed=9, primary_aware=False)
        self.drive(namenode, scalar, seed=13)
        for block_id, expected in scalar.blocks.items():
            assert layout_of(namenode, block_id) == scalar_layout(expected)

    def test_requeue_order_is_lexicographic_not_numeric(self):
        """The kill/re-replication ordering edge case: ``block-10`` sorts
        before ``block-2``, and the queue (hence every downstream draw) must
        follow that string order exactly."""
        namenode, scalar = twin_pair(seed=21)
        servers = sorted(namenode.datanodes)
        rng = RandomSource(3)
        twin = RandomSource(3)
        for _ in range(12):  # ids block-1 .. block-12 cross the 9->10 divide
            namenode.create_blocks(0.0, [rng.choice(servers)])
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        table = namenode.block_table
        victim = max(
            namenode.datanodes,
            key=lambda sid: len(table.rows_on(table.index_of_server[sid])),
        )
        namenode.handle_reimage(victim, 50.0)
        scalar.handle_reimage(victim, 50.0)
        pending = namenode._replication._pending
        assert pending == sorted(pending)
        assert pending == scalar.manager._pending
        assert namenode.run_replication(50.0 + 3600.0) == scalar.run_replication(
            50.0 + 3600.0
        )


def tight_datanodes(capacities, primary_aware=True):
    """The :data:`PROFILES` fleet (4 tenants x 3 servers, busy at varying
    times) with the given per-server quotas."""
    tenants = [make_tenant(tid, values, 3) for tid, values in PROFILES.items()]
    servers = [server for tenant in tenants for server in tenant.servers]
    for server, capacity in zip(servers, capacities):
        server.harvestable_disk_gb = capacity
    return [
        DataNode(server=s, tenant=t, primary_aware=primary_aware)
        for t in tenants
        for s in t.servers
    ]


def scalar_invariants(scalar: ScalarNameNode) -> None:
    """The oracle's own conservation checks: used space is the summed size
    of the stored replicas and within quota, stored replicas are exactly
    the healthy ones, and a block is lost exactly when none is left."""
    for server_id, datanode in scalar.datanodes.items():
        stored = scalar.stored[server_id]
        assert scalar.used[server_id] == pytest.approx(
            sum(scalar.blocks[b].size_gb for b in stored)
        )
        assert scalar.used[server_id] <= datanode.capacity_gb + 1e-9
    for block_id, block in scalar.blocks.items():
        healthy = block.servers_with_healthy_replicas()
        assert {s for s in scalar.stored if block_id in scalar.stored[s]} == set(
            healthy
        )
        assert len(healthy) <= block.target_replication
        assert block.lost == (not healthy)


#: One storage event: ``("create", count, size_gb)``, ``("reimage",
#: server position, _)`` or ``("recover", extra minutes, _)``.
RECOVERY_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(1, 10), st.sampled_from([0.25, 0.5])),
        st.tuples(st.just("reimage"), st.integers(0, 11), st.just(0.0)),
        st.tuples(st.just("recover"), st.integers(0, 90), st.just(0.0)),
    ),
    min_size=1,
    max_size=40,
)

QUOTAS = st.lists(st.sampled_from([0.5, 0.75, 1.0, 1.5, 3.0]), min_size=12, max_size=12)


class TestBatchedRecoveryRounds:
    """A recovery round placed as arrays equals the oracle's per-replica
    walk: the same restored counts, draws, queue, live slots, ever-held
    record and used space, under quotas tight enough that targets fill
    mid-round, two block sizes in one round, blocks missing several
    replicas, busy servers, and blocks left without a viable target."""

    @given(
        events=RECOVERY_EVENTS,
        quotas=QUOTAS,
        replication=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 1000),
        primary_aware=st.booleans(),
    )
    # Three-way replicas on 0.5-0.75 GB quotas: reimages leave blocks
    # missing two or three replicas, targets fill mid-round, and some
    # blocks run out of viable servers.
    @example(
        events=[("create", 10, 0.25), ("create", 6, 0.5), ("reimage", 0, 0.0),
                ("reimage", 4, 0.0), ("reimage", 7, 0.0), ("recover", 30, 0.0),
                ("reimage", 2, 0.0), ("recover", 60, 0.0), ("recover", 60, 0.0)],
        quotas=[0.75, 0.5, 1.0, 0.5, 0.75, 1.5, 0.5, 0.75, 3.0, 0.5, 1.0, 0.75],
        replication=3,
        seed=7,
        primary_aware=True,
    )
    @settings(max_examples=150, deadline=None)
    def test_rounds_match_the_scalar_walk(
        self, events, quotas, replication, seed, primary_aware
    ):
        namenode = NameNode(
            tight_datanodes(quotas, primary_aware),
            StockPlacementPolicy(rng=RandomSource(seed)),
            primary_aware=primary_aware,
            default_replication=replication,
            rng=RandomSource(seed + 1),
        )
        scalar = ScalarNameNode(
            tight_datanodes(quotas, primary_aware),
            StockPlacementPolicy(rng=RandomSource(seed)),
            primary_aware=primary_aware,
            replication=replication,
            rng=RandomSource(seed + 1),
        )
        servers = sorted(namenode.datanodes)
        creators, twin_creators = RandomSource(seed), RandomSource(seed)
        time = 0.0
        for kind, value, size_gb in events:
            # 137 s steps walk the 120 s trace samples, so the busy set moves.
            time += 137.0
            if kind == "create":
                ids = namenode.create_blocks(
                    time,
                    [creators.choice(servers) for _ in range(value)],
                    size_gb=size_gb,
                )
                expected = [
                    scalar.create_block(time, twin_creators.choice(servers), size_gb)
                    for _ in range(value)
                ]
                assert ids == [b.block_id if b else None for b in expected]
            elif kind == "reimage":
                victim = servers[value]
                assert namenode.handle_reimage(victim, time) == scalar.handle_reimage(
                    victim, time
                )
            else:
                time += 60.0 * value
                assert namenode.run_replication(time) == scalar.run_replication(time)
                # The round consumed exactly the oracle's words.
                assert namenode._rng.integer(0, 2**31) == scalar.rng.integer(0, 2**31)
                assert namenode._replication._pending == scalar.manager._pending

        table = namenode.block_table
        index = table.index_of_server
        blocks = list(scalar.blocks.values())
        assert block_ids_of(namenode) == [b.block_id for b in blocks]
        live = np.full(table.live_servers.shape, -1, dtype=np.int64)
        held = np.zeros((len(blocks), table.num_servers), dtype=bool)
        for row, block in enumerate(blocks):
            healthy = [index[s] for s in block.servers_with_healthy_replicas()]
            live[row, : len(healthy)] = healthy
            ranks = table.sorted_server_rank[[index[s] for s in block.replicas]]
            held[row, ranks] = True
            assert table.holders_of(row) == [index[s] for s in block.replicas]
        assert table.live_servers.tobytes() == live.tobytes()
        assert table.held_matrix(np.arange(len(blocks))).tobytes() == held.tobytes()
        assert table.lost.tolist() == [b.lost for b in blocks]
        used = np.array([scalar.used[s] for s in table.server_ids])
        assert namenode._server_used.tobytes() == used.tobytes()
        check_invariants(namenode)
        scalar_invariants(scalar)


class TestAccessBatchEquivalence:
    def scalar_minute(self, scalar, block_ids, time, count, rng, column_of):
        """The legacy per-access loop from the fig12 runner."""
        served = failed = 0
        io_load: dict[str, float] = {}
        for _ in range(count):
            if not block_ids:
                break
            block_id = rng.choice(block_ids)
            outcome = scalar.access_block(block_id, time)
            if outcome is AccessResult.SERVED:
                served += 1
                block = scalar.blocks[block_id]
                healthy = block.servers_with_healthy_replicas()
                if scalar.primary_aware:
                    healthy = [
                        s
                        for s in healthy
                        if scalar.datanodes[s].can_serve(time)
                    ] or healthy
                if healthy:
                    target = rng.choice(healthy)
                    io_load[target] = io_load.get(target, 0.0) + 0.05
            elif outcome is AccessResult.UNAVAILABLE:
                failed += 1
        io = np.zeros(len(column_of))
        for server_id, load in io_load.items():
            io[column_of[server_id]] = load
        return served, failed, io

    @pytest.mark.parametrize("primary_aware", [True, False])
    def test_access_batch_matches_scalar_loop(self, primary_aware):
        namenode, scalar = twin_pair(seed=17, primary_aware=primary_aware)
        servers = sorted(namenode.datanodes)
        rng = RandomSource(2)
        twin = RandomSource(2)
        for _ in range(25):
            namenode.create_blocks(0.0, [rng.choice(servers)])
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        namenode.handle_reimage(servers[0], 10.0)
        scalar.handle_reimage(servers[0], 10.0)

        column_of = {sid: i for i, sid in enumerate(namenode.server_ids)}
        access_rng = RandomSource(4)
        twin_access_rng = RandomSource(4)
        block_ids = list(scalar.blocks)
        for minute in (60.0, 120.0, 180.0, 240.0):
            batch = namenode.access_blocks(minute, 40, access_rng)
            served, failed, io = self.scalar_minute(
                scalar, block_ids, minute, 40, twin_access_rng, column_of
            )
            assert batch.served == served
            assert batch.failed == failed
            assert np.array_equal(batch.io_load, io)

    def test_access_counters_accumulate(self):
        namenode = build_namenode()
        namenode.create_blocks(0.0, [None])
        batch = namenode.access_blocks(0.0, 10, RandomSource(1), io_per_access=0.5)
        assert batch.served + batch.failed + batch.lost == 10
        assert batch.served > 0
        assert float(batch.io_load.sum()) == pytest.approx(0.5 * batch.served)


class TestBlockTableUnit:
    def build(self):
        return BlockTable(["s-a", "s-b", "s-c"])

    def test_slot_reuse_preserves_insertion_order(self):
        table = self.build()
        row = append(table, "b1", 0.25, 3)
        table.add_replica(row, 0)
        table.add_replica(row, 1)
        table.destroy_replica(row, 0)
        # Re-adding on the destroyed server keeps its original slot position,
        # like a dict overwrite keeps the key position.
        table.add_replica(row, 0)
        assert table.healthy_servers_of(row).tolist() == [0, 1]

    def test_add_replica_rejects_healthy_duplicate(self):
        table = self.build()
        row = append(table, "b1", 0.25, 3)
        table.add_replica(row, 0)
        with pytest.raises(ValueError):
            table.add_replica(row, 0)

    def test_lost_flag_is_sticky(self):
        table = self.build()
        row = append(table, "b1", 0.25, 2)
        table.add_replica(row, 0)
        assert table.destroy_replica(row, 0)
        assert table.is_lost(row)
        table.add_replica(row, 1)
        assert table.is_lost(row)  # lost blocks stay lost

    def test_destroy_missing_replica_is_noop(self):
        table = self.build()
        row = append(table, "b1", 0.25, 2)
        table.add_replica(row, 0)
        assert not table.destroy_replica(row, 2)
        assert table.destroy_replica(row, 0)
        assert not table.destroy_replica(row, 0)

    def test_row_and_slot_growth(self):
        table = self.build()
        for i in range(1100):  # crosses the initial row capacity
            append(table, f"b{i}", 0.25, 2)
        assert table.num_blocks == 1100
        big = BlockTable([f"s{i}" for i in range(10)])
        row = append(big, "wide", 0.25, 10)
        for server in range(10):  # crosses the initial slot width
            big.add_replica(row, server)
        assert big.healthy_servers_of(row).tolist() == list(range(10))

    def test_rows_on_tracks_healthy_replicas(self):
        table = self.build()
        first = append(table, "b1", 0.25, 2)
        second = append(table, "b2", 0.25, 2)
        table.add_replica(first, 0)
        table.add_replica(second, 0)
        table.add_replica(second, 1)
        assert table.rows_on(0) == {first, second}
        assert table.rows_on(1) == {second}
        table.destroy_replica(second, 0)
        assert table.rows_on(0) == {first}
        table.add_replica(second, 0)  # slot reuse re-enters the index
        assert table.rows_on(0) == {first, second}
        assert table.rows_on(2) == set()

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "destroy", "reimage"]),
                st.integers(0, 1),
                st.integers(0, 3),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mutations_match_the_scalar_block(self, ops):
        """Random adds (re-adds included), destroys and whole-server
        destroys leave every row laid out like the scalar ``Block``."""
        servers = [f"s-{i}" for i in (3, 10, 2, 0)]  # rank != index
        table = BlockTable(servers, replica_slots=2)
        blocks = [Block(f"b{i}", 0.25, 4) for i in range(2)]
        rows = [append(table, b.block_id, 0.25, 4) for b in blocks]
        for kind, which, server in ops:
            block, row = blocks[which], rows[which]
            if kind == "add":
                healthy = servers[server] in block.servers_with_healthy_replicas()
                if healthy:
                    with pytest.raises(ValueError):
                        table.add_replica(row, server)
                    continue
                block.add_replica(BlockReplica(servers[server], "t"))
                table.add_replica(row, server)
            elif kind == "destroy":
                expected = block.destroy_replica_on(servers[server], 0.0)
                assert table.destroy_replica(row, server) == expected
            else:
                touched = set(table.destroy_replicas_on(server).tolist())
                assert touched == {
                    r
                    for b, r in zip(blocks, rows)
                    if b.destroy_replica_on(servers[server], 0.0)
                }
        for block, row in zip(blocks, rows):
            live = table.healthy_servers_of(row).tolist()
            assert [servers[i] for i in live] == block.servers_with_healthy_replicas()
            assert [
                (servers[i], i in live) for i in table.holders_of(row)
            ] == scalar_layout(block)
            assert table.is_lost(row) == block.lost
        for index, server_id in enumerate(servers):
            assert table.rows_on(index) == {
                r
                for b, r in zip(blocks, rows)
                if server_id in b.servers_with_healthy_replicas()
            }

    @given(
        earlier=st.lists(
            st.lists(st.integers(0, 6), unique=True, max_size=4), min_size=1, max_size=5
        ),
        picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=25),
        reimaged=st.integers(0, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_add_replicas_matches_add_replica_in_order(self, earlier, picks, reimaged):
        """One ``add_replicas`` call equals ``add_replica`` per pair, in
        order, for servers that never held their block -- a row listed
        several times in a row included, slots growing past the initial
        width -- and a bad call raises before writing anything."""
        servers = [f"s-{i}" for i in (3, 10, 2, 0, 7, 11, 5)]  # rank != index
        batched = BlockTable(servers, replica_slots=2)
        looped = BlockTable(servers, replica_slots=2)
        for table in (batched, looped):
            table.append_blocks(
                [(f"b{i}", held) for i, held in enumerate(earlier)], 0.25, 4
            )
            table.destroy_replicas_on(reimaged)
        # Each row's pairs next to each other, in first-listed row order.
        fresh = {}
        for row, server in picks:
            row %= len(earlier)
            if server not in looped.holders_of(row) + fresh.get(row, []):
                fresh.setdefault(row, []).append(server)
        pairs = [(row, server) for row, servers in fresh.items() for server in servers]
        for row, server in pairs:
            looped.add_replica(row, server)
        rows = np.array([row for row, _ in pairs], dtype=np.int64)
        batched.add_replicas(rows, np.array([s for _, s in pairs], dtype=np.int64))
        assert table_state(batched) == table_state(looped)
        before = table_state(batched)
        for row in range(len(earlier)):
            free = [s for s in range(7) if s not in batched.holders_of(row)]
            if batched.holders_of(row):
                with pytest.raises(ValueError, match="already has or had"):
                    batched.add_replicas(
                        np.array([row]), np.array(batched.holders_of(row)[:1])
                    )
            if free:
                with pytest.raises(ValueError, match="listed twice"):
                    batched.add_replicas(np.array([row, row]), np.array(free[:1] * 2))
            if len(free) >= 2 and len(earlier) >= 2:
                other = (row + 1) % len(earlier)
                spare = [s for s in range(7) if s not in batched.holders_of(other)]
                if spare:
                    with pytest.raises(ValueError, match="next to each other"):
                        batched.add_replicas(
                            np.array([row, other, row]),
                            np.array([free[0], spare[0], free[1]]),
                        )
        assert table_state(batched) == before

    def test_sorted_server_order_is_lexicographic(self):
        table = BlockTable(["s-10", "s-2", "s-1"])
        ordered = [table.server_ids[i] for i in table.sorted_server_order]
        assert ordered == ["s-1", "s-10", "s-2"]
        ranks = table.sorted_server_rank
        assert [int(ranks[i]) for i in table.sorted_server_order] == [0, 1, 2]


class TestNamespace:
    def test_mapping_behaviour(self):
        namenode = build_namenode()
        first, second = namenode.create_blocks(0.0, [None, None])
        table = namenode.block_table
        assert len(table) == 2
        assert block_ids_of(namenode) == [first, second]
        assert table.row_of(second) == 1
        assert table.get_row("missing") is None
        with pytest.raises(KeyError):
            table.row_of("missing")
        with pytest.raises(ValueError, match="already exists"):
            append(table, first, 0.25, 3)


def table_state(table: BlockTable) -> dict:
    """Everything a BlockTable records, in comparable form."""
    rows = range(table.num_blocks)
    return {
        "ids": [table.id_of(row) for row in rows],
        "row_of": {table.id_of(row): table.row_of(table.id_of(row)) for row in rows},
        "size": table.size_gb.tolist(),
        "target": table.target_replication.tolist(),
        "healthy": table.healthy_count.tolist(),
        "lost": table.lost.tolist(),
        "live": [table.healthy_servers_of(row).tolist() for row in rows],
        "held_order": [table.holders_of(row) for row in rows],
        "held_bits": [table.held_bits(row) for row in rows],
        "rows_on": [table.rows_on(i) for i in range(table.num_servers)],
    }


class TestAppendBlocks:
    """``append_blocks`` writes what a replica-less row per block plus one
    ``add_replica`` per server, in order, would."""

    SERVERS = [f"s-{i}" for i in (3, 10, 2, 0, 7, 11, 5)]  # rank != index

    @given(
        earlier=st.lists(
            st.lists(st.integers(0, 6), unique=True, max_size=4), max_size=5
        ),
        batch=st.lists(
            st.lists(st.integers(0, 6), unique=True, max_size=7), max_size=30
        ),
        reimaged=st.integers(0, 6),
        target=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_append_then_add_replica(self, earlier, batch, reimaged, target):
        batched = BlockTable(self.SERVERS, replica_slots=2)
        looped = BlockTable(self.SERVERS, replica_slots=2)
        # Some history first, so the batch lands on non-empty row sets.
        for index, servers in enumerate(earlier):
            for table in (batched, looped):
                row = append(table, f"old-{index}", 0.5, 3)
                for server in servers:
                    table.add_replica(row, server)
        for table in (batched, looped):
            table.destroy_replicas_on(reimaged)
        blocks = [(f"b{index}", servers) for index, servers in enumerate(batch)]
        rows = batched.append_blocks(blocks, 0.25, target)
        expected_rows = []
        for block_id, servers in blocks:
            row = append(looped, block_id, 0.25, target)
            for server in servers:
                looped.add_replica(row, server)
            expected_rows.append(row)
        assert list(rows) == expected_rows
        assert table_state(batched) == table_state(looped)

    def test_grows_rows_and_slots_in_one_write(self):
        table = BlockTable(self.SERVERS)
        blocks = [(f"b{i}", [i % 7, (i + 1) % 7]) for i in range(1500)]
        blocks.append(("wide", list(range(7))))
        rows = table.append_blocks(blocks, 0.25, 2)
        assert rows == range(0, 1501)
        assert table.healthy_servers_of(1500).tolist() == list(range(7))
        assert table.healthy_servers_of(3).tolist() == [3, 4]

    def test_empty_batch_writes_nothing(self):
        table = BlockTable(self.SERVERS)
        assert table.append_blocks([], 0.25, 3) == range(0, 0)
        assert table.num_blocks == 0

    @pytest.mark.parametrize(
        "blocks, size_gb, target, message",
        [
            ([("b9", [0])], float("nan"), 3, "size_gb"),
            ([("b9", [0])], float("inf"), 3, "size_gb"),
            ([("b9", [0])], 0.0, 3, "size_gb"),
            ([("b9", [0])], -0.25, 3, "size_gb"),
            ([("b9", [0])], 0.25, 0, "target_replication"),
            ([("b9", [0])], 0.25, -2, "target_replication"),
            ([("b9", [1]), ("b1", [0])], 0.25, 3, "already exists"),
            ([("b9", [1]), ("b9", [0])], 0.25, 3, "already exists"),
            ([("b9", [1]), ("b10", [2, 4, 2])], 0.25, 3, "already has a replica"),
        ],
    )
    def test_rejects_a_bad_batch_and_writes_nothing(
        self, blocks, size_gb, target, message
    ):
        table = BlockTable(self.SERVERS)
        table.append_blocks([("b1", [0, 1])], 0.25, 3)
        before = table_state(table)
        with pytest.raises(ValueError, match=message):
            table.append_blocks(blocks, size_gb, target)
        assert table_state(table) == before

"""Tests for the stock and history placement policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import TenantPlacementStats
from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode
from repro.storage.placement_policies import (
    HistoryPlacementPolicy,
    StockPlacementPolicy,
)
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def build_datanodes(
    num_tenants: int = 9, servers_per_tenant: int = 3, racks: int = 4
) -> tuple[dict[str, DataNode], list[PrimaryTenant]]:
    tenants = []
    datanodes: dict[str, DataNode] = {}
    server_index = 0
    for i in range(num_tenants):
        tenant = PrimaryTenant(
            tenant_id=f"t{i}",
            environment=f"env-{i}",
            machine_function="mf",
            trace=UtilizationTrace(
                np.full(60, 0.1 + 0.08 * (i % 9)), UtilizationPattern.CONSTANT
            ),
            pattern=UtilizationPattern.CONSTANT,
        )
        for j in range(servers_per_tenant):
            server = Server(
                server_id=f"srv-{server_index}",
                tenant_id=tenant.tenant_id,
                rack=f"rack-{server_index % racks}",
                harvestable_disk_gb=8.0,
            )
            tenant.servers.append(server)
            datanodes[server.server_id] = DataNode(server=server, tenant=tenant)
            server_index += 1
        tenants.append(tenant)
    return datanodes, tenants


def placement_stats(tenants: list[PrimaryTenant]) -> list[TenantPlacementStats]:
    return [
        TenantPlacementStats(
            tenant_id=t.tenant_id,
            environment=t.environment,
            reimage_rate=0.05 * (1 + int(t.tenant_id[1:])),
            peak_utilization=t.peak_utilization(),
            available_space_gb=t.harvestable_disk_gb,
            server_ids=[s.server_id for s in t.servers],
            racks_by_server={s.server_id: s.rack for s in t.servers},
        )
        for t in tenants
    ]


class TestStockPolicy:
    def test_places_requested_replicas_on_distinct_servers(self):
        datanodes, tenants = build_datanodes()
        policy = StockPlacementPolicy(RandomSource(1))
        creator = tenants[0].servers[0].server_id
        chosen = policy.choose_servers(3, creator, datanodes)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3
        assert chosen[0] == creator

    def test_second_replica_prefers_creator_rack(self):
        datanodes, tenants = build_datanodes()
        policy = StockPlacementPolicy(RandomSource(2))
        creator = tenants[0].servers[0].server_id
        creator_rack = datanodes[creator].server.rack
        same_rack_exists = any(
            dn.server.rack == creator_rack and dn.server_id != creator
            for dn in datanodes.values()
        )
        if not same_rack_exists:
            pytest.skip("layout has no second server in the creator's rack")
        counts = 0
        trials = 30
        for _ in range(trials):
            chosen = policy.choose_servers(3, creator, datanodes)
            if datanodes[chosen[1]].server.rack == creator_rack:
                counts += 1
        assert counts > trials * 0.8

    def test_third_replica_prefers_remote_rack(self):
        datanodes, tenants = build_datanodes()
        policy = StockPlacementPolicy(RandomSource(3))
        creator = tenants[0].servers[0].server_id
        chosen = policy.choose_servers(3, creator, datanodes)
        racks = [datanodes[s].server.rack for s in chosen]
        assert len(set(racks)) >= 2

    def test_excluded_servers_skipped(self):
        datanodes, tenants = build_datanodes()
        policy = StockPlacementPolicy(RandomSource(4))
        excluded = list(datanodes)[:13]
        chosen = policy.choose_servers(3, None, datanodes, exclude=excluded)
        assert not set(chosen) & set(excluded)

    def test_no_candidates_returns_empty(self):
        datanodes, _ = build_datanodes(num_tenants=1, servers_per_tenant=1)
        policy = StockPlacementPolicy(RandomSource(5))
        chosen = policy.choose_servers(
            3, None, datanodes, exclude=list(datanodes)
        )
        assert chosen == []

    def test_replication_validated(self):
        datanodes, _ = build_datanodes()
        with pytest.raises(ValueError):
            StockPlacementPolicy().choose_servers(0, None, datanodes)


class TestHistoryPolicy:
    def test_requires_clustering_before_placement(self):
        datanodes, _ = build_datanodes()
        policy = HistoryPlacementPolicy(rng=RandomSource(1))
        with pytest.raises(RuntimeError):
            policy.choose_servers(3, None)

    def test_places_three_replicas_in_distinct_environments(self):
        datanodes, tenants = build_datanodes()
        policy = HistoryPlacementPolicy(rng=RandomSource(1))
        policy.update_clustering(placement_stats(tenants))
        chosen = policy.choose_servers(3, None)
        assert len(chosen) == 3
        environments = {datanodes[s].tenant.environment for s in chosen}
        assert len(environments) == 3

    def test_busy_exclusions_respected(self):
        datanodes, tenants = build_datanodes()
        policy = HistoryPlacementPolicy(rng=RandomSource(1))
        policy.update_clustering(placement_stats(tenants))
        excluded = [s.server_id for s in tenants[0].servers]
        for _ in range(10):
            chosen = policy.choose_servers(3, None, exclude=excluded)
            assert not set(chosen) & set(excluded)

    def test_grid_accessible_after_update(self):
        _, tenants = build_datanodes()
        policy = HistoryPlacementPolicy(rng=RandomSource(1))
        assert policy.grid is None
        policy.update_clustering(placement_stats(tenants))
        assert policy.grid is not None
        assert policy.grid.rows == 3

    def test_reclustering_preserves_space_accounting(self):
        datanodes, tenants = build_datanodes()
        policy = HistoryPlacementPolicy(rng=RandomSource(1))
        stats = placement_stats(tenants)
        policy.update_clustering(stats)
        chosen = policy.choose_servers(3, None)
        assert chosen
        used_before = {
            t.tenant_id: policy._placer.space_used_gb(t.tenant_id) for t in tenants
        }
        policy.update_clustering(stats)
        used_after = {
            t.tenant_id: policy._placer.space_used_gb(t.tenant_id) for t in tenants
        }
        assert used_before == used_after

    def test_release_space_after_loss(self):
        datanodes, tenants = build_datanodes()
        policy = HistoryPlacementPolicy(rng=RandomSource(1))
        policy.update_clustering(placement_stats(tenants))
        chosen = policy.choose_servers(3, None)
        tenant_id = datanodes[chosen[0]].tenant_id
        before = policy._placer.space_used_gb(tenant_id)
        policy.release_space(tenant_id, 0.25)
        assert policy._placer.space_used_gb(tenant_id) == pytest.approx(
            max(0.0, before - 0.25)
        )

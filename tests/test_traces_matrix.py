"""Tests for the vectorized trace matrix and the NameNode batch access path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode
from repro.storage.namenode import AccessResult, NameNode
from repro.storage.placement_policies import StockPlacementPolicy
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.matrix import TraceMatrix
from repro.traces.utilization import (
    SAMPLE_INTERVAL_SECONDS,
    UtilizationPattern,
    UtilizationTrace,
)


def make_tenant(
    tenant_id: str,
    values,
    num_servers: int = 2,
    traced: bool = True,
) -> PrimaryTenant:
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(
            np.asarray(values, dtype=float), UtilizationPattern.CONSTANT
        )
        if traced
        else None,
        pattern=UtilizationPattern.CONSTANT,
    )
    for index in range(num_servers):
        tenant.servers.append(
            Server(
                server_id=f"{tenant_id}-s{index}",
                tenant_id=tenant_id,
                rack=f"rack-{index}",
                harvestable_disk_gb=64.0,
            )
        )
    return tenant


def busy_servers(
    matrix: TraceMatrix,
    tenants: list[PrimaryTenant],
    time_seconds: float,
    threshold: float,
) -> list[str]:
    """Ids of servers whose tenant is above ``threshold`` at ``time``."""
    busy = matrix.busy_mask(time_seconds, threshold)
    return [
        server.server_id
        for tenant in tenants
        for server in tenant.servers
        if busy[matrix.row_of_server(server.server_id)]
    ]


def busy_fraction(matrix: TraceMatrix, times, threshold: float) -> np.ndarray:
    """Fraction of tenants busy at each of ``times`` (one value per time)."""
    rows = np.arange(matrix.num_tenants)[:, None]
    times = np.asarray(times, dtype=float)[None, :]
    return (matrix.utilization(rows, times) > threshold).mean(axis=0)


def mean_utilization(matrix: TraceMatrix, weights=None) -> float:
    """(Optionally weighted) mean utilization across tenants and time."""
    per_tenant = np.array(
        [matrix.row(row).mean() for row in range(matrix.num_tenants)]
    )
    if weights is None:
        return float(per_tenant.mean())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != per_tenant.shape:
        raise ValueError("weights must have one entry per tenant")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return float((per_tenant * weights).sum() / total)


@pytest.fixture
def tenants() -> list[PrimaryTenant]:
    return [
        make_tenant("a", [0.1, 0.9, 0.5, 0.3]),
        make_tenant("b", [0.8, 0.2]),  # shorter trace: wraps on its own length
        make_tenant("c", [0.0], traced=False),
    ]


class TestConstruction:
    def test_shape_and_lookup(self, tenants):
        matrix = TraceMatrix(tenants)
        assert matrix.num_tenants == 3
        assert matrix.num_samples == 4  # padded to the longest trace
        assert matrix.tenant_ids == ["a", "b", "c"]
        assert matrix.row_of_tenant("b") == 1
        assert matrix.row_of_server("a-s1") == 0
        assert matrix.has_tenant("c") and not matrix.has_tenant("zz")

    def test_empty_and_duplicate_rejected(self, tenants):
        with pytest.raises(ValueError):
            TraceMatrix([])
        with pytest.raises(ValueError):
            TraceMatrix([tenants[0], tenants[0]])

    def test_negative_time_rejected(self, tenants):
        with pytest.raises(ValueError):
            TraceMatrix(tenants).utilization_at(-1.0)


class TestSharedStorage:
    """A matrix can be the one copy of its traces; its array is read-only."""

    def test_matrix_values_are_read_only(self, tenants):
        matrix = TraceMatrix(tenants)
        with pytest.raises(ValueError, match="read-only"):
            matrix.values[0, 0] = 0.5
        restored = TraceMatrix.from_arrays(matrix.to_arrays())
        with pytest.raises(ValueError, match="read-only"):
            restored.values[0, 0] = 0.5

    def test_row_is_the_unpadded_read_only_view(self, tenants):
        matrix = TraceMatrix(tenants)
        row = matrix.row(1)
        assert row.tolist() == [0.8, 0.2]
        assert np.shares_memory(row, matrix.values)
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.5

    def test_a_plain_matrix_copies_its_traces(self, tenants):
        matrix = TraceMatrix(tenants)
        assert not np.shares_memory(tenants[0].trace.values, matrix.values)
        tenants[0].trace.values[0] = 0.7  # the caller's trace stays its own
        assert matrix.values[0, 0] == 0.1

    def test_take_over_turns_traces_into_row_views(self, tenants):
        before = [t.trace.values.copy() for t in tenants if t.trace is not None]
        matrix = TraceMatrix.take_over(tenants)
        after = [t.trace.values for t in tenants if t.trace is not None]
        for old, new in zip(before, after):
            assert new.tolist() == old.tolist()
            assert np.shares_memory(new, matrix.values)
        assert tenants[2].trace is None
        assert matrix.values.tolist() == TraceMatrix(tenants).values.tolist()
        with pytest.raises(ValueError, match="read-only"):
            tenants[0].trace.values[0] = 0.5

    def test_adopt_accepts_a_read_only_row_view(self, tenants):
        matrix = TraceMatrix(tenants)
        trace = UtilizationTrace.adopt(matrix.row(0), UtilizationPattern.CONSTANT)
        assert np.shares_memory(trace.values, matrix.values)
        assert trace.mean() == pytest.approx(0.45)
        with pytest.raises(ValueError, match="read-only"):
            trace.values[0] = 0.5

    def test_transform_writes_each_traced_row(self, tenants):
        def halve(values, out):
            np.multiply(values, 0.5, out=out)

        matrix = TraceMatrix(tenants, transform=halve)
        assert matrix.values.tolist() == [
            [0.05, 0.45, 0.25, 0.15],
            [0.4, 0.1, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]


class TestQueries:
    def test_sample_of_uses_the_matrix_interval(self, tenants):
        matrix = TraceMatrix(tenants, sample_interval_seconds=60.0)
        assert [matrix.sample_of(t) for t in (0.0, 59.9, 60.0, 500.0)] == [0, 0, 1, 8]
        # Before any row's wrap: tenant b (2 samples) reads index 8 % 2.
        assert matrix.sample_index(500.0).tolist() == [0, 0, 0]
        with pytest.raises(ValueError):
            matrix.sample_of(-1.0)

    def test_matches_scalar_path_including_wraparound(self, tenants):
        matrix = TraceMatrix(tenants)
        times = [0.0, 119.0, 120.0, 500.0, 7 * SAMPLE_INTERVAL_SECONDS + 3.0]
        for t in times:
            column = matrix.utilization_at(t)
            for row, tenant in enumerate(tenants):
                expected = tenant.trace.value_at(t) if tenant.trace is not None else 0.0
                assert column[row] == pytest.approx(expected)

    def test_paired_utilization_broadcasts(self, tenants):
        matrix = TraceMatrix(tenants)
        rows = np.array([[0, 1], [1, 0]])
        times = np.array([[0.0], [3 * SAMPLE_INTERVAL_SECONDS]])
        out = matrix.utilization(rows, times)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(0.1)  # tenant a at t=0
        assert out[0, 1] == pytest.approx(0.8)  # tenant b at t=0
        # tenant b wraps at its own length (2 samples): index 3 % 2 == 1.
        assert out[1, 0] == pytest.approx(0.2)
        assert out[1, 1] == pytest.approx(0.3)

    def test_busy_mask_and_servers(self, tenants):
        matrix = TraceMatrix(tenants)
        mask = matrix.busy_mask(SAMPLE_INTERVAL_SECONDS, threshold=0.5)
        # At sample 1: a=0.9 (busy), b=0.2, c has no trace (never busy).
        assert list(mask) == [True, False, False]
        assert set(busy_servers(matrix, tenants, SAMPLE_INTERVAL_SECONDS, 0.5)) == {
            "a-s0",
            "a-s1",
        }

    def test_busy_fraction(self, tenants):
        matrix = TraceMatrix(tenants)
        fractions = busy_fraction(
            matrix, np.array([0.0, SAMPLE_INTERVAL_SECONDS]), threshold=0.5
        )
        assert fractions[0] == pytest.approx(1 / 3)  # only b (0.8) at t=0
        assert fractions[1] == pytest.approx(1 / 3)  # only a (0.9) at sample 1

    def test_mean_utilization_weights_validated(self, tenants):
        matrix = TraceMatrix(tenants)
        assert 0.0 <= mean_utilization(matrix) <= 1.0
        with pytest.raises(ValueError):
            mean_utilization(matrix, weights=[1.0])
        with pytest.raises(ValueError):
            mean_utilization(matrix, weights=[0.0, 0.0, 0.0])


class TestNameNodeBatchAccess:
    def build_namenode(self, utilizations: dict[str, float]) -> NameNode:
        tenants = [
            make_tenant(tid, [util] * 4, num_servers=3)
            for tid, util in utilizations.items()
        ]
        datanodes = [
            DataNode(server=s, tenant=t, primary_aware=True)
            for t in tenants
            for s in t.servers
        ]
        return NameNode(
            datanodes,
            StockPlacementPolicy(rng=RandomSource(1)),
            primary_aware=True,
            rng=RandomSource(2),
        )

    def test_batch_matches_scalar_access(self):
        namenode = self.build_namenode(
            {"idle": 0.1, "busy": 0.95, "medium": 0.4, "other": 0.2}
        )
        block_ids = [b for b in namenode.create_blocks(0.0, [None] * 20) if b]
        assert block_ids

        rng = RandomSource(7)
        sampled = [rng.choice(block_ids) for _ in range(200)]
        times = np.array([rng.uniform(0.0, 4 * 120.0) for _ in range(200)])

        scalar = [namenode.access_block(b, t) for b, t in zip(sampled, times)]
        codes = namenode.check_accesses(sampled, times)
        batch = [NameNode.ACCESS_CODES[c] for c in codes]
        assert batch == scalar

    def test_lost_blocks_reported(self):
        namenode = self.build_namenode({"idle": 0.1, "other": 0.2})
        (block_id,) = namenode.create_blocks(0.0, [None])
        table = namenode.block_table
        for server in table.healthy_servers_of(table.row_of(block_id)).tolist():
            namenode.handle_reimage(table.server_ids[server], 1.0)
        codes = namenode.check_accesses([block_id, block_id], [2.0, 3.0])
        assert [NameNode.ACCESS_CODES[c] for c in codes] == [
            AccessResult.LOST,
            AccessResult.LOST,
        ]

    def test_unknown_block_raises(self):
        namenode = self.build_namenode({"idle": 0.1})
        with pytest.raises(KeyError):
            namenode.check_accesses(["missing"], [0.0])

    def test_length_mismatch_rejected(self):
        namenode = self.build_namenode({"idle": 0.1})
        with pytest.raises(ValueError):
            namenode.check_accesses(["x"], [0.0, 1.0])

    def test_empty_batch(self):
        namenode = self.build_namenode({"idle": 0.1})
        assert len(namenode.check_accesses([], [])) == 0

"""Integration tests for every figure scenario and the microbenchmarks.

These run each registered figure scenario end to end through
:func:`repro.api.run` with very small workloads; the shape assertions
proper live in the benchmark suite, which runs at BENCH scale.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.experiments.microbench import run_microbenchmarks
from repro.harness.builders import build_testbed_tenants
from repro.harness.config import TINY_SCALE, ExperimentScale
from repro.simulation.random import RandomSource
from repro.traces.scaling import ScalingMethod


def run_tiny(scenario: str, seed: int = 3, **overrides):
    """A registered scenario's payload at tiny scale."""
    return api.run(scenario, overrides={"scale": "tiny", **overrides}, seed=seed).payload


class TestScaleValidation:
    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            ExperimentScale(num_servers=0)
        with pytest.raises(ValueError):
            ExperimentScale(experiment_hours=0.0)
        with pytest.raises(ValueError):
            ExperimentScale(num_blocks=0)
        with pytest.raises(ValueError):
            ExperimentScale(repetitions=0)


class TestTestbedBuild:
    def test_testbed_uses_every_server(self):
        tenants = build_testbed_tenants(TINY_SCALE, RandomSource(1))
        assert sum(t.num_servers for t in tenants) == TINY_SCALE.num_servers
        assert all(t.trace is not None for t in tenants)

    def test_testbed_mix_has_multiple_patterns(self):
        tenants = build_testbed_tenants(TINY_SCALE, RandomSource(1))
        patterns = {t.pattern for t in tenants}
        assert len(patterns) >= 2


class TestSchedulingTestbed:
    def test_runs_and_produces_all_variants(self):
        result = run_tiny("fig10-11-scheduling-testbed")
        assert set(result.variants) == {"YARN-Stock", "YARN-PT", "YARN-H"}
        assert result.no_harvesting_p99_ms > 0
        for variant in result.variants.values():
            assert variant.average_p99_ms > 0
            assert variant.jobs_completed >= 0
            assert variant.average_cpu_utilization >= 0


class TestStorageTestbed:
    def test_runs_and_counts_accesses(self):
        result = run_tiny("fig12-storage-testbed")
        assert set(result.variants) == {"HDFS-Stock", "HDFS-PT", "HDFS-H"}
        for variant in result.variants.values():
            assert variant.served_accesses + variant.failed_accesses > 0
            assert variant.blocks_created > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_tiny("fig12-storage-testbed", accesses_per_minute=0)
        with pytest.raises(ValueError):
            run_tiny("fig12-storage-testbed", utilization_target=1.5)


class TestSchedulingSweep:
    def test_single_point_sweep(self):
        sweep = run_tiny(
            "fig13-dc9-sweep",
            utilization_levels=(0.3,),
            scalings=(ScalingMethod.LINEAR,),
            max_tenants=8,
            servers_per_tenant_limit=2,
        )
        assert len(sweep.points) == 1
        point = sweep.points[0]
        assert point.yarn_pt_seconds > 0
        assert point.yarn_h_seconds > 0
        assert 0.0 <= point.improvement <= 1.0
        assert sweep.average_improvement() == pytest.approx(point.improvement)

    def test_unknown_datacenter_rejected(self):
        with pytest.raises(ValueError):
            run_tiny("fig13-dc9-sweep", datacenter="DC-99")


class TestDurability:
    def test_runs_for_both_replication_levels(self):
        result = run_tiny(
            "fig15-durability", max_tenants=12, servers_per_tenant_limit=2
        )
        for replication in (3, 4):
            stock = result.result("HDFS-Stock", replication)
            history = result.result("HDFS-H", replication)
            assert stock.blocks_created == history.blocks_created > 0
            assert stock.blocks_lost >= 0
            assert history.blocks_lost >= 0
        assert result.loss_reduction_factor(3) >= 1.0 or result.result(
            "HDFS-Stock", 3
        ).blocks_lost == 0

    def test_unknown_datacenter_rejected(self):
        with pytest.raises(ValueError):
            run_tiny("fig15-durability", datacenter="DC-99")


class TestAvailability:
    def test_runs_and_reports_fractions(self):
        result = run_tiny(
            "fig16-availability",
            utilization_levels=(0.4, 0.7),
            replication_levels=(3,),
            accesses_per_point=200,
            max_tenants=12,
            servers_per_tenant_limit=2,
        )
        assert len(result.points) == 2 * 2  # 2 utilizations x 2 variants
        for point in result.points:
            assert 0.0 <= point.failed_fraction <= 1.0
        series = result.series("HDFS-H", 3)
        assert [p.target_utilization for p in series] == [0.4, 0.7]

    def test_invalid_accesses_rejected(self):
        with pytest.raises(ValueError):
            run_tiny("fig16-availability", accesses_per_point=0)


class TestMicrobench:
    def test_reports_positive_latencies(self):
        result = run_microbenchmarks(
            scale=TINY_SCALE, seed=3, selection_iterations=10, placement_iterations=10
        )
        assert result.clustering_seconds > 0
        assert result.num_classes > 0
        assert result.class_selection_ms > 0
        assert result.placement_ms > 0
        assert result.stock_placement_ms > 0

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_microbenchmarks(scale=TINY_SCALE, selection_iterations=0)

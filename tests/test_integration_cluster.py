"""Integration tests for the end-to-end harvesting cluster."""

from __future__ import annotations

import pytest

from repro.cluster.resource_manager import SchedulerMode
from repro.jobs.scheduler_variants import ClusterConfig, HarvestingCluster
from repro.jobs.dag import JobDag, Vertex
from repro.jobs.tpcds import TpcdsWorkloadFactory
from repro.jobs.workload import WorkloadGenerator
from repro.simulation.random import RandomSource


def build_cluster(small_tenants, mode: SchedulerMode, **config_kwargs):
    return HarvestingCluster(
        small_tenants,
        config=ClusterConfig(mode=mode, **config_kwargs),
        rng=RandomSource(5),
    )


def quick_workload(rng_seed: int = 7):
    factory = TpcdsWorkloadFactory(
        RandomSource(rng_seed), duration_scale=0.3, width_scale=0.05
    )
    return WorkloadGenerator(factory, 120.0, RandomSource(rng_seed))


class TestHistoryCluster:
    def test_clustering_labels_every_server(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        for server_id in cluster.servers:
            record_label = cluster.resource_manager._record(server_id).label
            assert record_label is not None
        assert cluster.clustering.num_classes >= 3

    def test_class_capacities_cover_all_classes_with_servers(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        capacities = cluster.class_capacities(0.0)
        assert capacities
        for capacity in capacities:
            assert capacity.total_capacity > 0

    def test_jobs_complete_and_are_typed(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        generator = quick_workload()
        cluster.submit_arrivals(generator.arrivals(1200.0))
        cluster.run(3600.0)
        assert cluster.completed_job_count() > 0
        assert cluster.average_job_execution_seconds() > 0.0
        for result in cluster.results:
            assert result.job_type in {t for t in result.job_type.__class__}

    def test_recurring_jobs_get_history_based_types(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        dag = JobDag("recurring", [Vertex("v", 2, 30.0)])
        cluster.submit_job(dag)
        cluster.run(300.0)
        assert cluster.history.last_duration("recurring") is not None
        second = cluster.submit_job(dag)
        assert second.job_type is cluster.history.categorize("recurring")


class TestVariantComparison:
    @pytest.mark.parametrize(
        "mode",
        [SchedulerMode.STOCK, SchedulerMode.PRIMARY_AWARE, SchedulerMode.HISTORY],
    )
    def test_all_variants_run(self, small_tenants, mode):
        cluster = build_cluster(small_tenants, mode)
        generator = quick_workload()
        cluster.submit_arrivals(generator.arrivals(600.0))
        cluster.run(1800.0)
        assert cluster.completed_job_count() > 0
        assert cluster.metrics.time_series("total_utilization").count > 0

    def test_stock_mode_has_no_labels(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.STOCK)
        for server_id in cluster.servers:
            assert cluster.resource_manager._record(server_id).label is None

    def test_total_utilization_at_least_primary(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        generator = quick_workload()
        cluster.submit_arrivals(generator.arrivals(600.0))
        cluster.run(1800.0)
        primary = cluster.metrics.time_series("primary_utilization").mean()
        total = cluster.metrics.time_series("total_utilization").mean()
        assert total >= primary - 1e-9

    def test_run_duration_validated(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        with pytest.raises(ValueError):
            cluster.run(0.0)

    def test_server_series_recorded_when_enabled(self, small_tenants):
        from test_streaming import RetainAllRecorder

        cluster = build_cluster(small_tenants, SchedulerMode.PRIMARY_AWARE)
        recorder = RetainAllRecorder()
        cluster.set_series_recorder(recorder)
        cluster.run(60.0)
        times, secondary, primary = recorder.series()
        assert len(times) > 0
        assert secondary.shape == (len(times), len(cluster.servers))
        assert primary.shape == secondary.shape
        assert cluster.fleet.server_ids == list(cluster.servers)

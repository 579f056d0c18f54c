"""Integration tests for the end-to-end harvesting cluster."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.api as api
from repro.cluster.resource_manager import SchedulerMode
from repro.harness.runners import _scheduler_counters
from repro.jobs.scheduler_variants import ClusterConfig, HarvestingCluster
from repro.jobs.dag import JobDag, Vertex
from repro.jobs.tpcds import TpcdsWorkloadFactory
from repro.jobs.workload import WorkloadGenerator
from repro.simulation.random import RandomSource
from repro.traces.utilization import SAMPLE_INTERVAL_SECONDS


def build_cluster(small_tenants, mode: SchedulerMode, **config_kwargs):
    return HarvestingCluster(
        small_tenants,
        config=ClusterConfig(mode=mode, **config_kwargs),
        rng=RandomSource(5),
    )


def quick_workload(
    rng_seed: int = 7, width_scale: float = 0.05, interarrival: float = 120.0
):
    factory = TpcdsWorkloadFactory(
        RandomSource(rng_seed), duration_scale=0.3, width_scale=width_scale
    )
    return WorkloadGenerator(factory, interarrival, RandomSource(rng_seed))


#: Horizon of :func:`busy_cluster_run`.
BUSY_SECONDS = 1800.0


def busy_cluster_run(small_tenants, mode: SchedulerMode, seed: int, recorder=None):
    """A cluster after a run whose load makes the reserve kill.

    Wide jobs arriving every 30 s keep the harvested capacity busy, so
    primary bursts reach running containers.
    """
    cluster = HarvestingCluster(
        small_tenants, config=ClusterConfig(mode=mode), rng=RandomSource(seed)
    )
    if recorder is not None:
        cluster.set_series_recorder(recorder)
    generator = quick_workload(seed, width_scale=0.3, interarrival=30.0)
    cluster.submit_arrivals(generator.arrivals(BUSY_SECONDS))
    cluster.run(BUSY_SECONDS)
    return cluster


class TestHistoryCluster:
    def test_clustering_labels_every_server(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        fleet = cluster.fleet
        for index in range(len(fleet)):
            assert fleet.label_of(index) is not None
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
        assert len(cluster.heartbeat_utilization) > 0

    def test_stock_mode_has_no_labels(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.STOCK)
        fleet = cluster.fleet
        assert [fleet.label_of(i) for i in range(len(fleet))] == [None] * len(fleet)

    def test_total_utilization_at_least_primary(self, small_tenants):
        from test_streaming import RetainAllRecorder

        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        recorder = RetainAllRecorder()
        cluster.set_series_recorder(recorder)
        generator = quick_workload()
        cluster.submit_arrivals(generator.arrivals(600.0))
        cluster.run(1800.0)
        values = cluster.heartbeat_utilization
        assert len(values) > 0
        assert len(values) == len(recorder.times)
        # Primary utilization is a pure function of time (the traces), so
        # the per-heartbeat primary means can be recomputed after the run.
        fleet = cluster.fleet
        primary = sum(
            fleet.primary_utilization(time).mean() for time in recorder.times
        ) / len(values)
        assert cluster.average_utilization() >= primary - 1e-9

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize(
        "mode",
        [SchedulerMode.PRIMARY_AWARE, SchedulerMode.HISTORY],
        ids=["pt", "history"],
    )
    def test_kill_counts_are_conserved(self, small_tenants, mode, seed):
        from test_streaming import RetainAllRecorder

        recorder = RetainAllRecorder()
        cluster = busy_cluster_run(small_tenants, mode, seed, recorder)
        killed = cluster.total_tasks_killed()
        assert killed > 0
        assert killed == cluster.app_master.tasks_killed
        # Every kill is charged to exactly one job, finished or still live.
        finished = sum(result.tasks_killed for result in cluster.results)
        live = sum(e.tasks_killed for e in cluster._executions if not e.finished)
        assert killed == finished + live
        # One utilization value per heartbeat.
        heartbeats = int(BUSY_SECONDS // cluster.config.heartbeat_seconds)
        assert len(cluster.heartbeat_utilization) == heartbeats
        assert len(recorder.times) == heartbeats

    def test_stock_mode_never_kills(self, small_tenants):
        # Stock YARN keeps no reserve, so even the busy workload that makes
        # the primary-aware variants kill leaves every task alone.
        cluster = busy_cluster_run(small_tenants, SchedulerMode.STOCK, 7)
        assert cluster.completed_job_count() > 0
        assert cluster.total_tasks_killed() == 0
        assert all(result.tasks_killed == 0 for result in cluster.results)
        assert all(e.tasks_killed == 0 for e in cluster._executions)

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
        assert secondary.shape == (len(times), len(cluster.fleet))
        assert primary.shape == secondary.shape
        assert cluster.fleet.server_ids == [
            s.server_id for t in small_tenants for s in t.servers
        ]


class TestRunLifetime:
    def test_finished_cluster_is_freed_by_reference_counting(self, small_tenants):
        """Neither the periodic loops nor the finish events of tasks still
        running at the horizon hold a finished cluster in a cycle."""
        cluster = busy_cluster_run(small_tenants, SchedulerMode.PRIMARY_AWARE, seed=3)
        assert cluster.fleet.running_containers.sum() > 0
        probes = [
            weakref.ref(part)
            for part in (cluster, cluster.engine, cluster.app_master, cluster.fleet)
        ]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del cluster
            assert [probe() for probe in probes] == [None] * len(probes)
        finally:
            if enabled:
                gc.enable()


class TestPlainCounts:
    """The run counts live as plain fields on the RM, the AM and the cluster."""

    def test_fresh_cluster_counts_are_zero(self, small_tenants):
        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        assert cluster.total_tasks_killed() == 0
        assert cluster.resource_manager.waves_coalesced == 0
        assert cluster.heartbeat_utilization == []
        assert cluster.average_utilization() == 0.0

    def test_average_utilization_is_the_heartbeat_mean(self, small_tenants):
        cluster = busy_cluster_run(small_tenants, SchedulerMode.HISTORY, 7)
        values = cluster.heartbeat_utilization
        assert all(type(value) is float for value in values)
        assert all(0.0 <= value <= 1.0 for value in values)
        # Bit-identical to the mean the results have always reported.
        assert cluster.average_utilization() == float(np.mean(values))

    def test_scheduler_counters_read_the_fields(self, small_tenants):
        cluster = busy_cluster_run(small_tenants, SchedulerMode.HISTORY, 7)
        counters = _scheduler_counters(cluster)
        assert counters == {
            "waves_coalesced": cluster.resource_manager.waves_coalesced,
        }
        # The busy workload pumps several waves of one shape per batch.
        assert counters["waves_coalesced"] > 0


class TestHeartbeatCaches:
    def test_recorded_rows_are_read_only(self, small_tenants):
        from test_streaming import RetainAllRecorder

        cluster = build_cluster(small_tenants, SchedulerMode.HISTORY)
        recorder = RetainAllRecorder()
        cluster.set_series_recorder(recorder)
        cluster.submit_arrivals(quick_workload().arrivals(600.0))
        cluster.run(600.0)
        rows = recorder.secondary + recorder.primary
        assert len(rows) == 2 * len(cluster.heartbeat_utilization)
        for row in (recorder.secondary[-1], recorder.primary[-1]):
            with pytest.raises(ValueError):
                row[0] = 0.5
        # Rows in one trace sample share its primary array.
        samples = {time // SAMPLE_INTERVAL_SECONDS for time in recorder.times}
        assert len({id(row) for row in recorder.primary}) == len(samples) < len(rows)

    def test_heartbeat_utilization_equals_a_full_recompute(self, monkeypatch):
        expected = []
        step = HarvestingCluster._heartbeat_step

        def recomputing_step(cluster, engine):
            step(cluster, engine)
            fleet = cluster.fleet
            primary = fleet._traces.utilization_at(engine.now)[fleet._trace_rows]
            values = np.minimum(
                1.0, primary + fleet.allocated_cores / fleet.capacity_cores
            )
            expected.append(sum(values.tolist()) / len(fleet))
            assert cluster.heartbeat_utilization[-1] == expected[-1]

        overrides = {"scale": "tiny"}
        plain = api.run("fig10-11-scheduling-testbed", overrides=overrides, seed=0)
        monkeypatch.setattr(HarvestingCluster, "_heartbeat_step", recomputing_step)
        checked = api.run("fig10-11-scheduling-testbed", overrides=overrides, seed=0)
        assert len(expected) > 100
        assert checked.fingerprint() == plain.fingerprint()

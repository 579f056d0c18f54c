"""Ablation: the size of the primary-tenant resource reserve.

The paper reserves a third of each server's cores for primary bursts and
notes that finer-grained isolation would allow smaller reserves.  This
ablation runs the same harvesting workload with a small, the paper's, and a
large reserve, showing the tradeoff: a tiny reserve harvests more but kills
more tasks and intrudes on the primary more often; a huge reserve is safe but
leaves cycles unharvested.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.resource_manager import SchedulerMode
from repro.jobs.scheduler_variants import ClusterConfig, HarvestingCluster
from repro.jobs.tpcds import TpcdsWorkloadFactory
from repro.jobs.workload import WorkloadGenerator
from repro.harness.builders import build_testbed_tenants
from repro.harness.config import ExperimentScale
from repro.harness.report import format_table
from repro.simulation.random import RandomSource

from conftest import run_once

SCALE = ExperimentScale(
    num_servers=18,
    num_tenants=21,
    experiment_hours=1.0,
    mean_interarrival_seconds=90.0,
)

RESERVES = {"small (8%)": 1.0 / 12.0, "paper (33%)": 1.0 / 3.0, "large (50%)": 0.5}


def run_one(reserve_fraction: float) -> Dict[str, float]:
    rng = RandomSource(9)
    tenants = build_testbed_tenants(SCALE, rng)
    cluster = HarvestingCluster(
        tenants,
        config=ClusterConfig(
            mode=SchedulerMode.HISTORY, reserve_cpu_fraction=reserve_fraction
        ),
        rng=rng.fork(f"cluster-{reserve_fraction}"),
    )
    factory = TpcdsWorkloadFactory(
        rng.fork("tpcds"), duration_scale=1.0, width_scale=0.3
    )
    generator = WorkloadGenerator(
        factory, SCALE.mean_interarrival_seconds, rng.fork("wl")
    )
    duration = SCALE.experiment_hours * 3600.0
    cluster.submit_arrivals(generator.arrivals(duration * 0.8))
    cluster.run(duration)
    return {
        "utilization": cluster.metrics.time_series("total_utilization").mean(),
        "kills": float(cluster.total_tasks_killed()),
        "jobs": float(cluster.completed_job_count()),
        "job_seconds": cluster.average_job_execution_seconds(),
    }


def run_ablation() -> Dict[str, Dict[str, float]]:
    return {name: run_one(fraction) for name, fraction in RESERVES.items()}


def test_ablation_reserve(benchmark):
    results = run_once(benchmark, run_ablation)

    print()
    print(format_table(
        ["reserve", "cluster util", "tasks killed", "jobs done", "avg job (s)"],
        [
            [name, f"{100 * r['utilization']:.0f}%", int(r["kills"]),
             int(r["jobs"]), f"{r['job_seconds']:.0f}"]
            for name, r in results.items()
        ],
        title="Ablation: primary-tenant reserve size",
    ))

    small = results["small (8%)"]
    paper = results["paper (33%)"]
    large = results["large (50%)"]
    # A larger reserve harvests fewer cycles.
    assert large["utilization"] <= small["utilization"] + 0.02
    # The paper's reserve sits between the two extremes in harvested cycles.
    assert large["utilization"] <= paper["utilization"] + 0.02
    # Every configuration still completes work.
    assert min(r["jobs"] for r in results.values()) > 0

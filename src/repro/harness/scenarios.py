"""The built-in scenarios: one registered spec per evaluation figure.

Each carries its figure's default parameters at QUICK scale, so
``repro run-scenario fig15-durability`` (or
``repro.api.run("fig15-durability")``) regenerates the shape of Figure 15
in seconds; ``overrides=`` / the CLI flags change scale and parameters per
run.  User code can register additional scenarios with
:func:`repro.harness.register_scenario`.
"""

from __future__ import annotations

from repro.harness.config import QUICK_SCALE
from repro.harness.spec import ScenarioSpec, register_scenario, scenario_names
from repro.traces.scaling import ScalingMethod

_DEFAULT_SCENARIOS = (
    ScenarioSpec(
        name="fig15-durability",
        kind="durability",
        description="One-year block-loss comparison, HDFS-Stock vs HDFS-H",
        figure="15",
        variants=("HDFS-Stock", "HDFS-H"),
        replication_levels=(3, 4),
        max_tenants=40,
        servers_per_tenant_limit=4,
        scale=QUICK_SCALE,
    ),
    ScenarioSpec(
        name="fig16-availability",
        kind="availability",
        description="Failed accesses across the utilization spectrum",
        figure="16",
        variants=("HDFS-Stock", "HDFS-H"),
        replication_levels=(3, 4),
        utilization_levels=(0.3, 0.4, 0.5, 0.66, 0.75),
        scalings=(ScalingMethod.LINEAR,),
        max_tenants=40,
        servers_per_tenant_limit=4,
        scale=QUICK_SCALE,
        params={"accesses_per_point": 2000},
    ),
    ScenarioSpec(
        name="fig13-dc9-sweep",
        kind="scheduling_sweep",
        description="YARN-PT vs YARN-H job runtimes across DC-9 utilizations",
        figure="13",
        utilization_levels=(0.2, 0.35, 0.5, 0.65),
        scalings=(ScalingMethod.LINEAR, ScalingMethod.ROOT),
        max_tenants=24,
        servers_per_tenant_limit=4,
        scale=QUICK_SCALE,
    ),
    ScenarioSpec(
        name="fig14-fleet-improvements",
        kind="fleet_improvement",
        description="Per-datacenter min/avg/max scheduling improvement",
        figure="14",
        utilization_levels=(0.25, 0.45),
        scalings=(ScalingMethod.LINEAR,),
        max_tenants=16,
        servers_per_tenant_limit=3,
        scale=QUICK_SCALE,
    ),
    ScenarioSpec(
        name="fig10-11-scheduling-testbed",
        kind="scheduling_testbed",
        description="Testbed tail latency and job runtimes for the YARN variants",
        figure="10-11",
        variants=("YARN-Stock", "YARN-PT", "YARN-H"),
        scale=QUICK_SCALE,
    ),
    ScenarioSpec(
        name="fig12-storage-testbed",
        kind="storage_testbed",
        description="Testbed tail latency and failed accesses for the HDFS variants",
        figure="12",
        variants=("HDFS-Stock", "HDFS-PT", "HDFS-H"),
        scale=QUICK_SCALE,
        params={"accesses_per_minute": 60, "utilization_target": 0.5},
    ),
    ScenarioSpec(
        name="continuous-open",
        kind="continuous",
        description="Live open-loop traffic (diurnal rate), windowed epoch metrics",
        variants=("YARN-PT", "YARN-H"),
        scale=QUICK_SCALE,
        params={
            "traffic": "open:rate=0.005,profile=diurnal,period=7200,amplitude=0.5",
            "epochs": 8,
            "epoch_seconds": 900.0,
        },
    ),
    ScenarioSpec(
        name="failure-storm",
        kind="failure_storm",
        description="Correlated reimage storms vs block durability, recordable",
        variants=("HDFS-Stock", "HDFS-H"),
        replication_levels=(3,),
        max_tenants=40,
        servers_per_tenant_limit=4,
        scale=QUICK_SCALE,
        params={"storm_rates_per_day": (0.5, 2.0), "storm_fraction": 0.15},
    ),
    ScenarioSpec(
        name="heterogeneous-fleet",
        kind="heterogeneous_fleet",
        description="Mixed server-capacity classes plus elastic tenant arrivals",
        variants=("YARN-PT", "YARN-H"),
        scale=QUICK_SCALE,
        params={"workload": "tenant_arrivals_per_hour=0.5"},
    ),
    ScenarioSpec(
        name="antagonist",
        kind="antagonist",
        description="Adversarial primary-utilization spikes vs the harvest SLOs",
        variants=("YARN-PT", "YARN-H"),
        scale=QUICK_SCALE,
        params={"spike_rates_per_hour": (2.0, 6.0)},
    ),
    ScenarioSpec(
        name="predictor-ablation",
        kind="predictor_ablation",
        description="History-based harvest predictor vs online feedback reserve",
        variants=("YARN-H", "YARN-FB"),
        scale=QUICK_SCALE,
    ),
    ScenarioSpec(
        name="continuous-closed",
        kind="continuous",
        description="Live closed-loop traffic (4 users, think time), windowed epoch metrics",
        variants=("YARN-PT", "YARN-H"),
        scale=QUICK_SCALE,
        params={
            "traffic": "closed:users=4,think=300",
            "epochs": 8,
            "epoch_seconds": 900.0,
        },
    ),
)


def register_default_scenarios() -> None:
    """Register the built-in figure scenarios (idempotent)."""
    existing = set(scenario_names())
    for spec in _DEFAULT_SCENARIOS:
        if spec.name not in existing:
            register_scenario(spec)

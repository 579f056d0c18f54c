"""Experiment scales.

The paper's experiments run for five hours on 102 servers (testbed) or for a
month to a year on thousands of servers (simulation).  Reproducing every
figure at full scale in a unit-test run would take too long, so each driver
accepts an :class:`ExperimentScale` that shrinks the cluster, the workload,
and the duration while preserving the comparisons the figures make.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how large an experiment run is.

    Attributes:
        num_servers: testbed server count (the paper uses 102).
        num_tenants: how many DC-9 primary tenants the testbed reproduces.
        experiment_hours: length of a testbed experiment (the paper uses 5).
        mean_interarrival_seconds: mean job inter-arrival time.
        simulation_days: length of the scheduling/availability simulations
            (the paper simulates a month).
        durability_days: length of the durability simulation (a year in the
            paper).
        num_blocks: blocks created for the durability/availability studies
            (4 million in the paper).
        datacenter_scale: multiplier on the synthetic fleet's tenant counts.
        repetitions: how many seeds each configuration is run with (the paper
            reports five-run ranges).
    """

    num_servers: int = 102
    num_tenants: int = 21
    experiment_hours: float = 5.0
    mean_interarrival_seconds: float = 300.0
    simulation_days: float = 30.0
    durability_days: float = 365.0
    num_blocks: int = 4_000_000
    datacenter_scale: float = 1.0
    repetitions: int = 5

    def __post_init__(self) -> None:
        if self.num_servers <= 0 or self.num_tenants <= 0:
            raise ValueError("server and tenant counts must be positive")
        if self.experiment_hours <= 0 or self.simulation_days <= 0:
            raise ValueError("durations must be positive")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")


#: The paper's configuration (hours of wall-clock to run in full).
TESTBED_SCALE = ExperimentScale()

#: A scaled-down configuration that regenerates every figure's shape quickly.
QUICK_SCALE = ExperimentScale(
    num_servers=30,
    num_tenants=21,
    experiment_hours=3.0,
    mean_interarrival_seconds=120.0,
    simulation_days=2.0,
    durability_days=60.0,
    num_blocks=3_000,
    datacenter_scale=0.15,
    repetitions=2,
)

#: The scale the figure-regeneration benchmark suite and the bench-scale
#: fingerprints (``benchmarks/emit_bench.py``) run at: large enough that the
#: hot paths dominate, small enough that the whole suite stays in CI budget.
BENCH_SCALE = ExperimentScale(
    num_servers=30,
    num_tenants=21,
    experiment_hours=3.0,
    mean_interarrival_seconds=120.0,
    simulation_days=1.0,
    durability_days=60.0,
    num_blocks=4_000,
    datacenter_scale=0.15,
    repetitions=1,
)

#: An even smaller configuration used by unit tests.
TINY_SCALE = ExperimentScale(
    num_servers=12,
    num_tenants=8,
    experiment_hours=0.15,
    mean_interarrival_seconds=60.0,
    simulation_days=0.5,
    durability_days=20.0,
    num_blocks=400,
    datacenter_scale=0.05,
    repetitions=1,
)

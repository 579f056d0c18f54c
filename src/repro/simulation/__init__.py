"""Discrete-event simulation substrate shared by all simulators.

The paper evaluates its policies with a datacenter-scale simulator that
replays primary-tenant utilization and reimaging behaviour (Section 6.1).
This package provides the deterministic event engine and the seeded random
source that the YARN-like, Tez-like and HDFS-like simulators are built on.
"""

from repro.simulation.engine import Event, SimulationEngine, Process
from repro.simulation.random import RandomSource

__all__ = [
    "Event",
    "SimulationEngine",
    "Process",
    "RandomSource",
]

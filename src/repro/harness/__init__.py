"""Shared scenario harness for the paper's evaluation experiments.

Every figure in the evaluation is one simulator instantiated under a
different scenario.  This package factors the pipeline every driver used to
hand-roll — fleet build, trace scaling, grid clustering, variant loop,
metric collection — into three pieces:

* :class:`~repro.harness.spec.ScenarioSpec` — a declarative description of a
  scenario (datacenter, scale, tenant trimming, utilization levels, policy
  variants), plus a registry so scenarios can be listed and run by name
  (``repro.api.run("fig15-durability")`` or
  ``repro run-scenario fig15-durability``);
* :class:`~repro.harness.harness.ExperimentHarness` — builds the datacenter
  once per scenario, forks seeded random streams per variant, drives all
  time-stepped logic through :class:`repro.simulation.engine.SimulationEngine`,
  and emits headline numbers through a
  :class:`repro.simulation.metrics.MetricRegistry`;
* the per-kind runners in :mod:`repro.harness.runners`, which share the
  fleet/scaling/NameNode builders in :mod:`repro.harness.builders` and the
  vectorized :class:`repro.traces.matrix.TraceMatrix` substrate.

The one entry point on top of it is :func:`repro.api.run`, which the CLI's
``run-scenario``, the benchmarks and the examples all call.
"""

from repro.harness.cells import Cell, CellTiming
from repro.harness.spec import (
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.harness.harness import ExperimentHarness, cells_from_spec
from repro.harness.snapshot import (
    CheckpointPause,
    ContextSnapshot,
    RunCheckpoint,
    SnapshotError,
    deserialize_snapshot,
    restore_runner,
    serialize_snapshot,
    snapshot_digest,
    snapshot_runner,
)
from repro.harness import continuous as _continuous  # registers the kind
from repro.harness import scenarios as _scenarios  # registers the defaults

del _continuous  # imported for its @_register side effect only

_scenarios.register_default_scenarios()

__all__ = [
    "Cell",
    "CellTiming",
    "CheckpointPause",
    "ContextSnapshot",
    "RunCheckpoint",
    "ScenarioSpec",
    "SnapshotError",
    "ExperimentHarness",
    "cells_from_spec",
    "deserialize_snapshot",
    "restore_runner",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "serialize_snapshot",
    "snapshot_digest",
    "snapshot_runner",
]

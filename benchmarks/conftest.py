"""Shared fixtures for the figure-regeneration benchmark suite.

Each benchmark regenerates one table or figure from the paper's evaluation
and asserts its qualitative shape (who wins, by roughly what factor, where
the crossover falls).  Figure simulations run their registered scenario
through :func:`repro.api.run` at BENCH scale (:func:`run_figure`).  The
heavyweight ones (the testbed comparison
and the datacenter-scale sweeps) run once per session in fixtures and are
shared by the benchmarks that read different aspects of the same experiment,
exactly as one experiment in the paper feeds several figures.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` runs the datacenter sweeps at their full breadth
  (all ten datacenters, more utilization levels).  The default keeps the
  whole suite to roughly ten minutes.
"""

from __future__ import annotations

import os

import pytest

import repro.api as api
from repro.harness.config import BENCH_SCALE
from repro.traces.scaling import ScalingMethod

FULL_RUN = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def run_figure(scenario: str, **overrides):
    """A registered figure scenario's payload at BENCH scale, seed 1."""
    return api.run(
        scenario, overrides={"scale": BENCH_SCALE, **overrides}, seed=1
    ).payload


@pytest.fixture(scope="session")
def scheduling_testbed():
    """Figures 10 and 11: the 3-variant scheduling testbed, run once."""
    return run_figure("fig10-11-scheduling-testbed")


@pytest.fixture(scope="session")
def storage_testbed():
    """Figure 12: the 3-variant storage testbed, run once."""
    return run_figure("fig12-storage-testbed")


@pytest.fixture(scope="session")
def dc9_sweep():
    """Figure 13: the DC-9 utilization sweep under both scalings."""
    levels = (0.25, 0.45, 0.6) if FULL_RUN else (0.25, 0.45)
    return run_figure(
        "fig13-dc9-sweep",
        utilization_levels=levels,
        scalings=(ScalingMethod.LINEAR, ScalingMethod.ROOT),
    )


@pytest.fixture(scope="session")
def fleet_improvements():
    """Figure 14: per-datacenter improvements (subset unless REPRO_BENCH_FULL)."""
    names = None if FULL_RUN else ["DC-0", "DC-1", "DC-4", "DC-9"]
    return run_figure(
        "fig14-fleet-improvements",
        datacenters=names,
        utilization_levels=(0.45,),
        scalings=(ScalingMethod.LINEAR,),
        max_tenants=12,
        servers_per_tenant_limit=3,
    )

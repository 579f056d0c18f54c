"""History-based harvesting of spare cycles and storage — reproduction library.

This package reproduces the systems of "History-Based Harvesting of Spare
Cycles and Storage in Large-Scale Datacenters" (OSDI 2016):

* :mod:`repro.traces` — synthetic primary-tenant utilization traces, reimage
  event streams, and the ten-datacenter fleet model;
* :mod:`repro.analysis` — the FFT-based pattern classification and the
  Section 3 characterization;
* :mod:`repro.core` — the paper's contribution: the clustering service,
  Algorithm 1 (class selection for task scheduling), and Algorithm 2
  (diversity-maximizing replica placement);
* :mod:`repro.cluster`, :mod:`repro.jobs` — the YARN/Tez-like compute
  harvesting simulator with Stock / PT / History variants;
* :mod:`repro.storage` — the HDFS-like storage harvesting simulator with
  Stock / PT / History variants;
* :mod:`repro.services` — the primary-tenant latency model for the testbed;
* :mod:`repro.harness` — the scenario harness every evaluation figure runs
  on, one registered scenario per figure;
* :mod:`repro.api` — the one entry point: ``repro.api.run(<scenario>,
  overrides=..., seed=...)`` (the ``repro run-scenario`` CLI wraps it);
* :mod:`repro.experiments` — the Section 6.2 policy-operation
  microbenchmarks.

Quickstart::

    from repro.traces import build_fleet
    from repro.core import ClusteringService

    fleet = build_fleet(scale=0.1)
    service = ClusteringService()
    classes = service.update(fleet["DC-9"].tenants.values())
"""

from repro.core import (
    ClassSelection,
    ClassSelector,
    ClusteringService,
    JobType,
    ReplicaPlacer,
    UtilizationClass,
    build_grid,
)
from repro.traces import (
    Datacenter,
    PrimaryTenant,
    Server,
    UtilizationPattern,
    build_datacenter,
    build_fleet,
    fleet_specs,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ClassSelection",
    "ClassSelector",
    "ClusteringService",
    "JobType",
    "ReplicaPlacer",
    "UtilizationClass",
    "build_grid",
    "Datacenter",
    "PrimaryTenant",
    "Server",
    "UtilizationPattern",
    "build_datacenter",
    "build_fleet",
    "fleet_specs",
]

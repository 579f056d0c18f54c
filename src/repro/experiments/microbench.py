"""Performance microbenchmarks (Section 6.2).

The paper reports the cost of the most expensive operations: clustering the
primary tenants of DC-9 (about two minutes single-threaded, once per day, off
the critical path), class selection (under a millisecond per job), and
clustering plus class selection for data placement (2.55 ms per new block
versus 0.81 ms for stock placement).  This driver measures the corresponding
operations in the reproduction so the benchmark suite can report them side by
side with the paper's numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.class_selection import ClassCapacity, ClassSelector
from repro.core.clustering import ClusteringService
from repro.core.grid import TenantPlacementStats, build_grid
from repro.core.job_types import JobType
from repro.core.placement import ReplicaPlacer
from repro.harness.config import ExperimentScale, QUICK_SCALE
from repro.simulation.random import RandomSource
from repro.storage.placement_policies import StockPlacementPolicy
from repro.storage.datanode import DataNode
from repro.traces.fleet import build_datacenter, fleet_specs


@dataclass
class MicrobenchResult:
    """Measured latencies of the policy operations.

    Attributes:
        clustering_seconds: one run of the clustering service over the
            datacenter's tenants.
        num_classes: utilization classes the clustering produced.
        class_selection_ms: mean latency of one Algorithm 1 selection.
        placement_ms: mean latency of one Algorithm 2 block placement.
        stock_placement_ms: mean latency of one stock block placement.
    """

    clustering_seconds: float
    num_classes: int
    class_selection_ms: float
    placement_ms: float
    stock_placement_ms: float


def run_microbenchmarks(
    datacenter_name: str = "DC-9",
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    selection_iterations: int = 200,
    placement_iterations: int = 200,
) -> MicrobenchResult:
    """Measure the clustering, selection, and placement latencies."""
    if selection_iterations <= 0 or placement_iterations <= 0:
        raise ValueError("iteration counts must be positive")
    rng = RandomSource(seed)
    spec = [s for s in fleet_specs() if s.name == datacenter_name]
    if not spec:
        raise ValueError(f"unknown datacenter {datacenter_name}")
    datacenter = build_datacenter(
        spec[0], rng.fork("fleet"), scale=scale.datacenter_scale
    )
    tenants = list(datacenter.tenants.values())

    # Clustering service (runs once per day in production).
    service = ClusteringService(rng=rng.fork("clustering"))
    start = time.perf_counter()
    classes = service.update(tenants)
    clustering_seconds = time.perf_counter() - start

    # Algorithm 1 class selection.
    selector = ClassSelector(rng=rng.fork("selector"), reserve_fraction=1.0 / 3.0)
    capacities = [
        ClassCapacity(
            utilization_class=cls,
            total_capacity=float(sum(
                datacenter.tenants[tid].num_servers * 12
                for tid in cls.tenant_ids
            )),
            current_utilization=cls.average_utilization,
        )
        for cls in classes
    ]
    start = time.perf_counter()
    for index in range(selection_iterations):
        job_type = (JobType.SHORT, JobType.MEDIUM, JobType.LONG)[index % 3]
        selector.select(job_type, 100.0, capacities)
    class_selection_ms = (time.perf_counter() - start) * 1000.0 / selection_iterations

    # Algorithm 2 replica placement.
    stats = [
        TenantPlacementStats(
            tenant_id=t.tenant_id,
            environment=t.environment,
            reimage_rate=t.reimage_profile.rate_per_server_month,
            peak_utilization=t.peak_utilization(),
            available_space_gb=t.harvestable_disk_gb,
            server_ids=[s.server_id for s in t.servers],
            racks_by_server={s.server_id: s.rack for s in t.servers},
        )
        for t in tenants
    ]
    grid = build_grid(stats)
    placer = ReplicaPlacer(grid, rng=rng.fork("placer"))
    servers = [s.server_id for t in tenants for s in t.servers]
    start = time.perf_counter()
    for index in range(placement_iterations):
        placer.place_block(3, creating_server_id=servers[index % len(servers)])
    placement_ms = (time.perf_counter() - start) * 1000.0 / placement_iterations

    # Stock placement baseline.
    stock_policy = StockPlacementPolicy(rng=rng.fork("stock"))
    datanodes = {
        s.server_id: DataNode(server=s, tenant=t, primary_aware=False)
        for t in tenants
        for s in t.servers
    }
    start = time.perf_counter()
    for index in range(placement_iterations):
        stock_policy.choose_servers(
            3, servers[index % len(servers)], datanodes, 0.25
        )
    stock_placement_ms = (time.perf_counter() - start) * 1000.0 / placement_iterations

    return MicrobenchResult(
        clustering_seconds=clustering_seconds,
        num_classes=len(classes),
        class_selection_ms=class_selection_ms,
        placement_ms=placement_ms,
        stock_placement_ms=stock_placement_ms,
    )

#!/usr/bin/env python3
"""Quickstart: cluster a datacenter's tenants and place a few blocks.

This walks through the library's two core policies on a small synthetic
datacenter:

1. build a synthetic DC-9, classify its primary tenants with the FFT-based
   clustering service, and print the utilization classes (Section 4.1);
2. run Algorithm 1 to pick the class for a short, a medium, and a long job;
3. build the 3x3 reimage x peak-utilization grid and run Algorithm 2 to
   place a few blocks, printing the diversity of each placement.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    ClassSelector,
    ClusteringService,
    JobType,
    ReplicaPlacer,
    build_grid,
)
from repro.core.class_selection import ClassCapacity
from repro.core.grid import TenantPlacementStats
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_datacenter, fleet_specs


def main() -> None:
    rng = RandomSource(42)

    # 1. Build a small synthetic DC-9 and cluster its primary tenants.
    dc9_spec = [spec for spec in fleet_specs() if spec.name == "DC-9"][0]
    datacenter = build_datacenter(dc9_spec, rng, scale=0.1)
    print(
        f"Built {datacenter.name}: {datacenter.num_tenants} primary tenants, "
        f"{datacenter.num_servers} servers"
    )

    service = ClusteringService(rng=rng.fork("clustering"))
    classes = service.update(datacenter.tenants.values())
    print(format_table(
        ["class", "pattern", "avg util", "peak util", "tenants"],
        [
            [c.class_id, c.pattern.value, f"{c.average_utilization:.2f}",
             f"{c.peak_utilization:.2f}", c.num_tenants]
            for c in classes
        ],
        title=f"\nUtilization classes ({len(classes)} total)",
    ))

    # 2. Algorithm 1: pick a class for jobs of each length type.
    capacities = [
        ClassCapacity(
            utilization_class=cls,
            total_capacity=float(
                sum(datacenter.tenants[t].num_servers * 12 for t in cls.tenant_ids)
            ),
            current_utilization=cls.average_utilization,
        )
        for cls in classes
    ]
    selector = ClassSelector(rng=rng.fork("selector"), reserve_fraction=1.0 / 3.0)
    rows = []
    for job_type in (JobType.SHORT, JobType.MEDIUM, JobType.LONG):
        selection = selector.select(
            job_type, required_capacity=64.0, capacities=capacities
        )
        chosen = ", ".join(selection.class_ids) if selection.scheduled else "(none)"
        rows.append([job_type.value, chosen])
    print(format_table(["job type", "selected class(es)"], rows,
                       title="\nAlgorithm 1: class selection for a 64-core job"))

    # 3. Algorithm 2: place blocks on the 3x3 grid.
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
        for t in datacenter.tenants.values()
    ]
    grid = build_grid(stats)
    print(f"\nGrid clustering: space balance {grid.space_balance():.2f} "
          f"(1.0 = perfectly even cells)")

    placer = ReplicaPlacer(grid, rng=rng.fork("placer"))
    rows = []
    for block_index in range(5):
        decision = placer.place_block(3)
        rows.append([
            f"block-{block_index}",
            ", ".join(f"({r},{c})" for r, c in decision.cells),
            len(set(decision.tenant_ids)),
        ])
    print(format_table(
        ["block", "grid cells (row, column)", "distinct tenants"],
        rows,
        title="\nAlgorithm 2: replica placement (3 replicas per block)",
    ))


if __name__ == "__main__":
    main()

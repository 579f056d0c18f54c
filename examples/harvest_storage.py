#!/usr/bin/env python3
"""Storage harvesting demo: durability and availability of HDFS-H vs stock.

Runs two small simulations on the synthetic DC-9:

* a durability study replaying months of per-server reimages and
  environment-wide reimage bursts, counting lost blocks under three- and
  four-way replication for HDFS-Stock and HDFS-H (Figure 15);
* an availability study scaling the primary tenants' utilization and
  measuring the fraction of block accesses that fail because every replica
  sits on a busy server (Figure 16).

Run with::

    python examples/harvest_storage.py [--blocks 2000] [--days 45]
"""

from __future__ import annotations

import argparse

import repro.api as api
from repro.harness.config import ExperimentScale
from repro.harness.report import format_float, format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=2000,
                        help="number of blocks to simulate (default 2000)")
    parser.add_argument("--days", type=float, default=45.0,
                        help="durability horizon in days (default 45)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scale = ExperimentScale(
        num_servers=30,
        durability_days=args.days,
        simulation_days=2.0,
        num_blocks=args.blocks,
        datacenter_scale=0.15,
    )

    print(f"Durability: {args.blocks} blocks, {args.days:.0f} days of reimages ...")
    durability = api.run(
        "fig15-durability", overrides={"scale": scale}, seed=args.seed
    ).payload
    rows = []
    for replication in (3, 4):
        for variant in ("HDFS-Stock", "HDFS-H"):
            r = durability.result(variant, replication)
            rows.append([variant, replication, r.blocks_created, r.blocks_lost,
                         f"{100 * r.lost_fraction:.4f}%"])
    print(format_table(
        ["system", "replication", "blocks", "lost", "lost fraction"],
        rows,
        title="\nDurability (Figure 15 shape)",
    ))
    print(f"Loss reduction factor of HDFS-H at R=3: "
          f"{format_float(durability.loss_reduction_factor(3))}")

    print("\nAvailability: sweeping utilization levels ...")
    availability = api.run(
        "fig16-availability",
        overrides={
            "scale": scale,
            "utilization_levels": (0.3, 0.5, 0.66, 0.75),
            "accesses_per_point": 1000,
        },
        seed=args.seed,
    ).payload
    rows = []
    for util in (0.3, 0.5, 0.66, 0.75):
        rows.append([
            f"{util:.2f}",
            f"{100 * availability.failed_fraction('HDFS-Stock', 3, util):.2f}%",
            f"{100 * availability.failed_fraction('HDFS-H', 3, util):.2f}%",
            f"{100 * availability.failed_fraction('HDFS-Stock', 4, util):.2f}%",
            f"{100 * availability.failed_fraction('HDFS-H', 4, util):.2f}%",
        ])
    print(format_table(
        ["avg util", "Stock R3", "HDFS-H R3", "Stock R4", "HDFS-H R4"],
        rows,
        title="\nFailed accesses (Figure 16 shape)",
    ))
    print(
        "\nShape checks: HDFS-H should lose orders of magnitude fewer blocks at "
        "R=3 and none at R=4, and should show no failed accesses until much "
        "higher utilization than HDFS-Stock."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compute harvesting demo: compare YARN-Stock, YARN-PT, and YARN-H/Tez-H.

Builds a scaled-down version of the paper's 102-server testbed (servers
replaying DC-9 primary-tenant utilization, TPC-DS-like batch jobs arriving as
a Poisson stream), runs it under the three scheduler variants, and prints:

* the primary tenant's p99 tail latency per variant (Figure 10's comparison);
* the batch jobs' average execution time per variant (Figure 11);
* the number of task kills and the achieved cluster utilization.

Run with::

    python examples/harvest_compute.py [--hours 1.0] [--servers 24]
"""

from __future__ import annotations

import argparse

import repro.api as api
from repro.harness.config import ExperimentScale
from repro.harness.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=1.0,
                        help="experiment length in simulated hours (default 1.0)")
    parser.add_argument("--servers", type=int, default=24,
                        help="number of testbed servers (default 24)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scale = ExperimentScale(
        num_servers=args.servers,
        num_tenants=21,
        experiment_hours=args.hours,
        mean_interarrival_seconds=120.0,
    )
    print(
        f"Running the scheduling testbed: {args.servers} servers, "
        f"{args.hours:.1f} simulated hours per variant ..."
    )
    result = api.run(
        "fig10-11-scheduling-testbed", overrides={"scale": scale}, seed=args.seed
    ).payload

    rows = [["No-Harvesting", f"{result.no_harvesting_p99_ms:.0f}", "-", "-", "-", "-"]]
    for name in ("YARN-Stock", "YARN-PT", "YARN-H"):
        variant = result.variant(name)
        rows.append([
            name,
            f"{variant.average_p99_ms:.0f}",
            f"{variant.max_p99_ms:.0f}",
            f"{variant.average_job_seconds:.0f}",
            variant.tasks_killed,
            f"{100 * variant.average_cpu_utilization:.0f}%",
        ])
    print(format_table(
        ["variant", "avg p99 (ms)", "max p99 (ms)", "avg job (s)", "kills", "cpu util"],
        rows,
        title="\nScheduling testbed (Figures 10 and 11 shapes)",
    ))

    stock = result.variant("YARN-Stock")
    pt = result.variant("YARN-PT")
    h = result.variant("YARN-H")
    print("\nShape checks:")
    print(f"  - YARN-Stock degrades primary p99 "
          f"({stock.average_p99_ms:.0f} ms vs {result.no_harvesting_p99_ms:.0f} ms baseline)")
    print(f"  - YARN-PT and YARN-H protect the primary "
          f"({pt.average_p99_ms:.0f} / {h.average_p99_ms:.0f} ms)")
    if pt.average_job_seconds > 0:
        gain = 100 * (1 - h.average_job_seconds / pt.average_job_seconds)
        print(f"  - YARN-H improves average job time over YARN-PT by {gain:.0f}%")


if __name__ == "__main__":
    main()

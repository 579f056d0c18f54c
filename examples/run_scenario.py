#!/usr/bin/env python3
"""Define, register, and run a custom scenario on the experiment harness.

The built-in figures are registered `ScenarioSpec`s (see
``repro run-scenario --list``).  This example shows the same machinery from
user code:

1. derive a faster variant of the Figure 16 availability scenario (fewer
   tenants, fewer sampled accesses, a custom utilization sweep);
2. register it, so it is runnable by name like any built-in figure;
3. run it through ``repro.api.run`` serially and on a 2-worker process pool
   and check the ``RunResult`` fingerprints agree — the parallel executor is
   bit-identical to the serial run by construction;
4. build a small cross-product family with ``api.sweep`` and run it.

Run with::

    python examples/run_scenario.py
"""

from __future__ import annotations

import repro.api as api
from repro.harness import get_scenario, register_scenario
from repro.harness.config import QUICK_SCALE
from repro.harness.report import format_table


def main() -> None:
    # 1. Derive a custom scenario from a registered one.
    custom = get_scenario("fig16-availability").with_overrides(
        name="availability-fast",
        description="Figure 16 at reduced fidelity (demo)",
        utilization_levels=(0.35, 0.55, 0.7),
        replication_levels=(3,),
        max_tenants=20,
        servers_per_tenant_limit=3,
        scale=QUICK_SCALE,
        params={"accesses_per_point": 500},
    )
    register_scenario(custom)
    print(f"Registered scenario {custom.name!r} (kind={custom.kind})")

    # 2. Run it by name, exactly as `repro run-scenario availability-fast`.
    # The RunResult envelope carries the figure's payload.
    serial = api.run("availability-fast", seed=1)
    result = serial.payload
    rows = [
        [
            f"{level:.2f}",
            f"{100 * result.failed_fraction('HDFS-Stock', 3, level):.2f}%",
            f"{100 * result.failed_fraction('HDFS-H', 3, level):.2f}%",
        ]
        for level in custom.utilization_levels
    ]
    print(format_table(
        ["avg util", "HDFS-Stock R3 failed", "HDFS-H R3 failed"],
        rows,
        title="\nCustom availability sweep",
    ))

    # 3. The same run on a 2-worker process pool.  The cell grid makes the
    # parallel run bit-identical, so the fingerprints must agree.
    parallel = api.run("availability-fast", seed=1, workers=2)
    identical = serial.fingerprint() == parallel.fingerprint()
    print(f"\nExecutor equivalence (serial vs workers=2): "
          f"{'identical' if identical else 'MISMATCH'}")
    print(f"cells: {serial.cell_seconds()}")

    # 4. A derived cross-product family: no registration, no new code.
    family = api.sweep(
        "availability-fast",
        {"seed": [1, 2]},
        overrides={"utilization_levels": (0.55,), "accesses_per_point": 200},
    )
    for run_result in api.run_sweep(family):
        failed = {
            p.variant: p.failed_accesses for p in run_result.payload.points
        }
        print(f"{run_result.scenario}: failed accesses {failed}")


if __name__ == "__main__":
    main()

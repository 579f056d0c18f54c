"""Emit the headline fingerprints of the compute and storage scenario sets.

Runs one compute-side and one storage-side scenario set with a fixed seed and
writes ``BENCH_compute.json`` / ``BENCH_storage.json`` holding each
scenario's headline numbers.  Because the seed is fixed, the headlines are a
regression fingerprint: ``diff_bench.py`` compares them against the
checked-in references (``benchmarks/tiny`` at tiny scale, ``benchmarks`` at
bench scale), and a change that should not move results must reproduce them
exactly.  Timing lives in ``benchmarks/perf/``, not here.

Every scenario runs through :func:`repro.api.run`; the headline is the
:class:`~repro.api.RunResult`'s own ``headline()``, so a new scenario is one
entry in :data:`SCENARIO_SETS`.  ``--workers N`` executes each scenario's
cell grid on a process pool; the headlines are bit-identical to the serial
run (CI diffs a ``--workers 2`` emission against the serial reference).

Usage::

    python benchmarks/emit_bench.py --scale tiny --output-dir /tmp/bench
    python benchmarks/emit_bench.py --output-dir /tmp/bench --workers 2
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import repro.api as api

#: Fixed seed for every emitted scenario; the numbers are fingerprints.
DEFAULT_SEED = 1

#: Named scales the emitter can run at; "tiny" is the CI smoke setting.
SCALE_NAMES = ("bench", "tiny")

#: The emitted scenario sets: payload name -> ordered (key, scenario name,
#: override) rows.  Overrides reproduce the exact grids the legacy driver
#: calls emitted, on top of the registered figure scenarios.
SCENARIO_SETS = {
    "compute": (
        (
            "fig13_dc9_sweep",
            "fig13-dc9-sweep",
            {"utilization_levels": (0.25, 0.45)},
        ),
        ("fig10_11_scheduling_testbed", "fig10-11-scheduling-testbed", {}),
        (
            "heterogeneous_fleet",
            "heterogeneous-fleet",
            {"params": {"workload": "tenant_arrivals_per_hour=2"}},
        ),
        ("antagonist", "antagonist", {}),
        ("predictor_ablation", "predictor-ablation", {}),
    ),
    "storage": (
        ("fig15_durability", "fig15-durability", {}),
        (
            "fig16_availability",
            "fig16-availability",
            {"utilization_levels": (0.3, 0.5, 0.66)},
        ),
        ("fig12_storage_testbed", "fig12-storage-testbed", {}),
        ("failure_storm", "failure-storm", {}),
    ),
}


def emit_payload(side: str, scale_name: str, workers: int) -> dict:
    """The ``compute`` or ``storage`` payload: one headline per scenario."""
    payload = {
        "schema": 1,
        "scale": scale_name.upper(),
        "seed": DEFAULT_SEED,
        "scenarios": {},
    }
    if workers > 1:
        payload["workers"] = workers
    for key, scenario, overrides in SCENARIO_SETS[side]:
        result = api.run(
            scenario,
            overrides={"scale": scale_name, **overrides},
            workers=workers,
            seed=DEFAULT_SEED,
        )
        payload["scenarios"][key] = {"headline": result.headline()}
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output-dir",
        type=Path,
        required=True,
        help="where to write BENCH_compute.json / BENCH_storage.json",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_NAMES),
        default="bench",
        help="experiment scale; 'tiny' is the CI smoke setting",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "execute each scenario's cell grid on N worker processes; "
            "headline fingerprints are bit-identical to --workers 1"
        ),
    )
    args = parser.parse_args()
    args.output_dir.mkdir(parents=True, exist_ok=True)
    for side in SCENARIO_SETS:
        payload = emit_payload(side, args.scale, args.workers)
        path = args.output_dir / f"BENCH_{side}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

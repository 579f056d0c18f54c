"""Diff two BENCH payload directories on their headline fingerprints.

The bit-exactness merge gate: ``emit_bench.py`` writes fixed-seed headline
numbers, which are regression fingerprints (a change that should not move
results must reproduce them exactly).  This tool compares every scenario's
``headline`` (plus the schema, seed and scale that produced it) between a
freshly emitted directory and the checked-in reference, ignoring any other
field, such as the ``workers`` count a parallel emission records; any
numeric drift is a failure.  Because the worker count is excluded, diffing
an ``emit_bench.py --workers N`` emission against the serial reference
doubles as the parallel-executor equivalence gate.

Usage::

    python benchmarks/emit_bench.py --scale tiny --output-dir /tmp/bench
    python benchmarks/diff_bench.py /tmp/bench benchmarks/tiny
    python benchmarks/emit_bench.py --output-dir /tmp/bench-bench
    python benchmarks/diff_bench.py /tmp/bench-bench benchmarks
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: The payload files a BENCH directory holds.
PAYLOADS = ("BENCH_compute.json", "BENCH_storage.json")


def fingerprint(payload: dict) -> dict:
    """The drift-relevant subset of a BENCH payload."""
    return {
        "schema": payload.get("schema"),
        "scale": payload.get("scale"),
        "seed": payload.get("seed"),
        "scenarios": {
            name: entry.get("headline")
            for name, entry in payload.get("scenarios", {}).items()
        },
    }


def diff_payloads(fresh: dict, reference: dict, name: str) -> list[str]:
    """Human-readable drift descriptions (empty when fingerprints match)."""
    problems: list[str] = []
    got, want = fingerprint(fresh), fingerprint(reference)
    for key in ("schema", "scale", "seed"):
        if got[key] != want[key]:
            problems.append(f"{name}: {key} differs ({got[key]!r} != {want[key]!r})")
    scenarios = set(got["scenarios"]) | set(want["scenarios"])
    for scenario in sorted(scenarios):
        fresh_headline = got["scenarios"].get(scenario)
        reference_headline = want["scenarios"].get(scenario)
        if fresh_headline is None or reference_headline is None:
            problems.append(f"{name}: scenario {scenario} missing on one side")
        elif fresh_headline != reference_headline:
            problems.append(
                f"{name}: headline drift in {scenario}\n"
                f"  fresh:     {json.dumps(fresh_headline, sort_keys=True)}\n"
                f"  reference: {json.dumps(reference_headline, sort_keys=True)}"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "fresh", type=Path, help="directory with freshly emitted payloads"
    )
    parser.add_argument(
        "reference", type=Path, help="directory with checked-in payloads"
    )
    args = parser.parse_args()

    problems: list[str] = []
    for name in PAYLOADS:
        fresh_path = args.fresh / name
        reference_path = args.reference / name
        if not fresh_path.exists() or not reference_path.exists():
            problems.append(f"{name}: missing ({fresh_path} or {reference_path})")
            continue
        problems.extend(
            diff_payloads(
                json.loads(fresh_path.read_text()),
                json.loads(reference_path.read_text()),
                name,
            )
        )
    if problems:
        print("BENCH fingerprint drift detected:")
        for problem in problems:
            print(f"- {problem}")
        return 1
    print(f"fingerprints identical across {', '.join(PAYLOADS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

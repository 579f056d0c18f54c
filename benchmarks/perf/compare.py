"""Compare two benchmark outputs: ``python benchmarks/perf/compare.py A.json B.json``.

``A`` is the parent (baseline) and ``B`` the change, each written by
``run.py --out``.  For every end-to-end metric of every workload both ran,
it prints each side's median and quartiles, the share of interleaved pairs
(round ``i`` of ``A`` against round ``i`` of ``B``, the same input when the
seeds match) that ``B`` wins, and a verdict:

* ``improved``   -- ``B`` wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than ``A``'s interquartile range;
* ``regressed``  -- ``B``'s median is worse than ``A``'s by more than the
  metric's bound in ``BENCHMARK.json``, and either both spreads (IQR over
  median) are within the bound or every run of ``B`` reads worse than every
  run of ``A``;
* ``unresolved`` -- a spread is wider than the bound and not every run of
  ``B`` reads better than every run of ``A``;
* ``no-worse``   -- everything else.

Exits 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from run import ROOT, quartiles


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> Dict[str, Any]:
    """Judge ``b`` (change) against ``a`` (parent) for one metric."""
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    # Flip "higher is better" metrics so that lower is better below.
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * x for x in a]
    cost_b = [sign * y for y in b]
    wins = sum(1 for x, y in zip(cost_a, cost_b) if y < x)
    win_frac = wins / min(len(a), len(b))
    worse = sign * (med_b - med_a) / med_a
    spread = max((q3a - q1a) / med_a, (q3b - q1b) / med_b)
    all_better = max(cost_b) < min(cost_a)
    all_worse = min(cost_b) > max(cost_a)
    if win_frac >= 0.9 and worse < 0 and abs(med_b - med_a) > q3a - q1a:
        outcome = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        outcome = "regressed"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "no-worse"
    return {
        "a": {"median": med_a, "q1": q1a, "q3": q3a, "n": len(a)},
        "b": {"median": med_b, "q1": q1b, "q3": q3b, "n": len(b)},
        "win_frac": win_frac,
        "change": worse,
        "verdict": outcome,
    }


def compare(a: Dict[str, Any], b: Dict[str, Any], config: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both outputs."""
    rows = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        for metric in config["end_to_end"]:
            name = metric["name"]
            values_a = side_a["samples"].get(name)
            values_b = side_b["samples"].get(name)
            if not values_a or not values_b:
                continue
            row = verdict(values_a, values_b, metric["bound"], metric["better"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], **row})
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="parent output (run.py --out)")
    parser.add_argument("b", type=Path, help="change output (run.py --out)")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), config)
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'B wins':>6} {'change':>7}  verdict")
    for r in rows:
        sides = [
            f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"
            for s in (r["a"], r["b"])
        ]
        print(
            f"{r['workload']:<16} {r['metric']:<12} {sides[0]:<30} {sides[1]:<30} "
            f"{r['win_frac']:>6.0%} {r['change']:>+7.1%}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

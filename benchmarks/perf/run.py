"""The repository benchmark: host time and memory to reproduce a result.

Each measured run is a fresh ``python child.py`` process that imports the
package from ``src/`` and makes one ``repro.api.run`` call on the input
``--seed`` selects.  The load is a closed loop with one client: one run at
a time, so at most two busy processes (the pool workers of a ``workers=2``
run), which is the host's core count.

A *round* of a workload is a serial run, a ``workers=2`` run and, with
``--trace 1``, a traced serial run.  Rounds repeat until ``--seconds`` are
used (or ``--repeat`` rounds are done) and, when several workloads run, go
round-robin over them so host drift hits all alike.  Every run's
``RunResult.fingerprint()`` must equal the others' and, for the seeds
recorded in ``baseline.json``, the recorded value; a run that raises, exits
non-zero, times out (10x the workload's recorded run time) or mismatches
counts as failed.

Each metric reports one value per run of the benchmark.  Host interference
only ever slows a run down, and on a shared host it comes in multi-second
spells, so a timing reports its fastest round; set-up time reports the
median round, and memory and the per-layer metrics the median too.

Usage::

    # what the benchmark harness runs: one workload for a fixed time
    python benchmarks/perf/run.py --workload sched-live --seed 3 --seconds 30 --trace 0

    # a full set: every workload, 7 interleaved rounds, per-layer trace too
    python benchmarks/perf/run.py --repeat 7 --trace 1 --out set.json --trace-out trace.json

When a single workload runs, the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--out`` writes every sample and summary;
``compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Timeout of a child whose workload has no recorded run time.
DEFAULT_TIMEOUT_S = 120.0
TIMEOUT_FACTOR = 10.0

#: End-to-end metrics that report the median round rather than the fastest.
MEDIAN_METRICS = frozenset({"setup_s", "peak_rss_mb"})


def load_json(path: Path) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def metric_units(config: Dict[str, Any], section: str) -> Dict[str, str]:
    """``{metric name: unit}`` of one ``BENCHMARK.json`` metric section."""
    return {m["name"]: m["unit"] for m in config[section]}


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a child's whole process group (its pool workers included) and
    wait, briefly, until no member is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(request: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """One measured run in a fresh interpreter; raises ``RuntimeError`` on
    a crash, a non-zero exit or a timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise RuntimeError(f"timed out after {timeout:.0f} s") from None
    except BaseException:
        _stop_group(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"exit code {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


class Measurement:
    """The rounds run so far, per workload, and what they measured.

    Args:
        seed: the input seed every run uses.
        scale: the named scale every run uses (``bench``; tests use ``tiny``).
        trace: whether each round adds a traced run.
        expected: ``{workload: {str(seed): fingerprint}}`` recorded results.
        timeouts: ``{workload: seconds}`` per child run.
    """

    def __init__(
        self,
        seed: int,
        *,
        scale: str = "bench",
        trace: bool = False,
        expected: Optional[Dict[str, Dict[str, str]]] = None,
        timeouts: Optional[Dict[str, float]] = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.kinds = ("serial", "w2", "traced") if trace else ("serial", "w2")
        self.expected = expected or {}
        self.timeouts = timeouts or {}
        self.rounds: Dict[str, List[Dict[str, Any]]] = {}

    def run_round(self, workload: str) -> Dict[str, Any]:
        """Run the next round of ``workload``; returns its record."""
        record: Dict[str, Any] = {"runs": {}, "errors": {}}
        for kind in self.kinds:
            request = {
                "workload": workload,
                "seed": self.seed,
                "workers": 2 if kind == "w2" else 1,
                "trace": kind == "traced",
                "scale": self.scale,
            }
            try:
                record["runs"][kind] = run_child(
                    request, self.timeouts.get(workload, DEFAULT_TIMEOUT_S)
                )
            except (RuntimeError, ValueError) as exc:
                record["errors"][kind] = str(exc)
        self.check_fingerprints(workload, record)
        self.rounds.setdefault(workload, []).append(record)
        return record

    def check_fingerprints(self, workload: str, record: Dict[str, Any]) -> None:
        """Fail every run whose fingerprint differs from the reference: the
        recorded one if there is one, else the first serial run's."""
        runs = record["runs"]
        reference = self.expected.get(workload, {}).get(str(self.seed))
        if reference is None:
            first = (self.runs(workload, "serial") or [runs.get("serial")])[0]
            if first is None:
                return
            reference = first["fingerprint"]
        for kind in list(runs):
            if runs[kind]["fingerprint"] != reference:
                record["errors"][kind] = (
                    f"fingerprint {runs[kind]['fingerprint'][:12]} != {reference[:12]}"
                )
                del runs[kind]

    # -- what the rounds measured ---------------------------------------------

    def attempted(self, workload: str) -> int:
        return sum(
            len(r["runs"]) + len(r["errors"]) for r in self.rounds.get(workload, [])
        )

    def failed(self, workload: str) -> int:
        return sum(len(r["errors"]) for r in self.rounds.get(workload, []))

    def runs(self, workload: str, kind: str) -> List[Dict[str, Any]]:
        return [r["runs"][kind] for r in self.rounds.get(workload, []) if kind in r["runs"]]

    def samples(self, workload: str) -> Dict[str, List[float]]:
        """End-to-end samples: one per round, ``import_s`` one per run."""
        serial = self.runs(workload, "serial")
        return {
            "run_s": [run["run_s"] for run in serial],
            "setup_s": [run["setup_s"] for run in serial],
            "import_s": [
                run["import_s"]
                for r in self.rounds.get(workload, [])
                for run in r["runs"].values()
            ],
            "run_w2_s": [run["run_s"] for run in self.runs(workload, "w2")],
            "peak_rss_mb": [run["peak_rss_mb"] for run in serial],
        }

    def layer_samples(self, workload: str) -> Dict[str, List[float]]:
        """Per-layer samples: one per traced run; the longest cell one per
        serial run; the ``workers=2`` harness numbers one per parallel run;
        the tracing overhead once."""
        traced = self.runs(workload, "traced")
        out: Dict[str, List[float]] = {}
        for run in traced:
            for name, value in run["layers"].items():
                out.setdefault(name, []).append(value)
        serial = self.runs(workload, "serial")
        out["harness.cell_max_s"] = [max(run["cell_s"]) for run in serial]
        for run in self.runs(workload, "w2"):
            cells = run["cell_s"]
            out.setdefault("harness.snapshot_s", []).append(run["snapshot_s"])
            out.setdefault("harness.restore_s", []).append(max(run["restore_s"], default=0.0))
            out.setdefault("harness.grid_bound", []).append(
                sum(cells) / max(cells) if cells else 0.0
            )
        if traced and serial:
            # Fastest against fastest, like the end-to-end timings.
            out["harness.tracing_overhead"] = [
                min(run["run_s"] for run in traced) / min(run["run_s"] for run in serial)
            ]
        return out


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` of the values (all three equal for one value)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def summarize(
    samples: Dict[str, List[float]], units: Dict[str, str], fastest: bool = False
) -> Dict[str, Any]:
    """Per metric of ``units``: the reported value, median, quartiles, count.

    The reported value is the median, or with ``fastest`` the minimum for
    every metric outside :data:`MEDIAN_METRICS`.
    """
    summary = {}
    for name, unit in units.items():
        values = samples.get(name, [])
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        summary[name] = {
            "unit": unit,
            "value": min(values) if fastest and name not in MEDIAN_METRICS else median,
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(values),
        }
    return summary


def print_table(workload: str, summary: Dict[str, Any]) -> None:
    print(f"{workload}: {'metric':<36} {'unit':>6} {'value':>11} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'n':>3}")
    for name, s in summary.items():
        print(
            f"{'':{len(workload) + 1}} {name:<36} {s['unit']:>6} {s['value']:>11.5g} "
            f"{s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} {s['n']:>3}"
        )


def host_info() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start rounds until this many seconds are used")
    parser.add_argument("--repeat", type=int, default=7,
                        help="rounds per workload when --seconds is not given")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run to each round, report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every sample and summary as JSON")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the raw traces (aggregates and harness spans)")
    parser.add_argument("--record", action="store_true",
                        help="check runs only against each other, then store the "
                             "fingerprint and fastest run_s in baseline.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    config = load_json(ROOT / "BENCHMARK.json")
    baseline = load_json(HERE / "baseline.json")
    e2e_units = metric_units(config, "end_to_end")
    layer_units = metric_units(config, "per_layer")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    measurement = Measurement(
        args.seed,
        trace=bool(args.trace),
        expected=None if args.record else baseline["fingerprints"],
        timeouts={w: TIMEOUT_FACTOR * s for w, s in baseline["recorded_run_s"].items()},
    )

    # A round over every workload is the unit of scheduling.  With
    # --seconds, start another while the time left exceeds half an average
    # round, so runs end near the budget on average.
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = len(measurement.rounds.get(workloads[0], []))
        if args.seconds is None:
            if done >= args.repeat:
                break
        elif done and elapsed + 0.5 * elapsed / done > args.seconds:
            break
        for workload in workloads:
            record = measurement.run_round(workload)
            for kind, error in record["errors"].items():
                print(f"{workload} {kind}: FAILED {error}", file=sys.stderr)

    report: Dict[str, Any] = {
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(),
        "workloads": {},
    }
    traces: Dict[str, Any] = {}
    for workload in workloads:
        attempted, failed = measurement.attempted(workload), measurement.failed(workload)
        samples = measurement.samples(workload)
        layers = measurement.layer_samples(workload)
        summary = summarize(samples, e2e_units, fastest=True)
        layer_summary = summarize(layers, layer_units)
        print_table(workload, summary)
        if args.trace:
            print_table(workload, layer_summary)
        print(f"{workload}: {attempted} runs attempted, {failed} failed")
        report["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "samples": samples,
            "summary": summary,
            "layer_samples": layers,
            "layer_summary": layer_summary,
            "errors": [r["errors"] for r in measurement.rounds[workload] if r["errors"]],
        }
        traces[workload] = [
            {"attribution_residual": run["attribution_residual"], **run["trace"]}
            for run in measurement.runs(workload, "traced")
        ]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.trace_out:
        args.trace_out.write_text(json.dumps(traces) + "\n")

    failed = sum(w["failed"] for w in report["workloads"].values())
    if args.record and not failed:
        for workload in workloads:
            serial = measurement.runs(workload, "serial")
            fingerprints = baseline["fingerprints"].setdefault(workload, {})
            fingerprints[str(args.seed)] = serial[0]["fingerprint"]
            baseline["recorded_run_s"][workload] = round(min(r["run_s"] for r in serial), 3)
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    if len(workloads) == 1:
        entry = report["workloads"][workloads[0]]
        chosen = entry["layer_summary"] if args.trace else entry["summary"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {n: {"value": s["value"], "unit": s["unit"]} for n, s in chosen.items()},
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

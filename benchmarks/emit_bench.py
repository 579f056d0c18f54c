"""Record the per-PR performance trajectory of the hot experiment paths.

Runs one compute-side and one storage-side scenario set at BENCH scale with
a fixed seed and writes ``BENCH_compute.json`` / ``BENCH_storage.json``
containing wall-clock timings plus the headline numbers each figure reports.
Because the seed is fixed, the headline numbers double as a regression
fingerprint: a PR that only optimizes hot paths must reproduce them exactly,
while the wall-clock fields record whether it actually got faster.

Every scenario runs through :func:`repro.api.run` and is summarized through
the uniform :class:`~repro.api.RunResult` envelope — the headline is the
payload's own ``headline()``, so this emitter needs no per-kind cases and a
new scenario is one entry in a table.  ``--workers N`` executes each
scenario's cell grid on a process pool; the headline fingerprints are
bit-identical to the serial run (CI diffs a ``--workers 2`` emission against
the serial reference to prove it), only the wall-clock moves.

Usage::

    python benchmarks/emit_bench.py              # writes into benchmarks/
    python benchmarks/emit_bench.py --output-dir /tmp --seed 2
    python benchmarks/emit_bench.py --workers 4     # parallel cell grids
    python benchmarks/emit_bench.py --history pr3   # also benchmarks/history/

``--history <tag>`` additionally snapshots the combined payloads into
``benchmarks/history/BENCH_<tag>.json``, building the one-file-per-PR
trajectory the wall-clock columns are plotted from.  The same payloads can
be produced scenario by scenario with ``repro run-scenario <name> --json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
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


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _envelope(seed: int, scale_name: str, workers: int) -> dict:
    payload = {
        "schema": 1,
        "scale": scale_name.upper(),
        "seed": seed,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "scenarios": {},
    }
    if workers > 1:
        payload["workers"] = workers
    return payload


def emit_payload(
    side: str, seed: int, scale_name: str = "bench", workers: int = 1
) -> dict:
    """One payload (``compute`` or ``storage``) through the uniform envelope."""
    payload = _envelope(seed, scale_name, workers)
    for key, scenario, overrides in SCENARIO_SETS[side]:
        result = api.run(
            scenario,
            overrides={"scale": scale_name, **overrides},
            workers=workers,
            seed=seed,
        )
        payload["scenarios"][key] = {
            "wall_clock_seconds": result.wall_clock_seconds,
            "headline": result.headline(),
        }
    return payload


def compute_payload(seed: int, scale_name: str = "bench", workers: int = 1) -> dict:
    """Figures 13 and 10/11: the scheduler-stack hot paths."""
    return emit_payload("compute", seed, scale_name, workers)


def storage_payload(seed: int, scale_name: str = "bench", workers: int = 1) -> dict:
    """Figures 15, 16, and 12: the storage-stack hot paths."""
    return emit_payload("storage", seed, scale_name, workers)


#: The grid-heavy scenarios whose parallel speedup the history snapshot
#: records: (payload side, scenario key).
SPEEDUP_SCENARIOS = (("compute", "fig13_dc9_sweep"), ("storage", "fig16_availability"))


def speedup_section(
    payloads: dict, seed: int, scale_name: str, workers: int
) -> dict:
    """Re-run the grid-heavy scenarios with ``workers`` processes.

    Verifies the parallel headline is bit-identical to the serial payload
    already emitted (any drift is a hard failure) and records the measured
    serial/parallel wall-clock pair plus the grid's parallelism profile:
    ``cell_seconds_sum`` is the embarrassingly parallel work and
    ``max_cell_seconds`` its critical path, so ``cell_seconds_sum /
    max_cell_seconds`` bounds the achievable speedup on a machine with
    enough cores — ``cpu_count`` records how many this emission actually
    had (a single-core container cannot beat 1x regardless of workers; the
    measurement is then the equivalence proof plus the overhead cost).  The
    section carries no ``scenarios`` key on purpose: trajectory tools that
    walk ``scenarios`` entries skip it, so it is pure provenance.
    """
    import os

    section: dict = {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "speedups": {},
    }
    for side, key in SPEEDUP_SCENARIOS:
        if side not in payloads:
            continue
        scenario, overrides = next(
            (name, row_overrides)
            for row_key, name, row_overrides in SCENARIO_SETS[side]
            if row_key == key
        )
        result = api.run(
            scenario,
            overrides={"scale": scale_name, **overrides},
            workers=workers,
            seed=seed,
        )
        serial_entry = payloads[side]["scenarios"][key]
        if result.headline() != serial_entry["headline"]:
            raise SystemExit(
                f"parallel headline drift in {key} at workers={workers}; "
                "the executor equivalence contract is broken"
            )
        serial_seconds = serial_entry["wall_clock_seconds"]
        cell_seconds = [t.seconds for t in result.cell_timings]
        section["speedups"][key] = {
            "serial_seconds": serial_seconds,
            "parallel_seconds": result.wall_clock_seconds,
            "speedup": serial_seconds / result.wall_clock_seconds,
            "cells": len(result.cell_timings),
            "cell_seconds_sum": sum(cell_seconds),
            "max_cell_seconds": max(cell_seconds) if cell_seconds else 0.0,
        }
        print(
            f"{key}: {serial_seconds:.1f}s serial -> "
            f"{result.wall_clock_seconds:.1f}s at workers={workers} "
            f"({serial_seconds / result.wall_clock_seconds:.1f}x), "
            "headline bit-identical; "
            f"grid bound {sum(cell_seconds) / max(cell_seconds):.1f}x "
            f"over {len(cell_seconds)} cells"
        )
    return section


#: fig14 restricted to two real datacenters: big enough that context
#: preparation dominates, small enough to measure on every emission.
SNAPSHOT_SCENARIO = "fig14-fleet-improvements"
SNAPSHOT_OVERRIDES = {"params": {"datacenters": ["DC-3", "DC-9"]}}


def snapshot_section(seed: int, scale_name: str) -> dict:
    """Measure the prepared-context snapshot economics on fig14.

    fig14 is the snapshot tentpole's motivating case: its context is a full
    fleet build per datacenter, which every pool worker used to rebuild from
    scratch and which cell enumeration used to pay just to list the grid.
    This section records both before/after pairs:

    * ``enumeration``: full-build ``runner.cells()`` versus the spec-only
      :func:`repro.api.cells_from_spec` fork-replay fast path (identical
      grids, asserted);
    * ``worker_context``: the parent's one-time build + serialize cost and
      each worker's deserialize cost (``restore_seconds``) versus the build
      cost (``rebuild_seconds``) that same worker used to pay — with the
      parallel headline asserted bit-identical to the serial run.
    """
    import time

    from repro.harness.runners import RUNNERS
    from repro.harness.snapshot import serialize_snapshot, snapshot_runner
    from repro.simulation.random import RandomSource

    spec = api.resolve(
        SNAPSHOT_SCENARIO, {"scale": scale_name, **SNAPSHOT_OVERRIDES}
    )

    started = time.perf_counter()
    fast_cells = api.cells_from_spec(spec, seed=seed)
    spec_only_seconds = time.perf_counter() - started

    runner = RUNNERS[spec.kind](spec, RandomSource(seed))
    started = time.perf_counter()
    full_cells = runner.cells()
    full_build_seconds = time.perf_counter() - started
    if [(c.index, c.key, c.seeds) for c in fast_cells] != [
        (c.index, c.key, c.seeds) for c in full_cells
    ]:
        raise SystemExit(
            "spec-only cell enumeration diverged from the full build; "
            "the fork-replay contract is broken"
        )

    data = serialize_snapshot(snapshot_runner(runner))

    serial = api.run(
        spec, overrides={"scale": scale_name, **SNAPSHOT_OVERRIDES}, seed=seed
    )
    parallel = api.run(
        spec,
        overrides={"scale": scale_name, **SNAPSHOT_OVERRIDES},
        seed=seed,
        workers=2,
    )
    if parallel.headline() != serial.headline():
        raise SystemExit(
            "fig14 parallel headline drift against the serial run; "
            "the snapshot-restore contract is broken"
        )
    restores = list(parallel.worker_restore_seconds)
    section = {
        "scenario": SNAPSHOT_SCENARIO,
        "datacenters": SNAPSHOT_OVERRIDES["params"]["datacenters"],
        "cells": len(full_cells),
        "enumeration": {
            "full_build_seconds": full_build_seconds,
            "spec_only_seconds": spec_only_seconds,
        },
        "worker_context": {
            "rebuild_seconds": parallel.ctx_seconds,
            "snapshot_seconds": parallel.snapshot_seconds,
            "snapshot_bytes": len(data),
            "restore_seconds": restores,
        },
    }
    print(
        f"fig14 enumeration: {full_build_seconds:.2f}s full build -> "
        f"{spec_only_seconds * 1000:.1f}ms spec-only "
        f"({len(full_cells)} cells, identical grid)"
    )
    mean_restore = sum(restores) / len(restores) if restores else 0.0
    print(
        f"fig14 worker ctx: {parallel.ctx_seconds:.2f}s rebuild -> "
        f"{mean_restore:.2f}s restore per worker "
        f"({len(data) / 1e6:.1f} MB snapshot, serialized once in "
        f"{parallel.snapshot_seconds:.2f}s), headline bit-identical"
    )
    return section


#: Continuous-mode memory benchmark: the same tiny open-loop traffic at a
#: short and a 4x horizon.  Streaming fold keeps retained series state flat.
CONTINUOUS_MEMORY_SCENARIO = "continuous-open"
CONTINUOUS_MEMORY_TRAFFIC = "open:rate=0.005"
CONTINUOUS_MEMORY_EPOCH_SECONDS = 300.0
CONTINUOUS_MEMORY_HORIZONS = (8, 32)  # epochs: short, 4x


def continuous_memory_section(seed: int, scale_name: str) -> dict:
    """Measure continuous-mode memory at two horizons (one 4x the other).

    Two figures per horizon:

    * ``peak_tail_bytes`` — the streaming aggregator's peak retained raw
      heartbeat-series bytes (the fold-at-boundary tentpole's headline:
      flat in the horizon, where the retired retain-all recorder grew
      linearly);
    * ``peak_rss_bytes`` — the process-level high-water mark around the
      run (``ru_maxrss``), coarse but honest about total footprint.

    The 4x pair is asserted flat within 10% — a regression here means raw
    rows are leaking across epoch boundaries again.
    """
    import resource

    def _rss_peak() -> int:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalize to bytes.
        return usage * 1024 if platform.system() == "Linux" else usage

    section: dict = {
        "scenario": CONTINUOUS_MEMORY_SCENARIO,
        "traffic": CONTINUOUS_MEMORY_TRAFFIC,
        "epoch_seconds": CONTINUOUS_MEMORY_EPOCH_SECONDS,
        "horizons": {},
    }
    peaks = {}
    for epochs in CONTINUOUS_MEMORY_HORIZONS:
        rss_before = _rss_peak()
        result = api.run_continuous(
            CONTINUOUS_MEMORY_SCENARIO,
            traffic=CONTINUOUS_MEMORY_TRAFFIC,
            epochs=epochs,
            epoch_seconds=CONTINUOUS_MEMORY_EPOCH_SECONDS,
            overrides={"scale": scale_name},
            seed=seed,
        )
        tail = max(
            v.peak_tail_bytes for v in result.payload.variants.values()
        )
        peaks[epochs] = tail
        section["horizons"][str(epochs)] = {
            "epochs": epochs,
            "sim_seconds": epochs * CONTINUOUS_MEMORY_EPOCH_SECONDS,
            "peak_tail_bytes": tail,
            "peak_tail_rows": max(
                v.peak_tail_rows for v in result.payload.variants.values()
            ),
            "peak_rss_bytes": max(_rss_peak(), rss_before),
            "wall_clock_seconds": result.wall_clock_seconds,
        }
    short, long = (peaks[h] for h in CONTINUOUS_MEMORY_HORIZONS)
    if long > short * 1.10:
        raise SystemExit(
            f"continuous retained-series memory grew {long / short:.2f}x "
            f"across a {CONTINUOUS_MEMORY_HORIZONS[1] // CONTINUOUS_MEMORY_HORIZONS[0]}x "
            "horizon; the fold-at-boundary contract is broken"
        )
    print(
        f"continuous memory: peak retained series {short} B at "
        f"{CONTINUOUS_MEMORY_HORIZONS[0]} epochs -> {long} B at "
        f"{CONTINUOUS_MEMORY_HORIZONS[1]} epochs (flat within 10%)"
    )
    return section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path(__file__).resolve().parent,
        help="where to write BENCH_compute.json / BENCH_storage.json",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    parser.add_argument(
        "--only",
        choices=["compute", "storage"],
        default=None,
        help="emit just one of the two payloads",
    )
    parser.add_argument(
        "--history",
        metavar="TAG",
        default=None,
        help="also snapshot the combined payloads to history/BENCH_<TAG>.json",
    )
    parser.add_argument(
        "--parallel-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "additionally re-run the grid-heavy scenarios (fig13 sweep, "
            "fig16 availability) with N worker processes, assert their "
            "headlines are bit-identical to the serial emission, and record "
            "the measured speedups (in the --history snapshot when given)"
        ),
    )
    args = parser.parse_args()
    if args.history and args.only:
        # A history snapshot is the combined trajectory point; a partial one
        # would leave a silent gap in the per-PR series.
        parser.error("--history requires emitting both payloads (drop --only)")
    if args.parallel_workers and args.workers > 1:
        # The speedup section uses the main emission's wall-clock as its
        # serial baseline; a parallel main emission would silently record
        # parallel-vs-parallel "speedups".
        parser.error("--parallel-workers needs a serial baseline (drop --workers)")
    args.output_dir.mkdir(parents=True, exist_ok=True)

    payloads = {}
    for side in ("compute", "storage"):
        if args.only not in (None, side):
            continue
        payloads[side] = emit_payload(side, args.seed, args.scale, args.workers)
        path = args.output_dir / f"BENCH_{side}.json"
        path.write_text(json.dumps(payloads[side], indent=2) + "\n")
        print(f"wrote {path}")
    snapshot = dict(payloads)
    if args.parallel_workers and args.parallel_workers > 1:
        snapshot["parallel"] = speedup_section(
            payloads, args.seed, args.scale, args.parallel_workers
        )
    if args.history:
        # The history point also records the prepared-context snapshot
        # economics (fig14 enumeration and worker restore-vs-rebuild) and
        # the continuous-mode memory profile at two horizons.
        snapshot["context_snapshot"] = snapshot_section(args.seed, args.scale)
        snapshot["continuous_memory"] = continuous_memory_section(
            args.seed, args.scale
        )
        history_dir = args.output_dir / "history"
        history_dir.mkdir(parents=True, exist_ok=True)
        path = history_dir / f"BENCH_{args.history}.json"
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

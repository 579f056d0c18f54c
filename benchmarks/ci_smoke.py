"""CI smoke for the executor, checkpoint, continuous-mode and CLI contracts.

All checks run at tiny scale so the whole script stays in about a minute:

* ``fig13`` parity: the full ``RunResult`` fingerprint and the
  non-fingerprinted ``telemetry`` section match between a serial run and a
  2-worker pool, and the pump fast-path counters actually ticked;
* checkpoint/resume: a CLI run paused after 3 of fig13's cells (exit code
  3) resumes on a 2-worker pool to the straight-line fingerprint, and so
  does a fig16 run paused in the middle of a utilization target (its
  workers re-derive that target's scaled tenants and trace matrix);
* continuous mode: the epoch-stream fingerprint holds at ``workers=2``;
  the serial per-epoch headline is written to ``EPOCHS_JSON``;
* long horizon: a 32-epoch CLI run's ``--emit-epochs`` JSONL stream
  reconstructs its JSON payload exactly, and the streaming fold's retained
  bytes stay flat from 8 to 32 epochs;
* run forever: ``--epochs 0`` streams the windows that fit the horizon, and
  a paused-then-resumed run is bit-identical to the straight one;
* CLI surface: ``--list-cells`` enumerates a non-empty grid, ``--json``
  output parses (fig12, and fig16 on a 2-worker pool with its points),
  the continuous-mode flags (``--traffic``/``--epochs``/``--epoch-seconds``)
  shape a run, and ``--workload`` shapes one while a bogus spec fails;
* hash seeds: the ``--json`` document of six storage and scheduling
  scenarios is identical under ``PYTHONHASHSEED=1`` and ``2``, apart from
  the keys the fingerprint leaves out.

Run it from the repository root (``python benchmarks/ci_smoke.py``) with the
package installed or ``src`` on ``PYTHONPATH``; it needs no output of an
earlier step.  A real module file (not a stdin heredoc) because the pool
spawns its workers wherever it cannot fork (fork on Linux, spawn
elsewhere), and a spawned worker re-imports ``__main__`` from its path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.api import TINY_SCALE, cells_from_spec, resolve, run, run_continuous
from repro.api.result import UNFINGERPRINTED_KEYS
from repro.harness.snapshot import CheckpointPause

#: Where the continuous smoke writes its serial per-epoch headline.
EPOCHS_JSON = Path("/tmp/continuous-epochs.json")

#: The storage figures, the reimage-heavy failure storm, and the scheduling
#: kinds (testbed, heterogeneous fleet, and the predictor ablation, whose
#: reserve controller resizes the reserve mid-run).
HASH_SEED_SCENARIOS = (
    "fig15-durability",
    "fig12-storage-testbed",
    "failure-storm",
    "fig10-11-scheduling-testbed",
    "heterogeneous-fleet",
    "predictor-ablation",
)


def cli(*args: str, expect: int = 0, env=None) -> str:
    """Run ``repro <args>``; returns stdout, failing on an unexpected exit."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == expect, (args, done.returncode, done.stderr)
    return done.stdout


def check_fig13_parity() -> None:
    serial = run("fig13-dc9-sweep", overrides={"scale": TINY_SCALE})
    parallel = run("fig13-dc9-sweep", overrides={"scale": TINY_SCALE}, workers=2)
    assert serial.fingerprint() == parallel.fingerprint(), (
        "fig13 fingerprint drift at workers=2"
    )
    telemetry = serial.to_jsonable()["telemetry"]
    assert telemetry == parallel.to_jsonable()["telemetry"], "telemetry diverged"
    assert any(
        value
        for point in telemetry["points"]
        for counters in point["scheduler_counters"].values()
        for value in counters.values()
    ), "pump fast-path counters never ticked"
    print("fig13 tiny fingerprint", serial.fingerprint())


def check_resume(work: Path) -> None:
    ckpt = work / "ckpt-smoke"
    cli(
        "run-scenario", "fig13-dc9-sweep", "--scale", "tiny",
        "--checkpoint-dir", str(ckpt), "--stop-after-cells", "3",
        expect=3,
    )
    assert (ckpt / "context.snap").is_file()
    straight = run("fig13-dc9-sweep", overrides={"scale": "tiny"}, seed=0)
    resumed = run(
        "fig13-dc9-sweep", overrides={"scale": "tiny"}, seed=0,
        checkpoint=str(ckpt), resume=True, workers=2,
    )
    assert resumed.resumed_cells == 3, resumed.resumed_cells
    assert resumed.fingerprint() == straight.fingerprint(), "resume fingerprint drift"
    print("checkpoint/resume fingerprint", resumed.fingerprint())


def check_fig16_resume(work: Path) -> None:
    ckpt = work / "ckpt-fig16"
    overrides = {"scale": "tiny"}
    cells = cells_from_spec(resolve("fig16-availability", overrides), seed=0)
    first = cells[0].coord("target_utilization")
    per_target = sum(c.coord("target_utilization") == first for c in cells)
    assert per_target > 1 and len(cells) > 2 * per_target, (per_target, len(cells))
    # One cell into the second target: the pause splits a target's cells.
    stop = per_target + 1
    try:
        run("fig16-availability", overrides=overrides, seed=0,
            checkpoint=str(ckpt), stop_after_cells=stop)
    except CheckpointPause as pause:
        assert pause.completed == stop, pause.completed
    else:
        raise AssertionError("fig16 run did not pause")
    straight = run("fig16-availability", overrides=overrides, seed=0)
    resumed = run(
        "fig16-availability", overrides=overrides, seed=0,
        checkpoint=str(ckpt), resume=True, workers=2,
    )
    assert resumed.resumed_cells == stop, resumed.resumed_cells
    assert resumed.fingerprint() == straight.fingerprint(), (
        "fig16 mid-target resume fingerprint drift"
    )
    print("fig16 mid-target resume fingerprint", resumed.fingerprint())


def check_continuous() -> None:
    knobs = dict(
        traffic="open:rate=0.005,profile=diurnal,period=1800,amplitude=0.5",
        epochs=3,
        epoch_seconds=300.0,
        overrides={"scale": "tiny"},
    )
    serial = run_continuous("continuous-open", **knobs)
    parallel = run_continuous("continuous-open", workers=2, **knobs)
    assert serial.fingerprint() == parallel.fingerprint(), (
        "continuous epoch-stream fingerprint drift at workers=2"
    )
    variants = serial.headline()["variants"]
    assert all(len(v["epochs"]) == 3 for v in variants.values()), variants
    EPOCHS_JSON.write_text(json.dumps(serial.headline(), indent=2, sort_keys=True))
    print("continuous-open tiny fingerprint", serial.fingerprint())


def check_long_horizon(work: Path) -> None:
    stream = work / "epochs-32.jsonl"
    payload = json.loads(
        cli(
            "run-scenario", "continuous-open", "--json", "--scale", "tiny",
            "--traffic", "open:rate=0.005", "--epochs", "32",
            "--epoch-seconds", "120", "--emit-epochs", str(stream),
        )
    )["result"]
    assert payload["num_epochs"] == 32, payload["num_epochs"]
    want = [
        dict(epoch, variant=variant, index=i)
        for variant, v in payload["variants"].items()
        for i, epoch in enumerate(v["epochs"])
    ]

    def key(record):
        return (record["variant"], record["index"])

    # Full-fidelity diff: every (variant, epoch) present exactly once.
    streamed = {key(r): r for r in map(json.loads, stream.read_text().splitlines())}
    assert len(streamed) == len(want), (len(streamed), len(want))
    for record in want:
        got = streamed[key(record)]
        for field in ("jobs_submitted", "jobs_completed", "tasks_completed",
                      "tasks_killed", "queue_depth", "p99_primary_ms"):
            assert got[field] == record[field], (key(record), field)

    def peak(epochs: int) -> tuple:
        result = run_continuous(
            "continuous-open", traffic="open:rate=0.005", epochs=epochs,
            epoch_seconds=120.0, overrides={"scale": "tiny"},
        )
        variants = result.payload.variants.values()
        return (max(v.peak_tail_rows for v in variants),
                max(v.peak_tail_bytes for v in variants))

    # Heartbeat rows share the fleet's cached arrays, so the bytes a tail
    # holds depend on how often its busiest minute saw the trace sample or
    # the allocations change; they stay under the short run's peak rows
    # each holding both arrays of its own.
    (short, _), (long, long_bytes) = peak(8), peak(32)
    assert long <= short * 1.10, (short, long)
    unshared_row = 8 + 2 * 8 * TINY_SCALE.num_servers
    assert long_bytes <= short * unshared_row, (short, long_bytes)
    print("32-epoch JSONL stream matches payload; retained series flat:",
          short, "->", long, "rows,", long_bytes, "bytes")


def check_run_forever(work: Path) -> None:
    stream = work / "epochs-forever.jsonl"
    ckpt = work / "ckpt-forever"
    horizon = (
        "run-scenario", "continuous-open", "--scale", "tiny",
        "--traffic", "open:rate=0.005", "--epochs", "0",
        "--max-sim-seconds", "700", "--epoch-seconds", "300",
    )
    straight = json.loads(cli(*horizon, "--json", "--emit-epochs", str(stream)))
    straight = straight["result"]
    assert straight["num_epochs"] == 3, straight["num_epochs"]  # 300+300+100
    lines = [json.loads(line) for line in stream.read_text().splitlines()]
    assert len(lines) == 3 * len(straight["variants"]), len(lines)
    assert max(r["end_seconds"] for r in lines) == 700.0
    cli(*horizon, "--checkpoint-dir", str(ckpt), "--stop-after-cells", "1", expect=3)
    resumed = json.loads(
        cli(*horizon, "--json", "--checkpoint-dir", str(ckpt), "--resume",
            "--workers", "2")
    )["result"]
    assert straight == resumed, "run-forever resume drift"
    print("run-forever resume bit-identical")


def check_cli_surface() -> None:
    cells = json.loads(
        cli(
            "run-scenario", "fig14-fleet-improvements", "--scale", "tiny",
            "--list-cells", "--json",
        )
    )
    assert cells, "empty grid"
    print(len(cells), "cells listed")
    json.loads(cli("run-scenario", "fig12-storage-testbed", "--json", "--scale", "tiny"))
    fig16 = json.loads(
        cli(
            "run-scenario", "fig16-availability", "--json", "--scale", "tiny",
            "--workers", "2",
        )
    )["result"]
    assert fig16["points"], "no points"
    closed = json.loads(
        cli(
            "run-scenario", "continuous-closed", "--json", "--scale", "tiny",
            "--traffic", "closed:users=3,think=180", "--epochs", "3",
            "--epoch-seconds", "300",
        )
    )["result"]
    assert closed["num_epochs"] == 3, closed
    shaped = json.loads(
        cli(
            "run-scenario", "heterogeneous-fleet", "--json", "--scale", "tiny",
            "--workload",
            "duration=uniform:low=40,high=90;tenant_arrivals_per_hour=60",
        )
    )["result"]
    assert shaped["elastic_tenants"] > 0, shaped
    bogus = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "run-scenario", "heterogeneous-fleet",
            "--workload", "duration=bogus:mean=1",
        ],
        capture_output=True, text=True,
    )
    assert bogus.returncode != 0, "bogus distribution was accepted"
    print("CLI surface ok")


def check_hash_seeds() -> None:
    for scenario in HASH_SEED_SCENARIOS:
        documents = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            data = json.loads(
                cli("run-scenario", scenario, "--json", "--scale", "tiny", env=env)
            )
            for key in UNFINGERPRINTED_KEYS:
                data.pop(key)
            documents.append(json.dumps(data, sort_keys=True))
        assert documents[0] == documents[1], f"{scenario} differs across hash seeds"
        print(scenario, "identical across hash seeds")


def main() -> None:
    check_fig13_parity()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        check_resume(work)
        check_fig16_resume(work)
        check_continuous()
        check_long_horizon(work)
        check_run_forever(work)
    check_cli_surface()
    check_hash_seeds()


if __name__ == "__main__":  # spawned pool workers re-import this module
    main()

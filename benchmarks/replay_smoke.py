"""CI smoke for the workload substrate's record/replay contract.

Three assertions, all at tiny scale so the whole script stays in seconds:

* a ``failure-storm`` run recorded with ``record_trace`` replays from the
  written JSONL into a bit-identical ``RunResult`` fingerprint (and both
  match a plain synthetic run — recording is observation, not mutation);
* the replayed grid is bit-identical across a 2-worker process pool;
* a second new kind (``antagonist``) holds the serial-vs-parallel
  fingerprint contract on its synthetic path.

A real module file (not a stdin heredoc) because the pool spawns its
workers wherever it cannot fork (fork on Linux, spawn elsewhere), and a
spawned worker re-imports ``__main__`` from its path.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro.api as api
from repro.harness import get_scenario
from repro.harness.config import TINY_SCALE


def check_record_replay(trace_path: str) -> None:
    base = get_scenario("failure-storm").with_overrides(scale=TINY_SCALE)
    recorded = api.run(
        base.with_overrides(
            params={**base.params, "record_trace": trace_path}
        ),
        seed=7,
    )
    plain = api.run(base, seed=7)
    replay_spec = base.with_overrides(
        params={**base.params, "replay_trace": trace_path}
    )
    replayed = api.run(replay_spec, seed=7)
    parallel = api.run(replay_spec, seed=7, workers=2)
    assert recorded.fingerprint() == plain.fingerprint(), (
        "recording the trace perturbed the run"
    )
    assert replayed.fingerprint() == recorded.fingerprint(), (
        "trace replay diverged from the recorded run"
    )
    assert parallel.fingerprint() == replayed.fingerprint(), (
        "replayed grid drifted on a 2-worker pool"
    )
    print("failure-storm record/replay fingerprint", recorded.fingerprint())


def check_parallel_kind(name: str) -> None:
    spec = get_scenario(name).with_overrides(scale=TINY_SCALE)
    serial = api.run(spec, seed=7)
    parallel = api.run(spec, seed=7, workers=2)
    assert serial.fingerprint() == parallel.fingerprint(), (
        f"{name} fingerprint drift at workers=2"
    )
    print(name, "tiny fingerprint", serial.fingerprint())


if __name__ == "__main__":  # spawned pool workers re-import this module
    with tempfile.TemporaryDirectory() as tmp:
        check_record_replay(str(Path(tmp) / "storm.jsonl"))
    check_parallel_kind("antagonist")

"""Determinism regression for the jobs layer (TaskTable stack).

The cross-``PYTHONHASHSEED`` twin of ``tests/test_determinism_scheduling.py``
for the paths PR 4 rebuilt: the TaskTable runnable frontier, the batched
wave scheduling, and the vectorized Algorithm 1 selector all iterate numpy
rows or insertion-ordered structures — never hash-ordered sets — so the
fig13 sweep must reproduce a bit-identical fingerprint run over run and across
processes with different string-hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro.api as api
from repro.traces.scaling import ScalingMethod


def _fingerprint() -> str:
    """The full RunResult fingerprint of a one-point tiny fig13 sweep."""
    return api.run(
        "fig13-dc9-sweep",
        overrides={
            "scale": "tiny",
            "utilization_levels": (0.35,),
            "scalings": (ScalingMethod.LINEAR,),
        },
        seed=5,
    ).fingerprint()


_SUBPROCESS_SNIPPET = """
from tests.test_determinism_jobs import _fingerprint
print(_fingerprint())
"""


def test_scheduling_sweep_repeats_bit_identically():
    assert _fingerprint() == _fingerprint()


def test_scheduling_sweep_stable_across_hash_seeds():
    """The PYTHONHASHSEED flakiness class: same run, different hash seeds."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.getcwd(), env.get("PYTHONPATH", "")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]

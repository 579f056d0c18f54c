"""Determinism regression for the compute-harvesting scheduler stack.

PR 1 fixed a ``PYTHONHASHSEED``-dependent flake in the reimage replay by
pinning a set iteration to sorted order.  The audit of the RM request/kill
paths (this PR) found the equivalent constructs all pinned already —
insertion-ordered dicts for the server records, running containers, and DAG
vertices, plus the explicitly sorted ``topological_levels`` — and these tests
keep it that way: the scheduling testbed must reproduce a bit-identical
run fingerprint run over run, both within a process and across processes
with different hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro.api as api


def _fingerprint() -> str:
    """The full RunResult fingerprint of a tiny fig10-11 run."""
    return api.run(
        "fig10-11-scheduling-testbed", overrides={"scale": "tiny"}, seed=5
    ).fingerprint()


_SUBPROCESS_SNIPPET = """
from tests.test_determinism_scheduling import _fingerprint
print(_fingerprint())
"""


def test_scheduling_testbed_repeats_bit_identically():
    assert _fingerprint() == _fingerprint()


def test_scheduling_testbed_stable_across_hash_seeds():
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

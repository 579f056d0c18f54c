"""Determinism regression for the storage-harvesting stack.

The storage twin of ``tests/test_determinism_scheduling.py``: the durability
replay and the storage testbed must reproduce bit-identical run fingerprints
run over run, both within a process and across processes launched with
different ``PYTHONHASHSEED`` values.  The BlockTable refactor pinned every
hash-order-sensitive iteration (reimage destroy order, re-replication queue
order, recovery candidate enumeration) to sorted or insertion order; these
tests keep it that way.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro.api as api


def _fingerprint(scenario: str) -> str:
    """The full RunResult fingerprint of a tiny run of ``scenario``."""
    return api.run(scenario, overrides={"scale": "tiny"}, seed=5).fingerprint()


_SUBPROCESS_SNIPPET = """
from tests.test_determinism_storage import _fingerprint
print(_fingerprint("fig15-durability"), _fingerprint("fig12-storage-testbed"))
"""


def test_durability_repeats_bit_identically():
    assert _fingerprint("fig15-durability") == _fingerprint("fig15-durability")


def test_storage_testbed_repeats_bit_identically():
    assert _fingerprint("fig12-storage-testbed") == _fingerprint(
        "fig12-storage-testbed"
    )


def test_storage_stack_stable_across_hash_seeds():
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

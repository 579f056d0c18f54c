"""Tests for the cell pool's workers: how they start, what they see, and
that none outlives its run.

On Linux the harness forks its pool workers when the parent runs a single
Python thread, and spawns them everywhere else
(``repro.harness.harness._pool_start_method``).  Both paths must produce
the serial run's fingerprint.  Fork workers share the parent's hash seed,
so the forced-spawn runs here are the parity checks whose workers hash
strings differently from the parent.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from concurrent import futures
from typing import List

import pytest

import repro.api as api
from repro.harness import harness as harness_module

TINY_FIG16 = dict(
    overrides={"scale": "tiny", "utilization_levels": (0.4, 0.6)}, seed=3
)
CONTINUOUS_KNOBS = dict(
    traffic="open:rate=0.005",
    epochs=3,
    epoch_seconds=300.0,
    overrides={"scale": "tiny"},
)

fork_available = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the platform offers no fork start method",
)
METHODS = [pytest.param("fork", marks=fork_available), "spawn"]


@pytest.fixture
def pool_methods(monkeypatch) -> List[str]:
    """The start method of every pool the harness creates, in order."""
    methods: List[str] = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            methods.append(mp_context.get_start_method())
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    return methods


@pytest.fixture(params=METHODS)
def forced_method(request, monkeypatch, pool_methods) -> str:
    """Force the pool's one start-method decision to fork or to spawn."""
    method = request.param
    monkeypatch.setattr(harness_module, "_pool_start_method", lambda: method)
    return method


@pytest.fixture(scope="module")
def serial_fig16():
    return api.run("fig16-availability", **TINY_FIG16)


class TestParity:
    def test_fig16_matches_serial(self, forced_method, pool_methods, serial_fig16):
        parallel = api.run("fig16-availability", workers=2, **TINY_FIG16)
        assert pool_methods == [forced_method]
        assert parallel.fingerprint() == serial_fig16.fingerprint()
        # Each of the two workers restored the context once.
        assert len(parallel.worker_restore_seconds) == 2

    def test_continuous_epochs_reach_the_parent_once(
        self, forced_method, pool_methods
    ):
        serial = api.run_continuous("continuous-open", seed=11, **CONTINUOUS_KNOBS)
        streamed: List[tuple] = []
        parallel = api.run_continuous(
            "continuous-open",
            seed=11,
            workers=2,
            on_epoch=lambda variant, m: streamed.append((variant, m)),
            **CONTINUOUS_KNOBS,
        )
        assert pool_methods == [forced_method]
        assert parallel.fingerprint() == serial.fingerprint()
        keys = [(variant, m.index) for variant, m in streamed]
        assert len(keys) == len(set(keys))
        assert sorted(keys) == sorted(
            (variant, e.index)
            for variant, outcome in serial.payload.variants.items()
            for e in outcome.epochs
        )

    def test_workers_see_only_the_snapshot(self, forced_method, serial_fig16):
        # Instance state the parent attaches after the build stays in the
        # parent: a worker restores its own runner from the snapshot bytes.
        def poison(runner):
            def refuse(*args, **kwargs):
                raise AssertionError("a worker ran the parent's runner state")

            runner.run_cell = refuse
            runner.derived = refuse

        parallel = api.run(
            "fig16-availability", workers=2, runner_setup=poison, **TINY_FIG16
        )
        assert parallel.fingerprint() == serial_fig16.fingerprint()


class TestStartMethod:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux only")
    def test_fork_with_one_thread_spawn_with_two(self):
        assert threading.active_count() == 1
        assert harness_module._pool_start_method() == "fork"
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert harness_module._pool_start_method() == "spawn"
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert harness_module._pool_start_method() == "fork"

    def test_a_run_beside_another_thread_spawns(self, pool_methods, serial_fig16):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            parallel = api.run("fig16-availability", workers=2, **TINY_FIG16)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pool_methods == ["spawn"]
        assert parallel.fingerprint() == serial_fig16.fingerprint()


class TestNoWorkerOutlivesItsRun:
    def test_after_a_run_returns(self, forced_method):
        api.run("fig16-availability", workers=2, **TINY_FIG16)
        assert multiprocessing.active_children() == []

    def test_after_a_cell_raises_in_a_worker(self, forced_method):
        # The snapshot carries the emptied factor table, so every cell
        # fails inside its worker, not in the parent.
        def drop_factors(runner):
            runner.ctx["factors"].clear()

        with pytest.raises(KeyError):
            api.run(
                "fig16-availability",
                workers=2,
                runner_setup=drop_factors,
                **TINY_FIG16,
            )
        assert multiprocessing.active_children() == []

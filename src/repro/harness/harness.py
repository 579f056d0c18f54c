"""The experiment harness: one thin executor for every scenario kind.

Since the ``repro.api`` redesign the harness no longer knows anything about
scenario kinds: every runner declares its **cell grid** (see
:mod:`repro.harness.cells`) and the harness merely executes it — either
serially in-process, or across a ``ProcessPoolExecutor`` (spawn) when
``workers > 1``.

The parent prepares the shared context once and ships it as a
:class:`~repro.harness.snapshot.ContextSnapshot`: pool workers *deserialize*
the prepared context instead of rebuilding it from ``(spec, seed)`` (one
pickle load versus, for fig14, reconstructing every datacenter fleet), and
execute cells purely from their recorded child seeds.  The parent
reassembles partial results in deterministic cell order, so a parallel run
is bit-identical to the serial one by construction.

The same snapshot doubles as the checkpoint format: with a
``checkpoint_dir`` the harness persists the context once and every
completed cell atomically, and a resumed run restores the context from disk
(never rebuilds) and executes only the missing cells — fingerprints match
the straight-line run exactly.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.cells import Cell, CellTiming
from repro.harness.runners import RUNNERS, ScenarioRunner
from repro.harness.snapshot import (
    CheckpointPause,
    RunCheckpoint,
    SnapshotError,
    deserialize_snapshot,
    restore_runner,
    serialize_snapshot,
    snapshot_digest,
    snapshot_runner,
)
from repro.harness.spec import ScenarioSpec, get_scenario
from repro.simulation.metrics import MetricRegistry
from repro.simulation.random import RandomSource

#: Per-process cache of the restored runner, keyed by snapshot digest; a
#: pool worker deserializes the parent's prepared context once and serves
#: every cell it is handed from it.
_WORKER_STATE: dict = {}


def _build_runner(
    spec: ScenarioSpec, seed: int, metrics: Optional[MetricRegistry] = None
) -> ScenarioRunner:
    runner_cls = RUNNERS.get(spec.kind)
    if runner_cls is None:
        raise ValueError(f"no runner registered for kind {spec.kind!r}")
    return runner_cls(
        spec, RandomSource(seed), metrics if metrics is not None else MetricRegistry()
    )


def cells_from_spec(
    scenario: Union[str, ScenarioSpec], seed: Optional[int] = None
) -> List[Cell]:
    """A scenario's cell grid, without building its shared context.

    Child-seed derivation is pure arithmetic, so every built-in kind can
    name its grid points — keys, seeds, coordinates — straight from the
    spec (fig14 previously built all N datacenter fleets just to enumerate).
    Kinds that cannot enumerate spec-only fall back to a full build.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    effective = spec.seed if seed is None else int(seed)
    runner_cls = RUNNERS.get(spec.kind)
    if runner_cls is None:
        raise ValueError(f"no runner registered for kind {spec.kind!r}")
    cells = runner_cls.cells_from_spec(spec, effective)
    if cells is None:
        cells = _build_runner(spec, effective).cells()
    return cells


def _worker_init(data: bytes, digest: str) -> None:
    """Pool initializer: restore the parent's prepared context once.

    The restored runner is cached by snapshot digest, so a worker process
    that already holds this exact context (long-lived pools, repeated runs)
    skips even the deserialize.
    """
    if _WORKER_STATE.get("digest") == digest:
        _WORKER_STATE["reported"] = False
        return
    started = time.perf_counter()
    runner = restore_runner(deserialize_snapshot(data))
    _WORKER_STATE["digest"] = digest
    _WORKER_STATE["runner"] = runner
    _WORKER_STATE["cells"] = runner.cells()
    _WORKER_STATE["restore_seconds"] = time.perf_counter() - started
    _WORKER_STATE["reported"] = False


def _worker_run_cell(index: int) -> Tuple[int, Any, float, float]:
    """Execute one cell (by enumeration index) in a pool worker.

    The fourth element reports the worker's one-time context-restore cost
    (on the first cell each worker returns; 0.0 afterwards) so the parent
    can surface executor overhead without a side channel.
    """
    runner: ScenarioRunner = _WORKER_STATE["runner"]
    cell: Cell = _WORKER_STATE["cells"][index]
    started = time.perf_counter()
    partial = runner.run_cell(cell)
    seconds = time.perf_counter() - started
    restore_seconds = 0.0
    if not _WORKER_STATE.get("reported"):
        _WORKER_STATE["reported"] = True
        restore_seconds = float(_WORKER_STATE.get("restore_seconds", 0.0))
    return index, partial, seconds, restore_seconds


class ExperimentHarness:
    """Runs one :class:`ScenarioSpec` end to end.

    The harness owns the run's seed-derived random stream and its
    :class:`MetricRegistry`; the scenario's runner builds the fleet once,
    declares one cell per independent grid point (each with forked streams),
    and the harness executes the cells — serially, or on a spawn-based
    process pool when ``workers > 1`` — before the runner merges the partial
    results in cell order.  After ``run()`` the registry holds the
    scenario's headline numbers and :attr:`cell_timings` the per-cell
    wall-clock, so two runs with the same spec and seed produce identical
    snapshots regardless of worker count.

    With a ``checkpoint_dir`` the run persists its prepared context and each
    completed cell; ``resume=True`` restores the context from the checkpoint
    (validating spec and seed) and executes only the cells the previous run
    did not finish.  ``stop_after_cells`` pauses a (serial) run after that
    many newly executed cells by raising
    :class:`~repro.harness.snapshot.CheckpointPause` — the fault-injection
    hook the checkpoint tests and the CI resume smoke use.

    Executor overhead is recorded separately from cell work:
    :attr:`ctx_seconds` (parent context build or restore),
    :attr:`snapshot_seconds` (serializing the context for workers or the
    checkpoint), and :attr:`worker_restore_seconds` (each worker's one-time
    context restore).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: Optional[int] = None,
        metrics: Optional[MetricRegistry] = None,
        workers: int = 1,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        stop_after_cells: Optional[int] = None,
        runner_setup: Optional[Any] = None,
        cell_callback: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.seed = spec.seed if seed is None else int(seed)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = bool(resume)
        if stop_after_cells is not None:
            stop_after_cells = int(stop_after_cells)
            if stop_after_cells <= 0:
                raise ValueError("stop_after_cells must be positive")
            if self.checkpoint_dir is None:
                raise ValueError(
                    "stop_after_cells needs a checkpoint_dir — pausing "
                    "without one would just discard the progress"
                )
        self.stop_after_cells = stop_after_cells
        #: ``runner_setup(runner)`` runs once after the runner is built *or*
        #: restored — the hook point for attaching non-snapshot state such
        #: as a live ``on_epoch`` emission callback (runner instance
        #: attributes never survive snapshot/restore by design).
        self.runner_setup = runner_setup
        #: ``cell_callback(cell, partial)`` observes every completed cell as
        #: its result becomes available to the parent: resumed cells at
        #: checkpoint load, serial cells as they finish, pool cells as the
        #: pool yields them.  Lets callers stream per-cell output without
        #: waiting for the merge.
        self.cell_callback = cell_callback
        self.cell_timings: List[CellTiming] = []
        self.ctx_seconds = 0.0
        self.snapshot_seconds = 0.0
        self.worker_restore_seconds: List[float] = []
        self.resumed_cells = 0

    def run(self) -> Any:
        """Execute the scenario; returns its kind-specific result dataclass."""
        checkpoint = (
            RunCheckpoint(self.checkpoint_dir) if self.checkpoint_dir else None
        )
        done: Dict[int, Tuple[Any, CellTiming]] = {}
        snapshot_data: Optional[bytes] = None
        resumed = False
        started = time.perf_counter()
        if checkpoint is not None and self.resume and checkpoint.exists():
            snapshot, _meta = checkpoint.read_context()
            if snapshot.spec != self.spec or snapshot.seed != self.seed:
                raise SnapshotError(
                    f"checkpoint {checkpoint.directory} was written for "
                    f"{snapshot.spec.name!r} (seed {snapshot.seed}); this run "
                    f"is {self.spec.name!r} (seed {self.seed})"
                )
            runner = restore_runner(snapshot, self.metrics)
            done = checkpoint.completed_cells()
            self.resumed_cells = len(done)
            resumed = True
        else:
            runner = _build_runner(self.spec, self.seed, self.metrics)
        if self.runner_setup is not None:
            self.runner_setup(runner)
        cells = runner.cells()
        self.ctx_seconds = time.perf_counter() - started
        if done and self.cell_callback is not None:
            # Resumed cells stream to the observer too, in cell order, so a
            # resumed run replays the already-finished prefix before new
            # cells start arriving.
            for cell in cells:
                if cell.index in done:
                    self.cell_callback(cell, done[cell.index][0])

        if checkpoint is not None and not resumed:
            snapshot_data = self._serialize(runner)
            checkpoint.write_context(
                snapshot_data,
                {
                    "version": 1,
                    "scenario": self.spec.name,
                    "kind": self.spec.kind,
                    "seed": self.seed,
                    "digest": snapshot_digest(snapshot_data),
                    "total_cells": len(cells),
                },
            )

        pending = [cell for cell in cells if cell.index not in done]
        effective = min(self.workers, len(pending)) if pending else 1
        if self.stop_after_cells is not None:
            # The pause hook counts cells in completion order; only the
            # serial path has one.
            effective = 1
        if not pending:
            executed: Dict[int, Tuple[Any, CellTiming]] = {}
        elif effective > 1:
            executed = self._run_cells_parallel(
                runner, cells, pending, effective, checkpoint, snapshot_data
            )
        else:
            executed = self._run_cells_serial(runner, cells, pending, checkpoint)

        results = {**done, **executed}
        partials = [results[cell.index][0] for cell in cells]
        self.cell_timings = [results[cell.index][1] for cell in cells]
        return runner.merge(cells, partials)

    def _serialize(self, runner: ScenarioRunner) -> bytes:
        started = time.perf_counter()
        data = serialize_snapshot(snapshot_runner(runner))
        self.snapshot_seconds = time.perf_counter() - started
        return data

    def _run_cells_serial(
        self,
        runner: ScenarioRunner,
        cells: Sequence[Cell],
        pending: Sequence[Cell],
        checkpoint: Optional[RunCheckpoint],
    ) -> Dict[int, Tuple[Any, CellTiming]]:
        executed: Dict[int, Tuple[Any, CellTiming]] = {}
        for position, cell in enumerate(pending):
            started = time.perf_counter()
            partial = runner.run_cell(cell)
            timing = CellTiming(cell.index, cell.key, time.perf_counter() - started)
            if checkpoint is not None:
                checkpoint.record_cell(timing, partial)
            if self.cell_callback is not None:
                self.cell_callback(cell, partial)
            executed[cell.index] = (partial, timing)
            if (
                self.stop_after_cells is not None
                and len(executed) >= self.stop_after_cells
                and position + 1 < len(pending)
            ):
                assert self.checkpoint_dir is not None
                raise CheckpointPause(
                    self.resumed_cells + len(executed),
                    len(cells),
                    self.checkpoint_dir,
                )
        return executed

    def _run_cells_parallel(
        self,
        runner: ScenarioRunner,
        cells: Sequence[Cell],
        pending: Sequence[Cell],
        workers: int,
        checkpoint: Optional[RunCheckpoint],
        snapshot_data: Optional[bytes],
    ) -> Dict[int, Tuple[Any, CellTiming]]:
        """Execute ``pending`` on a spawn pool; partials return in cell order.

        The parent serializes its prepared context once (reusing the
        checkpoint's bytes when one was just written) and every worker
        restores it in its initializer — no context rebuild, no per-cell
        state pickling.  Results are reassembled by index before the merge.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if snapshot_data is None:
            snapshot_data = self._serialize(runner)
        digest = snapshot_digest(snapshot_data)
        executed: Dict[int, Tuple[Any, CellTiming]] = {}
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(snapshot_data, digest),
        ) as pool:
            for index, partial, seconds, restore_seconds in pool.map(
                _worker_run_cell, [cell.index for cell in pending]
            ):
                timing = CellTiming(index, cells[index].key, seconds)
                if restore_seconds:
                    self.worker_restore_seconds.append(restore_seconds)
                if checkpoint is not None:
                    checkpoint.record_cell(timing, partial)
                if self.cell_callback is not None:
                    self.cell_callback(cells[index], partial)
                executed[index] = (partial, timing)
        return executed


"""Deterministic serialized form for prepared scenario contexts.

A scenario run has two phases with very different costs: *preparing* the
shared context (fleet build, trace scaling, reimage schedules — everything
``ScenarioRunner._prepare`` does) and *executing* the grid cells, which are
pure functions of that context plus their recorded child seeds.  A
:class:`ContextSnapshot` captures the prepared phase exactly — the spec, the
runner stream's position (numpy ``bit_generator.state`` included), the
enumerated cell grid, and the context dict of numpy-columned substrates —
in a versioned envelope, so that:

* a **pool worker** deserializes the parent's context instead of rebuilding
  it (``fig14`` workers previously reconstructed every datacenter fleet just
  to run one cell);
* a **long run** can checkpoint completed cells and resume from the last one
  after a crash (:class:`RunCheckpoint`);
* two processes holding the same snapshot are *bit-identical* by
  construction: the restored runner's ``run_cell`` sees the same arrays and
  the same seeds, so fingerprints match the straight-line serial run.

A context holds inputs once; derived products are per process, never
snapshotted.  Whatever a cell can compute from the context without drawing
from a stream — a scaled tenant set, a
:class:`~repro.traces.matrix.TraceMatrix` — is built in the cell's process,
memoized for the cells that share it by
:meth:`ScenarioRunner.derived <repro.harness.runners.ScenarioRunner.derived>`,
whose memo the runner's ``__getstate__`` drops.  Each trace therefore
crosses a process boundary once, however many products the cells derive
from it.

The envelope is ``MAGIC + version + pickle``; the pickle payload carries the
substrates in their canonical array form (each columnar substrate reduces to
``to_arrays()`` via ``__getstate__``).  Snapshots are an execution-transport
format for one code version, not a long-term archival format — the version
byte exists so a stale snapshot fails loudly instead of subtly.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.harness.cells import Cell, CellTiming
from repro.harness.spec import ScenarioSpec
from repro.simulation.random import RandomSource

#: Leading bytes of every serialized snapshot.
SNAPSHOT_MAGIC = b"RPSNAP"

#: Envelope version; bump whenever the payload layout changes shape.
#: Version 2: the availability, scheduling-sweep (and so fleet-improvement),
#: durability and failure-storm contexts hold their trimmed tenants only;
#: scaled sets and trace matrices are derived per process.
SNAPSHOT_VERSION = 2

#: Protocol 4 is supported by every interpreter the repo targets (3.10+)
#: and streams large numpy buffers out-of-band efficiently.
_PICKLE_PROTOCOL = 4


class SnapshotError(ValueError):
    """A snapshot could not be decoded or does not match the run."""


class CheckpointPause(RuntimeError):
    """A run stopped early on purpose after checkpointing its progress.

    Raised by the harness when ``stop_after_cells`` triggers; carries enough
    for the caller to tell the user how to resume.
    """

    def __init__(self, completed: int, total: int, directory: Path) -> None:
        self.completed = int(completed)
        self.total = int(total)
        self.directory = Path(directory)
        super().__init__(
            f"paused after {self.completed}/{self.total} cells; "
            f"resume from checkpoint {self.directory}"
        )


@dataclass
class ContextSnapshot:
    """One prepared scenario context, frozen at the point cells can run.

    Attributes:
        version: envelope version the snapshot was written with.
        kind: scenario kind (selects the runner class on restore).
        spec: the exact spec the context was prepared from.
        seed: the run's effective seed.
        rng_state: the runner stream's position after ``_prepare`` +
            ``_enumerate_cells`` (seed, fork index, ``bit_generator.state``).
        cells: the enumerated grid, child seeds included.
        ctx: the runner's shared context dict, exactly as ``_prepare``
            returned it.
    """

    version: int
    kind: str
    spec: ScenarioSpec
    seed: int
    rng_state: Dict[str, Any]
    cells: List[Cell]
    ctx: Dict[str, Any]


def snapshot_runner(runner: Any) -> ContextSnapshot:
    """Capture a runner's prepared context (forces preparation first)."""
    cells = runner.cells()
    return ContextSnapshot(
        version=SNAPSHOT_VERSION,
        kind=runner.spec.kind,
        spec=runner.spec,
        seed=runner.rng.seed,
        rng_state=runner.rng.state_dict(),
        cells=list(cells),
        ctx=runner.ctx,
    )


def serialize_snapshot(snapshot: ContextSnapshot) -> bytes:
    """The snapshot as a self-describing byte envelope."""
    header = SNAPSHOT_MAGIC + SNAPSHOT_VERSION.to_bytes(2, "big")
    return header + pickle.dumps(snapshot, protocol=_PICKLE_PROTOCOL)


def deserialize_snapshot(data: bytes) -> ContextSnapshot:
    """Decode a byte envelope back into a :class:`ContextSnapshot`."""
    if not data.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError("not a context snapshot (bad magic)")
    offset = len(SNAPSHOT_MAGIC)
    version = int.from_bytes(data[offset : offset + 2], "big")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    snapshot = pickle.loads(data[offset + 2 :])
    if not isinstance(snapshot, ContextSnapshot):
        raise SnapshotError("snapshot payload is not a ContextSnapshot")
    return snapshot


def snapshot_digest(data: bytes) -> str:
    """SHA-256 of the serialized envelope; keys worker-side caches."""
    return hashlib.sha256(data).hexdigest()


def restore_runner(snapshot: ContextSnapshot) -> Any:
    """A runner positioned exactly where the snapshotted one was.

    ``_prepare`` is *not* called: the restored runner serves ``run_cell``
    and ``merge`` straight from the snapshot's context and cells, and its
    stream continues from the captured position — so anything it does next
    is bit-identical to the original runner doing the same thing.
    """
    from repro.harness.runners import RUNNERS

    runner_cls = RUNNERS.get(snapshot.kind)
    if runner_cls is None:
        raise SnapshotError(f"no runner registered for kind {snapshot.kind!r}")
    runner = runner_cls(snapshot.spec, RandomSource.from_state(snapshot.rng_state))
    runner._ctx = snapshot.ctx
    runner._cells = list(snapshot.cells)
    return runner


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so a crash never leaves a torn file behind."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class RunCheckpoint:
    """On-disk progress of one scenario run, at cell granularity.

    Layout under ``directory``::

        context.snap    the serialized ContextSnapshot (written once)
        meta.json       run identity: scenario, kind, seed, snapshot digest,
                        total cell count
        cells/00042.pkl one completed cell: its partial result and timing

    Cell files are written atomically after each cell completes, so a killed
    run leaves exactly its completed prefix; resuming restores the context
    from ``context.snap`` (never rebuilds — bit-identical by construction)
    and executes only the missing cells.
    """

    CONTEXT_NAME = "context.snap"
    META_NAME = "meta.json"
    CELLS_DIR = "cells"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    @property
    def context_path(self) -> Path:
        return self.directory / self.CONTEXT_NAME

    @property
    def meta_path(self) -> Path:
        return self.directory / self.META_NAME

    @property
    def cells_dir(self) -> Path:
        return self.directory / self.CELLS_DIR

    def exists(self) -> bool:
        """Whether a resumable checkpoint is present."""
        return self.context_path.is_file() and self.meta_path.is_file()

    def write_context(self, data: bytes, meta: Dict[str, Any]) -> None:
        """Persist the serialized snapshot and the run's identity."""
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.context_path, data)
        _atomic_write(
            self.meta_path,
            (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )

    def read_meta(self) -> Dict[str, Any]:
        return json.loads(self.meta_path.read_text(encoding="utf-8"))

    def read_context(self) -> Tuple[ContextSnapshot, Dict[str, Any]]:
        """Load and verify the stored snapshot; returns (snapshot, meta)."""
        meta = self.read_meta()
        data = self.context_path.read_bytes()
        expected = meta.get("digest")
        if expected and snapshot_digest(data) != expected:
            raise SnapshotError(
                f"checkpoint {self.directory} snapshot digest mismatch "
                "(torn or tampered context.snap)"
            )
        return deserialize_snapshot(data), meta

    def record_cell(self, timing: CellTiming, partial: Any) -> None:
        """Persist one completed cell atomically."""
        payload = {
            "index": timing.index,
            "key": timing.key,
            "seconds": timing.seconds,
            "partial": partial,
        }
        _atomic_write(
            self.cells_dir / f"{timing.index:05d}.pkl",
            pickle.dumps(payload, protocol=_PICKLE_PROTOCOL),
        )

    def completed_cells(self) -> Dict[int, Tuple[Any, CellTiming]]:
        """All recorded cells, keyed by cell index."""
        completed: Dict[int, Tuple[Any, CellTiming]] = {}
        if not self.cells_dir.is_dir():
            return completed
        for path in sorted(self.cells_dir.glob("*.pkl")):
            payload = pickle.loads(path.read_bytes())
            timing = CellTiming(
                int(payload["index"]), payload["key"], float(payload["seconds"])
            )
            completed[timing.index] = (payload["partial"], timing)
        return completed

"""The uniform result envelope returned by :func:`repro.api.run`.

Every scenario kind used to return one of six unrelated dataclasses that the
CLI, the benchmark emitter, and the diff gate each special-cased.  A
:class:`RunResult` wraps whichever payload a run produced together with the
run's identity (spec snapshot, effective seed), its wall-clock, and the
per-cell timings the executor recorded, and exposes the uniform protocol
every consumer speaks:

* :meth:`to_jsonable` — the exact JSON document ``repro run-scenario
  --json`` prints (deterministic except for ``wall_clock_seconds`` and the
  ``timings`` section);
* :meth:`fingerprint` — a digest of the deterministic part, so "two runs
  produced bit-identical results" is one string comparison regardless of
  kind, worker count, or process;
* :meth:`headline` / :meth:`render` — the payload's own fingerprint summary
  and figure table (see :mod:`repro.harness.results`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.harness.cells import CellTiming
from repro.harness.results import result_telemetry, result_to_jsonable
from repro.harness.spec import ScenarioSpec

#: Top-level keys of :meth:`RunResult.to_jsonable` that may differ between
#: two runs of the same (spec, seed); :meth:`RunResult.fingerprint` digests
#: everything else.
UNFINGERPRINTED_KEYS = ("wall_clock_seconds", "timings", "telemetry")


@dataclass
class RunResult:
    """One executed scenario: identity, payload, and timings.

    Attributes:
        scenario: name of the spec that ran (after any overrides).
        kind: the scenario kind (one of ``SCENARIO_KINDS``).
        seed: the effective seed the run used.
        spec: snapshot of the exact spec that ran.
        payload: the kind-specific result dataclass.
        wall_clock_seconds: end-to-end duration of the run.
        workers: how many worker processes executed the cell grid (1 =
            serial; results are bit-identical either way).
        cell_timings: wall-clock per executed cell, in cell order.
        ctx_seconds: time spent preparing (or restoring) the shared context
            before any cell ran.
        snapshot_seconds: time spent serializing the prepared context (0.0
            when no snapshot was taken — serial, no checkpoint).
        worker_restore_seconds: per-worker time to deserialize the context
            snapshot instead of rebuilding it (empty for serial runs).
        resumed_cells: cells served from a checkpoint instead of executed.
    """

    scenario: str
    kind: str
    seed: int
    spec: ScenarioSpec
    payload: Any
    wall_clock_seconds: float
    workers: int = 1
    cell_timings: List[CellTiming] = field(default_factory=list)
    ctx_seconds: float = 0.0
    snapshot_seconds: float = 0.0
    worker_restore_seconds: List[float] = field(default_factory=list)
    resumed_cells: int = 0

    def to_jsonable(self) -> Dict[str, Any]:
        """The run as JSON-safe data — the ``--json`` document.

        The document must be identical for a serial and a parallel run of
        the same (spec, seed), so everything in it is deterministic except
        ``wall_clock_seconds`` and the ``timings`` section, which splits the
        run's cost into context preparation (``ctx_seconds``) versus cell
        execution (``cell_seconds``) and records the snapshot economics
        (serialize once, restore per worker).

        The ``telemetry`` section holds the payload's non-fingerprinted
        fields (see :func:`~repro.harness.results.result_telemetry`),
        nested as in ``result``: the scheduler hot-path counters
        (``waves_coalesced``) of sweep points and
        testbed-style variants, and the streaming-fold peaks of continuous
        variants.  It is deterministic, but like the timings it stays
        outside :meth:`fingerprint`.
        """
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "wall_clock_seconds": self.wall_clock_seconds,
            "timings": {
                "ctx_seconds": self.ctx_seconds,
                "cell_seconds": {
                    timing.key: timing.seconds for timing in self.cell_timings
                },
                "snapshot_seconds": self.snapshot_seconds,
                "worker_restore_seconds": list(self.worker_restore_seconds),
                "resumed_cells": self.resumed_cells,
            },
            "result": result_to_jsonable(self.payload),
            "telemetry": result_telemetry(self.payload),
        }

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic part of :meth:`to_jsonable`.

        Two runs of the same (spec, seed) — serial, ``workers=4``, another
        machine — must produce the same fingerprint; any drift means the
        simulation itself diverged.  For ``continuous`` runs the digested
        document embeds the full per-variant epoch stream, so the
        fingerprint certifies every window of the horizon, not just a
        terminal summary.  Everything but :data:`UNFINGERPRINTED_KEYS`
        (``wall_clock_seconds``, ``timings`` and ``telemetry``) is digested.
        """
        data = self.to_jsonable()
        for key in UNFINGERPRINTED_KEYS:
            data.pop(key)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def headline(self) -> Any:
        """The payload's fingerprint-relevant summary (kind-defined)."""
        return self.payload.headline()

    def render(self) -> str:
        """The payload's figure table (kind-defined); ``repr`` fallback."""
        render = getattr(self.payload, "render", None)
        if callable(render):
            return render()
        return repr(self.payload)

    def cell_seconds(self) -> Dict[str, float]:
        """Per-cell wall-clock keyed by cell label."""
        return {timing.key: timing.seconds for timing in self.cell_timings}

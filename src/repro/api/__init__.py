"""``repro.api`` — the programmatic experiment surface.

The paper's evaluation is a grid of independent experiment cells; this
package names that structure and makes it drivable from Python without
touching the CLI:

* :func:`run` executes any scenario — registered name or explicit
  :class:`~repro.harness.spec.ScenarioSpec` — serially or across a process
  pool (``workers=N``), and returns a uniform :class:`RunResult` envelope
  whose payload, telemetry, and :meth:`~RunResult.fingerprint` are
  bit-identical regardless of worker count;
* :func:`sweep` manufactures derived specs over a ``{field: values}``
  cross-product, so user-defined scenario grids need no new runner code;
* :func:`run_sweep` executes such a grid and returns one envelope per spec;
* :func:`run_continuous` runs a ``continuous`` scenario — live traffic from
  an arrival process (:func:`~repro.harness.traffic.parse_traffic` specs)
  for a horizon of fixed epochs — and returns a :class:`RunResult` whose
  payload is a :class:`~repro.harness.results.ContinuousResult`: one
  windowed :class:`~repro.harness.results.EpochMetrics` stream per
  scheduler variant, covered by :meth:`~RunResult.fingerprint`.

Cookbook::

    import repro.api as api

    # One figure, four worker processes, bit-identical to serial:
    result = api.run("fig13-dc9-sweep", workers=4)
    print(result.render())
    print(result.fingerprint())

    # A derived grid: 2 datacenters x 3 seeds = 6 independent specs.
    specs = api.sweep(
        "fig15-durability",
        {"datacenter": ["DC-3", "DC-9"], "seed": [0, 1, 2]},
        overrides={"scale": "tiny"},
    )
    results = api.run_sweep(specs, workers=2)

    # Live traffic: open-loop diurnal arrivals, 12 five-minute epochs.
    live = api.run_continuous(
        "continuous-open",
        traffic="open:rate=0.005,profile=diurnal,period=7200",
        epochs=12,
        epoch_seconds=300.0,
        overrides={"scale": "tiny"},
    )
    for epoch in live.payload.variant("YARN-H").epochs:
        print(epoch.index, epoch.p99_primary_ms, epoch.queue_depth)

New scenario kinds plug in by registering a
:class:`~repro.harness.runners.ScenarioRunner` subclass that declares its
cell grid; every ``repro.api`` entry point, the CLI, and the benchmark
tooling pick it up without modification.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.api.result import RunResult
from repro.harness.cells import Cell, CellTiming
from repro.harness.config import (
    BENCH_SCALE,
    QUICK_SCALE,
    TESTBED_SCALE,
    TINY_SCALE,
)
from repro.harness.harness import ExperimentHarness, cells_from_spec
from repro.harness.results import ContinuousResult, EpochMetrics
from repro.harness.spec import (
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.harness.traffic import (
    ClosedLoopDriver,
    OpenLoopDriver,
    RateSchedule,
    TrafficDriver,
    parse_traffic,
)

__all__ = [
    "Cell",
    "CellTiming",
    "ClosedLoopDriver",
    "ContinuousResult",
    "EpochMetrics",
    "NAMED_SCALES",
    "OpenLoopDriver",
    "RateSchedule",
    "RunResult",
    "ScenarioSpec",
    "TrafficDriver",
    "cells_from_spec",
    "get_scenario",
    "iter_scenarios",
    "parse_traffic",
    "register_scenario",
    "run",
    "run_continuous",
    "run_sweep",
    "scenario_names",
    "sweep",
]

#: Scale presets addressable by name in ``overrides={"scale": "tiny"}``.
NAMED_SCALES = {
    "tiny": TINY_SCALE,
    "quick": QUICK_SCALE,
    "bench": BENCH_SCALE,
    "testbed": TESTBED_SCALE,
}

#: ScenarioSpec field names (``sweep``/``resolve`` route everything else
#: into ``params``).
_SPEC_FIELDS = {f.name for f in dataclass_fields(ScenarioSpec)}


def resolve(
    scenario: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, Any]] = None,
) -> ScenarioSpec:
    """A concrete spec from a registered name or explicit spec + overrides.

    Spec fields are replaced directly (``scale`` additionally accepts the
    preset names in :data:`NAMED_SCALES`); unknown keys land in the spec's
    ``params`` dict, so kind-specific knobs need no special casing.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if not overrides:
        return spec
    changes: Dict[str, Any] = {}
    params = dict(spec.params)
    for key, value in overrides.items():
        if key == "scale" and isinstance(value, str):
            try:
                value = NAMED_SCALES[value]
            except KeyError:
                raise ValueError(
                    f"unknown scale preset {value!r}; expected one of "
                    f"{', '.join(sorted(NAMED_SCALES))}"
                ) from None
        if key in _SPEC_FIELDS and key != "params":
            changes[key] = value
        elif key == "params":
            params.update(value)
        else:
            params[key] = value
    return spec.with_overrides(params=params, **changes)


def run(
    scenario: Union[str, ScenarioSpec],
    *,
    overrides: Optional[Mapping[str, Any]] = None,
    workers: int = 1,
    seed: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    stop_after_cells: Optional[int] = None,
    runner_setup: Optional[Any] = None,
    cell_callback: Optional[Any] = None,
) -> RunResult:
    """Execute one scenario and return its :class:`RunResult` envelope.

    The envelope's ``payload`` — the kind's result dataclass — is the run's
    only record: every number the figure plots, plus the non-fingerprinted
    fields that :meth:`RunResult.to_jsonable` lists under ``telemetry``.

    Args:
        scenario: a registered scenario name or an explicit spec.
        overrides: spec-field (or params) replacements applied first.
        workers: worker processes for the cell grid (``>= 1``, else
            ``ValueError``); ``1`` runs serially.  Any count yields
            bit-identical results — parallel partials are reassembled in
            deterministic cell order.
        seed: run-time seed override (defaults to the spec's seed).
        checkpoint: directory to record run progress in (the serialized
            context snapshot plus one file per completed cell).
        resume: restore the context and completed cells from ``checkpoint``
            instead of rebuilding; the merged result is bit-identical to a
            straight-line run.  A missing checkpoint falls back to a fresh
            run that writes one.
        stop_after_cells: deliberately pause (raising
            :class:`~repro.harness.snapshot.CheckpointPause`) after this
            many cells have executed; requires ``checkpoint``.
        runner_setup: ``runner_setup(runner)`` hook, called once after the
            scenario runner is built or restored — for attaching live,
            non-snapshot state (e.g. the continuous kind's ``on_epoch``).
        cell_callback: ``cell_callback(cell, partial)`` observer, invoked
            for every completed cell as its result reaches the parent
            (resumed, serial, and pool cells alike).
    """
    spec = resolve(scenario, overrides)
    harness = ExperimentHarness(
        spec,
        seed=seed,
        workers=workers,
        checkpoint_dir=checkpoint,
        resume=resume,
        stop_after_cells=stop_after_cells,
        runner_setup=runner_setup,
        cell_callback=cell_callback,
    )
    started = time.perf_counter()
    payload = harness.run()
    elapsed = time.perf_counter() - started
    return RunResult(
        scenario=spec.name,
        kind=spec.kind,
        seed=harness.seed,
        spec=spec,
        payload=payload,
        wall_clock_seconds=elapsed,
        workers=harness.workers,
        cell_timings=list(harness.cell_timings),
        ctx_seconds=harness.ctx_seconds,
        snapshot_seconds=harness.snapshot_seconds,
        worker_restore_seconds=list(harness.worker_restore_seconds),
        resumed_cells=harness.resumed_cells,
    )


def run_continuous(
    scenario: Union[str, ScenarioSpec] = "continuous-open",
    *,
    traffic: Optional[str] = None,
    epochs: Optional[int] = None,
    epoch_seconds: Optional[float] = None,
    max_sim_seconds: Optional[float] = None,
    on_epoch: Optional[Any] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    **run_kwargs: Any,
) -> RunResult:
    """Run a ``continuous`` scenario under an arrival-process driver.

    A convenience wrapper over :func:`run` that surfaces the continuous
    kind's params as keyword arguments:

    Args:
        scenario: a ``continuous``-kind scenario name or spec (the built-in
            registrations are ``continuous-open`` and ``continuous-closed``).
        traffic: arrival-process spec string — e.g.
            ``"open:rate=0.005,profile=diurnal"`` or
            ``"closed:users=4,think=300"`` — parsed by
            :func:`repro.harness.traffic.parse_traffic`; ``None`` keeps the
            scenario's registered process.
        epochs: number of metric windows to simulate (the horizon is
            ``epochs * epoch_seconds``), or ``0`` to run forever: windows
            stream unbounded until ``max_sim_seconds``.
        epoch_seconds: length of one metric window, in simulated seconds.
        max_sim_seconds: the run-forever horizon in simulated seconds
            (required with, and only valid with, ``epochs=0``).
        on_epoch: ``on_epoch(variant, metrics)`` callback receiving each
            finalized :class:`~repro.harness.results.EpochMetrics` exactly
            once, in index order per variant.  A serial in-process run
            streams epochs the moment their window closes; pool workers and
            resumed checkpoints deliver at cell granularity (each variant's
            stream replays, deduplicated, when its cell result reaches the
            parent).
        overrides: further spec overrides, as for :func:`run`.
        **run_kwargs: forwarded to :func:`run` (``workers``, ``seed``,
            ``checkpoint``, ...).

    Returns:
        A :class:`RunResult` whose payload is a
        :class:`~repro.harness.results.ContinuousResult` — the per-variant
        epoch stream, fully covered by :meth:`RunResult.fingerprint`.
    """
    merged: Dict[str, Any] = dict(overrides or {})
    if traffic is not None:
        merged["traffic"] = traffic
    if epochs is not None:
        merged["epochs"] = epochs
    if epoch_seconds is not None:
        merged["epoch_seconds"] = epoch_seconds
    if max_sim_seconds is not None:
        merged["max_sim_seconds"] = max_sim_seconds
    if on_epoch is None:
        return run(scenario, overrides=merged or None, **run_kwargs)

    # Exactly-once emission regardless of executor: a live serial runner
    # streams per epoch (runner_setup attaches the hook), while pool or
    # resumed cells arrive whole and replay only their unseen epochs.
    seen: set = set()

    def _emit(variant: str, metrics: EpochMetrics) -> None:
        key = (variant, metrics.index)
        if key in seen:
            return
        seen.add(key)
        on_epoch(variant, metrics)

    def _setup(runner: Any) -> None:
        runner.on_epoch = _emit

    def _observe(cell: Any, partial: Any) -> None:
        for metrics in partial.epochs:
            _emit(partial.variant, metrics)

    return run(
        scenario,
        overrides=merged or None,
        runner_setup=_setup,
        cell_callback=_observe,
        **run_kwargs,
    )


def _format_value(value: Any) -> str:
    """A short, stable rendering of one grid value for derived spec names."""
    if hasattr(value, "value"):  # enums render as their payload
        value = value.value
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def sweep(
    scenario: Union[str, ScenarioSpec],
    grid: Mapping[str, Sequence[Any]],
    *,
    overrides: Optional[Mapping[str, Any]] = None,
) -> List[ScenarioSpec]:
    """Derived specs over the cross-product of ``grid``.

    ``grid`` maps field names to the values to sweep; fields combine in
    insertion order (the last field varies fastest, like nested loops).
    Keys that are not ``ScenarioSpec`` fields go into ``params``, so
    kind-specific knobs (``accesses_per_point``, burst rates, ...) sweep the
    same way first-class fields do.  Each derived spec gets a unique
    ``base[key=value,...]`` name, making the family registrable and the
    provenance of every result self-describing.
    """
    base = resolve(scenario, overrides)
    if not grid:
        return [base]
    for key in grid:
        if key in ("name", "kind", "params"):
            raise ValueError(f"cannot sweep over the {key!r} field")
    specs: List[ScenarioSpec] = []
    keys = list(grid)
    for combo in itertools.product(*(grid[key] for key in keys)):
        assignment = dict(zip(keys, combo))
        label = ",".join(f"{k}={_format_value(v)}" for k, v in assignment.items())
        derived = resolve(base, assignment)
        specs.append(derived.with_overrides(name=f"{base.name}[{label}]"))
    return specs


def run_sweep(
    specs: Iterable[Union[str, ScenarioSpec]],
    *,
    workers: int = 1,
    seed: Optional[int] = None,
) -> List[RunResult]:
    """Execute a list of specs (e.g. from :func:`sweep`), one envelope each.

    ``workers`` applies to each run's cell grid in turn; the runs themselves
    execute sequentially so their envelopes line up with ``specs``.
    """
    return [run(spec, workers=workers, seed=seed) for spec in specs]

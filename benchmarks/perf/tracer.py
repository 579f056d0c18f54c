"""Outside-in tracing of the ``src/repro`` layers for the per-layer metrics.

Nothing under ``src/`` is edited: :func:`instrumented` replaces each layer's
public entry points with a timing wrapper, on the class or module attribute
where callers look them up, and puts the originals back on exit.  Every
wrapped call is a span with a name and a parent (the span open when it
started).  Spans are aggregated in memory per ``(name, parent name)`` as
call count, inclusive seconds and self seconds (inclusive minus the spans
directly inside it); raw spans are kept only for the harness level (run,
prepare, cell, merge).  Counts that need a call's arguments or result --
containers killed, requests granted, replicas restored -- are taken by an
observer on the same wrapper, so every number comes from outside the
program and none from its own counters.

Self times include the tracer's own bookkeeping for the spans directly
inside them, which is why the per-layer numbers come from a separate traced
run and the end-to-end numbers from untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span names whose individual spans are kept (cell level and above).
RAW_SPANS = frozenset(
    {"harness.run", "harness.prepare", "harness.cell", "harness.merge"}
)

#: Engine event kinds reported one by one; any other kind is "other".
EVENT_KINDS = (
    "finish",
    "arrival",
    "heartbeats",
    "pump",
    "epoch",
    "storm-reimage",
    "re-replication",
    "top-up",
)
_KIND_SET = frozenset(EVENT_KINDS)

Observer = Callable[["Tracer", tuple, Any], None]


def event_kind(name: str) -> str:
    """An event's kind: its name with the per-instance id suffix stripped."""
    if name in _KIND_SET:
        return name
    prefix = name.split("-", 1)[0]
    return prefix if prefix in _KIND_SET else "other"


class Tracer:
    """Span recorder: a stack of open spans plus the per-(name, parent)
    aggregates and harness-level raw spans they fold into."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        #: ``(name, parent name) -> [calls, inclusive s, self s]``.  The
        #: inclusive time of a span nested in a span of the same name is not
        #: added again, so a name's inclusive total never double counts.
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        #: Objects observed inside the current cell, by kind then ``id``;
        #: read and dropped when the cell ends.
        self.seen: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self.spans: List[Dict[str, Any]] = []
        #: Self seconds of every span nested (at any depth) inside a cell.
        self.cell_nested_self_s = 0.0
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> list:
        """Open a span; returns the frame :meth:`end` closes."""
        raw = None
        if name in RAW_SPANS:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            raw = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "run": self.run_id})
        self._depth[name] += 1
        frame = [name, 0.0, 0.0, raw]  # name, start, child seconds, raw index
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def end(self, frame: list) -> None:
        """Close the innermost span, folding it into the aggregates."""
        finished = time.perf_counter()
        name, started, child_s, raw = frame
        elapsed = finished - started
        self._stack.pop()
        self._depth[name] -= 1
        parent = self._stack[-1] if self._stack else None
        key = (name, parent[0] if parent is not None else "")
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        if not self._depth[name]:
            entry[1] += elapsed
        entry[2] += elapsed - child_s
        if parent is not None:
            parent[2] += elapsed
        if self._depth["harness.cell"] and name != "harness.cell":
            self.cell_nested_self_s += elapsed - child_s
        if raw is not None:
            self.spans[raw].update(start=started, end=finished)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a ``with`` block."""
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` recording a span per call (and feeding ``observe``)."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- aggregate queries ---------------------------------------------------

    def calls(self, name: str) -> int:
        return int(sum(e[0] for (n, _), e in self.stats.items() if n == name))

    def inclusive(self, name: str) -> float:
        return sum(e[1] for (n, _), e in self.stats.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(e[2] for (n, _), e in self.stats.items() if n == name)

    def to_jsonable(self) -> Dict[str, Any]:
        """The raw trace: aggregates, harness-level spans, counts."""
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": e[0], "s": e[1], "self_s": e[2]}
                for (n, p), e in sorted(self.stats.items())
            ],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


# -- observers ---------------------------------------------------------------


def _engine(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.seen["engines"][id(args[0])] = args[0]


def _heartbeats(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["cluster.heartbeats.kills"] += len(result)


def _placed(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["cluster.place.requests"] += len(result)
    tracer.counts["cluster.place.granted"] += sum(c is not None for c in result)


def _replicated(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.replicate.restored"] += result
    tracer.counts["storage.replicate.idle"] += result == 0
    tracer.seen["namenodes"][id(args[0])] = args[0]


def _reimaged(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.reimage.lost"] += len(result)
    tracer.seen["namenodes"][id(args[0])] = args[0]


def _created(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.create.blocks"] += sum(b is not None for b in result)
    tracer.seen["namenodes"][id(args[0])] = args[0]


def _checked(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.read.accesses"] += len(result)
    tracer.counts["storage.read.served"] += int((result == 0).sum())
    tracer.seen["namenodes"][id(args[0])] = args[0]


def _accessed(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.read.accesses"] += result.served + result.failed + result.lost
    tracer.counts["storage.read.served"] += result.served
    tracer.seen["namenodes"][id(args[0])] = args[0]


def _collect(tracer: Tracer, *_: Any) -> None:
    """Read the engines and NameNodes a cell used, then let them go."""
    for engine in tracer.seen.pop("engines", {}).values():
        tracer.counts["simulation.events"] += engine.processed_events
    for namenode in tracer.seen.pop("namenodes", {}).values():
        slots = namenode.block_table.slots_used
        tracer.counts["storage.blocktable.slots"] += int(slots.sum())
        tracer.counts["storage.blocktable.rows"] += len(slots)


# -- the probe table ---------------------------------------------------------

#: ``(module, owner, attribute, span name, observer)``; ``owner`` is a class
#: name in ``module``, or ``None`` for a module-level function.
PROBES: Tuple[Tuple[str, Optional[str], str, str, Optional[Observer]], ...] = (
    ("repro.simulation.engine", "SimulationEngine", "run", "simulation.loop", _engine),
    ("repro.simulation.engine", "SimulationEngine", "run_until", "simulation.loop", _engine),
    ("repro.cluster.resource_manager", "ResourceManager", "process_heartbeats",
     "cluster.heartbeats", _heartbeats),
    ("repro.cluster.fleet_state", "FleetState", "refresh", "cluster.fleet_refresh", None),
    ("repro.cluster.resource_manager", "WaveBatch", "schedule", "cluster.place", _placed),
    ("repro.cluster.resource_manager", "ResourceManager", "complete", "cluster.complete", None),
    ("repro.cluster.resource_manager", "ResourceManager", "class_statistics",
     "cluster.class_stats", None),
    ("repro.jobs.app_master", "ApplicationMaster", "pump_all", "jobs.pump", None),
    ("repro.jobs.app_master", "ApplicationMaster", "submit", "jobs.submit", None),
    ("repro.jobs.task_table", "TaskTable", "runnable_views", "jobs.frontier", None),
    ("repro.core.class_selection", "ClassSelector", "select", "core.class_select", None),
    ("repro.core.placement", "ReplicaPlacer", "place_block_indices",
     "core.replica_place", None),
    ("repro.storage.namenode", "NameNode", "run_replication", "storage.replicate", _replicated),
    ("repro.storage.namenode", "NameNode", "handle_reimage", "storage.reimage", _reimaged),
    ("repro.storage.namenode", "NameNode", "create_blocks", "storage.create", _created),
    ("repro.storage.namenode", "NameNode", "check_accesses", "storage.read", _checked),
    ("repro.storage.namenode", "NameNode", "access_blocks", "storage.read", _accessed),
    ("repro.storage.block_table", "BlockTable", "add_replica", "storage.blocktable.add", None),
    ("repro.storage.block_table", "BlockTable", "destroy_replica",
     "storage.blocktable.destroy", None),
    ("repro.traces.matrix", "TraceMatrix", "__init__", "traces.matrix_build", None),
    ("repro.traces.matrix", "TraceMatrix", "utilization", "traces.query", None),
    ("repro.traces.matrix", "TraceMatrix", "utilization_rows", "traces.query", None),
    ("repro.traces.matrix", "TraceMatrix", "busy_mask", "traces.query", None),
    ("repro.services.latency_model", "LatencyModel", "p99_latency_ms_array",
     "services.latency", None),
    ("repro.harness.streaming", "StreamingEpochAggregator", "boundary", "harness.fold", None),
    # Module-level functions are imported by name into the runner modules,
    # so those are where callers look them up.
    ("repro.harness.runners", None, "build_namenode", "storage.build", None),
    ("repro.harness.workload_runners", None, "build_namenode", "storage.build", None),
) + tuple(
    ("repro.harness.workload_runners", None, fn, "workload.plan", None)
    for fn in (
        "plan_job_arrivals",
        "plan_storm_reimages",
        "plan_spikes",
        "plan_server_classes",
        "plan_tenant_arrivals",
    )
)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Install every probe for the ``with`` block, then restore the originals.

    A probe whose target no longer exists is skipped with a warning on
    stderr, so a refactor of ``src/`` leaves its metrics at zero instead of
    breaking the benchmark.
    """
    from repro.harness.runners import RUNNERS
    from repro.simulation.engine import SimulationEngine

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str, observe: Optional[Observer]) -> None:
        original = vars(owner).get(attr)
        if original is None:
            print(f"tracer: no {owner.__name__}.{attr}; {name} not traced", file=sys.stderr)
            return
        patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(tracer.wrap(name, original, observe)))

    for module_name, owner_name, attr, name, observe in PROBES:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None:
            print(f"tracer: no {module_name}.{owner_name}; {name} not traced",
                  file=sys.stderr)
            continue
        patch(owner, attr, name, observe)
    for runner in RUNNERS.values():
        for attr, name, observe in (
            ("_prepare", "harness.prepare", None),
            ("run_cell", "harness.cell", _collect),
            ("merge", "harness.merge", None),
        ):
            if attr in vars(runner):
                patch(runner, attr, name, observe)

    # Every event callback runs inside a span named for its event kind.
    schedule_at = SimulationEngine.schedule_at
    kind_names = {kind: f"simulation.kind.{kind}" for kind in EVENT_KINDS + ("other",)}

    def traced_schedule_at(self, time, callback, *, priority=0, name=""):
        span_name = kind_names[event_kind(name)]
        return schedule_at(
            self, time, tracer.wrap(span_name, callback), priority=priority, name=name
        )

    patches.append((SimulationEngine, "schedule_at", schedule_at))
    SimulationEngine.schedule_at = functools.wraps(schedule_at)(traced_schedule_at)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        _collect(tracer)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics one traced run yields (harness timings from
    the run's result and the untraced rounds are added by the caller)."""
    t, counts = tracer, tracer.counts
    metrics: Dict[str, float] = {}

    def timed(prefix: str, span: str, *, self_s: bool = False) -> None:
        metrics[f"{prefix}.calls"] = t.calls(span)
        metrics[f"{prefix}.s"] = t.inclusive(span)
        if self_s:
            metrics[f"{prefix}.self_s"] = t.self_time(span)

    events = counts["simulation.events"]
    metrics["simulation.events"] = events
    metrics["simulation.loop_s"] = t.inclusive("simulation.loop")
    metrics["simulation.self_s"] = t.self_time("simulation.loop")
    metrics["simulation.dispatch_us_per_event"] = 1e6 * _ratio(
        metrics["simulation.self_s"], events
    )
    for kind in EVENT_KINDS:
        timed(f"simulation.kind.{kind}", f"simulation.kind.{kind}")

    timed("cluster.heartbeats", "cluster.heartbeats")
    metrics["cluster.heartbeats.kills"] = counts["cluster.heartbeats.kills"]
    metrics["cluster.fleet_refresh.s"] = t.inclusive("cluster.fleet_refresh")
    timed("cluster.place", "cluster.place")
    metrics["cluster.place.requests"] = counts["cluster.place.requests"]
    metrics["cluster.place.grant_ratio"] = _ratio(
        counts["cluster.place.granted"], counts["cluster.place.requests"]
    )
    timed("cluster.complete", "cluster.complete")
    timed("cluster.class_stats", "cluster.class_stats")

    timed("jobs.pump", "jobs.pump", self_s=True)
    timed("jobs.submit", "jobs.submit")
    timed("jobs.frontier", "jobs.frontier")

    timed("core.class_select", "core.class_select")
    timed("core.replica_place", "core.replica_place")

    timed("storage.build", "storage.build")
    timed("storage.replicate", "storage.replicate", self_s=True)
    metrics["storage.replicate.restored"] = counts["storage.replicate.restored"]
    metrics["storage.replicate.idle_ratio"] = _ratio(
        counts["storage.replicate.idle"], t.calls("storage.replicate")
    )
    timed("storage.reimage", "storage.reimage")
    metrics["storage.reimage.lost"] = counts["storage.reimage.lost"]
    timed("storage.blocktable.add", "storage.blocktable.add")
    timed("storage.blocktable.destroy", "storage.blocktable.destroy")
    metrics["storage.blocktable.slots_per_row"] = _ratio(
        counts["storage.blocktable.slots"], counts["storage.blocktable.rows"]
    )
    timed("storage.create", "storage.create", self_s=True)
    metrics["storage.create.blocks"] = counts["storage.create.blocks"]
    timed("storage.read", "storage.read")
    metrics["storage.read.accesses"] = counts["storage.read.accesses"]
    metrics["storage.read.served_ratio"] = _ratio(
        counts["storage.read.served"], counts["storage.read.accesses"]
    )

    timed("traces.matrix_build", "traces.matrix_build")
    timed("traces.query", "traces.query")
    timed("services.latency", "services.latency")
    timed("workload.plan", "workload.plan")
    timed("harness.fold", "harness.fold")

    cell_s = t.inclusive("harness.cell")
    metrics["harness.unattributed_frac"] = _ratio(t.self_time("harness.cell"), cell_s)
    return metrics


def attribution_residual(tracer: Tracer) -> float:
    """``|nested self + cell self - cell time| / cell time``: how far the
    span self times plus the unattributed time miss the traced cell time."""
    cell_s = tracer.inclusive("harness.cell")
    parts = tracer.cell_nested_self_s + tracer.self_time("harness.cell")
    return _ratio(abs(parts - cell_s), cell_s)

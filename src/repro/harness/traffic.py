"""Arrival-process traffic drivers for the ``continuous`` scenario kind.

The figure scenarios run a pre-materialized workload to completion and emit
one terminal payload.  Continuous mode instead models *live traffic*: a
:class:`TrafficDriver` feeds jobs into a running
:class:`~repro.jobs.scheduler_variants.HarvestingCluster` as an event
stream, the engine runs for a configured horizon of fixed-length epochs,
and an :class:`EpochRecorder` snapshots cumulative counters at every epoch
boundary so the runner can emit *windowed* metrics per epoch.

Two arrival processes are provided:

* :class:`OpenLoopDriver` — rate-scheduled Poisson arrivals.  The rate is a
  :class:`RateSchedule`: constant, a one-time step, or a diurnal profile
  (a piecewise-constant day curve that repeats over the horizon).  Arrival
  times come from :meth:`RandomSource.poisson_process` segment by segment,
  so the stream is bit-identical to drawing scalar exponential gaps.
* :class:`ClosedLoopDriver` — N concurrent users.  Each user submits a job,
  waits for it to finish, thinks for an exponential think time, and submits
  the next one.  Every user owns a forked child stream, so the draw order
  is fixed per user regardless of how completions interleave.

Determinism: a driver consumes randomness only from the ``RandomSource``
handed to :meth:`TrafficDriver.attach` (the cell's recorded traffic seed),
forking child streams in a fixed label order.  A continuous cell therefore
computes the same epoch stream in any process — serial and ``--workers N``
runs are bit-identical by construction.

Traffic specs are parsed from compact CLI strings::

    open:rate=0.005
    open:rate=0.005,profile=step,step_at=1800,step_rate=0.01
    open:rate=0.005,profile=diurnal,period=7200,amplitude=0.5,slots=24
    closed:users=4,think=300
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.simulation.random import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.streaming import StreamingEpochAggregator
    from repro.jobs.scheduler_variants import HarvestingCluster
    from repro.jobs.tpcds import TpcdsWorkloadFactory

#: Epoch-boundary snapshots run after every same-time simulation event
#: (heartbeats, pumps, arrivals all schedule at priority <= 1), so a window
#: closing at time T includes everything that happened *at* T.
EPOCH_BOUNDARY_PRIORITY = 100


# ---------------------------------------------------------------------------
# Rate schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateSegment:
    """One piecewise-constant span of an arrival-rate schedule."""

    start: float
    end: float
    rate_per_second: float


class RateSchedule:
    """A piecewise-constant arrival rate over simulated time.

    The schedule is a sorted list of ``(offset, rate)`` breakpoints covering
    one period.  Aperiodic schedules (constant, step) use ``period=None``
    and their last breakpoint extends forever; periodic schedules (diurnal)
    repeat their breakpoint pattern every ``period`` seconds.
    """

    def __init__(
        self,
        breakpoints: List[Tuple[float, float]],
        period: Optional[float] = None,
        label: str = "custom",
    ) -> None:
        if not breakpoints:
            raise ValueError("a rate schedule needs at least one breakpoint")
        if breakpoints[0][0] != 0.0:
            raise ValueError("the first breakpoint must start at offset 0")
        offsets = [offset for offset, _ in breakpoints]
        if offsets != sorted(offsets) or len(set(offsets)) != len(offsets):
            raise ValueError("breakpoint offsets must be strictly increasing")
        for _, rate in breakpoints:
            if rate < 0:
                raise ValueError("arrival rates must be non-negative")
        if period is not None and period <= breakpoints[-1][0]:
            raise ValueError("period must exceed the last breakpoint offset")
        self._breakpoints = [(float(o), float(r)) for o, r in breakpoints]
        self.period = float(period) if period is not None else None
        self.label = label

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, rate_per_second: float) -> "RateSchedule":
        """A flat arrival rate."""
        return cls([(0.0, rate_per_second)], label="constant")

    @classmethod
    def step(
        cls, rate_per_second: float, step_at: float, step_rate: float
    ) -> "RateSchedule":
        """A one-time rate change at ``step_at`` seconds."""
        if step_at <= 0:
            raise ValueError("step_at must be positive")
        return cls(
            [(0.0, rate_per_second), (float(step_at), step_rate)], label="step"
        )

    @classmethod
    def diurnal(
        cls,
        rate_per_second: float,
        amplitude: float = 0.5,
        period_seconds: float = 86400.0,
        slots: int = 24,
    ) -> "RateSchedule":
        """A repeating day curve: ``rate * (1 + amplitude * sin(...))``.

        The sinusoid is discretized into ``slots`` equal piecewise-constant
        spans per period (each slot takes the curve's value at its
        midpoint), because piecewise-constant rates compose exactly with
        per-segment homogeneous Poisson draws.  Rates clip at zero when
        ``amplitude > 1``.
        """
        if not 0 <= amplitude:
            raise ValueError("amplitude must be non-negative")
        if period_seconds <= 0 or slots <= 0:
            raise ValueError("period_seconds and slots must be positive")
        width = period_seconds / slots
        breakpoints = []
        for slot in range(slots):
            midpoint = (slot + 0.5) / slots
            rate = rate_per_second * (
                1.0 + amplitude * math.sin(2.0 * math.pi * midpoint)
            )
            breakpoints.append((slot * width, max(0.0, rate)))
        return cls(breakpoints, period=period_seconds, label="diurnal")

    # -- queries ------------------------------------------------------------

    def rate_at(self, time: float) -> float:
        """The instantaneous arrival rate at ``time``."""
        if time < 0:
            raise ValueError("time must be non-negative")
        offset = time % self.period if self.period is not None else time
        rate = self._breakpoints[0][1]
        for start, segment_rate in self._breakpoints:
            if offset >= start:
                rate = segment_rate
            else:
                break
        return rate

    def segments(self, horizon: float) -> List[RateSegment]:
        """The schedule unrolled over ``[0, horizon)`` as closed segments.

        Periodic schedules replicate their breakpoint pattern period by
        period; the final segment is clipped at ``horizon``.  Segment edges
        land exactly on the configured offsets, so a step placed on an epoch
        boundary splits the arrival draws precisely there.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        edges: List[Tuple[float, float]] = []
        if self.period is None:
            edges = list(self._breakpoints)
        else:
            repeats = int(math.ceil(horizon / self.period))
            for repeat in range(repeats):
                base = repeat * self.period
                edges.extend(
                    (base + offset, rate) for offset, rate in self._breakpoints
                )
        segments: List[RateSegment] = []
        for i, (start, rate) in enumerate(edges):
            if start >= horizon:
                break
            end = edges[i + 1][0] if i + 1 < len(edges) else horizon
            end = min(end, horizon)
            if end > start:
                segments.append(RateSegment(start, end, rate))
        return segments

    def arrival_times(self, horizon: float, rng: RandomSource) -> List[float]:
        """Poisson arrival times over ``[0, horizon)`` under the schedule.

        Each piecewise-constant segment draws a homogeneous process via
        :meth:`RandomSource.poisson_process` and offsets it by the segment
        start — the piecewise composition of an inhomogeneous process.  The
        draws (and the stream position after them) are bit-identical to a
        scalar loop drawing one exponential gap at a time per segment.
        """
        times: List[float] = []
        for segment in self.segments(horizon):
            duration = segment.end - segment.start
            times.extend(
                segment.start + t
                for t in rng.poisson_process(segment.rate_per_second, duration)
            )
        return times

    def describe(self) -> str:
        """A short human/fingerprint-stable label for the schedule."""
        base = self._breakpoints[0][1]
        if self.period is None:
            if len(self._breakpoints) == 1:
                return f"{self.label}(rate={base:g})"
            steps = ",".join(
                f"{offset:g}s->{rate:g}" for offset, rate in self._breakpoints[1:]
            )
            return f"{self.label}(rate={base:g},{steps})"
        return (
            f"{self.label}(rate~{base:g},period={self.period:g},"
            f"slots={len(self._breakpoints)})"
        )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


class TrafficDriver:
    """Base class: one arrival process feeding a harvesting cluster.

    Subclasses implement :meth:`attach`, which wires the process onto the
    cluster's engine *before* the run starts, drawing randomness only from
    the ``rng`` it is handed.  During the run the driver maintains
    ``jobs_submitted`` (cumulative) and ``submitted_log`` (``(time, job
    name)`` per submission, in submission order), which the epoch recorder
    and the determinism tests read.
    """

    kind: str = ""

    def __init__(self) -> None:
        self.jobs_submitted = 0
        self.submitted_log: List[Tuple[float, str]] = []

    def attach(
        self,
        cluster: "HarvestingCluster",
        factory: "TpcdsWorkloadFactory",
        horizon: float,
        rng: RandomSource,
    ) -> None:
        """Schedule the arrival process onto ``cluster.engine``."""
        raise NotImplementedError

    def describe(self) -> str:
        """A short label for results and tables."""
        raise NotImplementedError

    def _record(self, cluster: "HarvestingCluster", dag) -> None:
        """Submit one job now and log it."""
        cluster.submit_job(dag)
        self.jobs_submitted += 1
        self.submitted_log.append((cluster.engine.now, dag.name))


class OpenLoopDriver(TrafficDriver):
    """Open-loop traffic: rate-scheduled Poisson arrivals.

    Arrivals are independent of the system's progress — exactly the
    sustained-pressure regime the paper's harvesting story targets: the
    queue grows whenever the harvested capacity cannot keep up.
    """

    kind = "open"

    def __init__(self, schedule: RateSchedule) -> None:
        super().__init__()
        self.schedule = schedule

    def attach(
        self,
        cluster: "HarvestingCluster",
        factory: "TpcdsWorkloadFactory",
        horizon: float,
        rng: RandomSource,
    ) -> None:
        """Pre-draw the whole arrival stream and schedule it.

        Fork order is fixed: ``arrivals`` (the Poisson times) then
        ``queries`` (one uniform DAG pick per arrival, in arrival order).
        """
        arrival_rng = rng.fork("arrivals")
        query_rng = rng.fork("queries")
        queries = factory.all_queries()
        for time in self.schedule.arrival_times(horizon, arrival_rng):
            dag = query_rng.choice(queries)
            cluster.engine.schedule_at(
                time,
                lambda engine, d=dag: self._record(cluster, d),
                name=f"arrival-{dag.name}",
            )

    def describe(self) -> str:
        return f"open[{self.schedule.describe()}]"


class ClosedLoopDriver(TrafficDriver):
    """Closed-loop traffic: N concurrent users with think time.

    Each user cycles submit -> wait for completion -> think (exponential)
    -> submit.  Offered load therefore adapts to the system: a slow
    scheduler variant receives fewer jobs, which is the feedback regime
    open-loop traffic deliberately lacks.

    Every user forks its own child stream (labels ``user-0`` ..
    ``user-N-1``, in that order), and draws from it strictly alternate
    query pick / think time.  The per-user draw sequence is therefore
    independent of how completions from different users interleave, and
    replayable against a scalar oracle (see ``tests/test_traffic.py``).
    """

    kind = "closed"

    def __init__(self, users: int, think_seconds: float) -> None:
        super().__init__()
        if users <= 0:
            raise ValueError("users must be positive")
        if think_seconds <= 0:
            raise ValueError("think_seconds must be positive")
        self.users = users
        self.think_seconds = think_seconds
        #: Think-time draws per user, in draw order (for the oracle test).
        self.think_log: Dict[int, List[float]] = {}
        #: Submitted job names per user, in submission order (oracle test).
        self.submissions_by_user: Dict[int, List[str]] = {}
        self._pending: Dict[int, int] = {}  # id(execution) -> user

    def attach(
        self,
        cluster: "HarvestingCluster",
        factory: "TpcdsWorkloadFactory",
        horizon: float,
        rng: RandomSource,
    ) -> None:
        """Install the completion hook and start every user at time zero."""
        self._cluster = cluster
        self._horizon = horizon
        self._queries = factory.all_queries()
        self._user_rngs = [rng.fork(f"user-{i}") for i in range(self.users)]
        self.think_log = {user: [] for user in range(self.users)}
        self.submissions_by_user = {user: [] for user in range(self.users)}
        cluster.app_master.on_job_finished = self._job_finished
        for user in range(self.users):
            cluster.engine.schedule_at(
                0.0,
                lambda engine, u=user: self._submit(u),
                name=f"user-{user}-start",
            )

    def _submit(self, user: int) -> None:
        dag = self._user_rngs[user].choice(self._queries)
        execution = self._cluster.submit_job(dag)
        self._pending[id(execution)] = user
        self.jobs_submitted += 1
        self.submitted_log.append((self._cluster.engine.now, dag.name))
        self.submissions_by_user[user].append(dag.name)

    def _job_finished(self, execution, result) -> None:
        user = self._pending.pop(id(execution), None)
        if user is None:
            return
        think = float(self._user_rngs[user].exponential(self.think_seconds))
        self.think_log[user].append(think)
        next_time = self._cluster.engine.now + think
        if next_time < self._horizon:
            self._cluster.engine.schedule_at(
                next_time,
                lambda engine, u=user: self._submit(u),
                name=f"user-{user}-submit",
            )

    def describe(self) -> str:
        return f"closed[users={self.users},think={self.think_seconds:g}s]"


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def _parse_fields(body: str, spec: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(
                f"bad traffic spec {spec!r}: expected key=value, got {chunk!r}"
            )
        key, value = chunk.split("=", 1)
        fields[key.strip()] = value.strip()
    return fields


def _pop_float(fields: Dict[str, str], key: str, spec: str, default=None) -> Any:
    if key not in fields:
        if default is None:
            raise ValueError(f"bad traffic spec {spec!r}: missing {key}=")
        return default
    raw = fields.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"bad traffic spec {spec!r}: {key}={raw!r} is not a number"
        ) from None


def parse_traffic(spec: str) -> TrafficDriver:
    """A :class:`TrafficDriver` from a compact spec string.

    Grammar (see the module docstring for examples)::

        open:rate=R[,profile=constant|step|diurnal][,profile args...]
        closed:users=N[,think=SECONDS]

    Open-loop profile arguments: ``step_at``/``step_rate`` for ``step``;
    ``period``/``amplitude``/``slots`` for ``diurnal``.  Unknown keys are
    rejected so typos fail loudly instead of silently running the default.
    """
    text = spec.strip()
    if ":" not in text:
        raise ValueError(
            f"bad traffic spec {spec!r}: expected 'open:...' or 'closed:...'"
        )
    kind, body = text.split(":", 1)
    kind = kind.strip()
    fields = _parse_fields(body, spec)
    if kind == "open":
        rate = _pop_float(fields, "rate", spec)
        profile = fields.pop("profile", "constant")
        if profile == "constant":
            schedule = RateSchedule.constant(rate)
        elif profile == "step":
            step_at = _pop_float(fields, "step_at", spec)
            step_rate = _pop_float(fields, "step_rate", spec)
            schedule = RateSchedule.step(rate, step_at, step_rate)
        elif profile == "diurnal":
            schedule = RateSchedule.diurnal(
                rate,
                amplitude=_pop_float(fields, "amplitude", spec, default=0.5),
                period_seconds=_pop_float(fields, "period", spec, default=86400.0),
                slots=int(_pop_float(fields, "slots", spec, default=24)),
            )
        else:
            raise ValueError(
                f"bad traffic spec {spec!r}: unknown profile {profile!r}"
            )
        driver: TrafficDriver = OpenLoopDriver(schedule)
    elif kind == "closed":
        users = int(_pop_float(fields, "users", spec))
        think = _pop_float(fields, "think", spec, default=300.0)
        driver = ClosedLoopDriver(users, think)
    else:
        raise ValueError(f"bad traffic spec {spec!r}: unknown kind {kind!r}")
    if fields:
        unknown = ", ".join(sorted(fields))
        raise ValueError(f"bad traffic spec {spec!r}: unknown keys: {unknown}")
    return driver


def factory_from_spec(
    workload: Any,
    rng: RandomSource,
    duration_scale: float = 1.0,
    width_scale: float = 0.35,
):
    """The traffic layer's job factory: TPC-DS, or a spec-driven catalog.

    ``workload`` is the scenario's ``workload`` param — a
    :func:`repro.workload.parse_workload` overlay string, a
    :class:`~repro.workload.WorkloadSpec`, or ``None``/empty.  Absent, the
    historical TPC-DS factory is built with the exact arguments the drivers
    always used, so existing scenarios stay draw-identical; present, the
    catalog is drawn from the workload's job-shape distributions instead
    (same ``query``/``all_queries``/``duration_distribution`` surface, so
    every driver accepts either).
    """
    from repro.jobs.tpcds import TpcdsWorkloadFactory

    if not workload:
        return TpcdsWorkloadFactory(
            rng, duration_scale=duration_scale, width_scale=width_scale
        )
    from repro.workload.spec import workload_from_param
    from repro.workload.synthetic import ShapeWorkloadFactory

    return ShapeWorkloadFactory(workload_from_param(workload).shape, rng)


# ---------------------------------------------------------------------------
# Epoch windows
# ---------------------------------------------------------------------------


class EpochRecorder:
    """Snapshots cumulative cluster counters at every epoch boundary.

    Boundary events are scheduled at ``k * epoch_seconds`` with
    :data:`EPOCH_BOUNDARY_PRIORITY`, so a snapshot observes every
    simulation event that fired at the same timestamp.  The runner turns
    consecutive snapshots into per-epoch deltas — or, when a streaming
    ``aggregator`` is attached, each snapshot is handed to it at the
    boundary so the closed window folds and finalizes immediately.

    ``epochs == 0`` is the run-forever sentinel: instead of pre-scheduling
    a fixed boundary ladder, each boundary schedules the next one, so the
    ladder extends as far as the engine runs (the horizon cutoff simply
    stops executing future events).
    """

    def __init__(
        self,
        cluster: "HarvestingCluster",
        driver: TrafficDriver,
        epoch_seconds: float,
        epochs: int,
        aggregator: Optional["StreamingEpochAggregator"] = None,
    ) -> None:
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative (0 = run forever)")
        self.cluster = cluster
        self.driver = driver
        self.epoch_seconds = float(epoch_seconds)
        self.epochs = int(epochs)
        self.aggregator = aggregator
        self.snapshots: List[Dict[str, Any]] = []

    def install(self) -> None:
        """Schedule boundary snapshots (call before ``run``).

        Bounded mode schedules the whole ladder up front; run-forever mode
        seeds only the first boundary and lets each boundary chain the next.
        """
        if self.epochs:
            for k in range(1, self.epochs + 1):
                self._schedule_boundary(k)
        else:
            self._schedule_boundary(1)

    def _schedule_boundary(self, k: int) -> None:
        self.cluster.engine.schedule_at(
            k * self.epoch_seconds,
            self._boundary,
            priority=EPOCH_BOUNDARY_PRIORITY,
            name=f"epoch-{k}",
        )

    def _snapshot(self, time: float) -> Dict[str, Any]:
        results = self.cluster.results
        return {
            "time": time,
            "jobs_submitted": self.driver.jobs_submitted,
            "jobs_completed": len(results),
            "tasks_completed": sum(r.tasks_completed for r in results),
            "tasks_killed": self.cluster.metrics.counter_value("tasks_killed"),
        }

    def _boundary(self, engine) -> None:
        snapshot = self._snapshot(engine.now)
        self.snapshots.append(snapshot)
        if self.aggregator is not None:
            self.aggregator.boundary(snapshot)
        if not self.epochs:
            self._schedule_boundary(len(self.snapshots) + 1)

    def finalize(self, now: float) -> List[Any]:
        """End of run: close the trailing partial window, flush the fold.

        In run-forever mode the horizon rarely lands on a boundary; the
        partial window past the last boundary still deserves an epoch, so
        take one last counter snapshot at ``now`` before the aggregator
        flushes.  Returns the full finalized
        :class:`~repro.harness.results.EpochMetrics` stream (empty without
        an aggregator; the raw counter snapshots stay in :attr:`snapshots`).
        """
        if self.aggregator is None:
            return []
        last = self.snapshots[-1]["time"] if self.snapshots else 0.0
        if now > last:
            self.snapshots.append(self._snapshot(now))
            self.aggregator.boundary(self.snapshots[-1])
        return self.aggregator.finalize()

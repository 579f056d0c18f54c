"""A small deterministic discrete-event simulation engine.

The engine keeps a priority queue of :class:`Event` objects ordered by
``(time, priority, sequence)``.  Ties on time are broken first by an explicit
priority (lower runs earlier) and then by insertion order, which makes runs
fully reproducible for a fixed seed and schedule.

Only the features the harvesting simulators need are implemented: one-shot
events, periodic events, cancellation, and named processes that reschedule
themselves.  The engine deliberately avoids coroutine magic so that the
scheduling and placement code under test looks like the production-style code
it models.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time (seconds) at which the callback fires.
        priority: tie-breaker for events at the same time; lower fires first.
        seq: insertion sequence number, assigned by the engine.
        callback: callable invoked with the engine as its only argument.
        name: optional human-readable label used in traces and error messages.
        cancelled: events may be cancelled in place; they stay in the heap but
            are skipped when popped.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[["SimulationEngine"], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True


class SimulationEngine:
    """Priority-queue based discrete event simulator.

    The engine exposes :meth:`schedule` / :meth:`schedule_at` to enqueue work,
    :meth:`run` / :meth:`run_until` to drive the clock, and :attr:`now` for
    the current simulated time in seconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of ``(time, priority, seq, event)`` tuples: the same ordering
        # key the Event dataclass compares by, but tuple comparison runs in C
        # instead of through generated ``__lt__`` calls (the heap churns
        # through hundreds of thousands of comparisons per experiment).
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(
            self._now + delay, callback, priority=priority, name=name
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        event = Event(
            time=float(time),
            priority=priority,
            seq=next(self._seq),
            callback=callback,
            name=name,
        )
        heapq.heappush(self._queue, (event.time, event.priority, event.seq, event))
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        start_delay: Optional[float] = None,
        priority: int = 0,
        name: str = "",
        until: Optional[float] = None,
    ) -> Event:
        """Schedule ``callback`` every ``interval`` seconds.

        The callback is re-armed after each invocation until either the engine
        stops or the optional ``until`` time is passed.  Returns the first
        scheduled event; cancelling it before it fires stops the chain.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        first_delay = interval if start_delay is None else start_delay
        return self.schedule(
            first_delay,
            _Periodic(callback, interval, priority, name, until),
            priority=priority,
            name=name,
        )

    def clear(self) -> None:
        """Drop every pending event.

        A pending event's callback usually refers to an object that refers
        back to the engine; once a run is over, dropping its leftovers lets
        reference counting free that object graph at once instead of at the
        cyclic collector's next full pass.
        """
        self._queue.clear()

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``stop`` is called, or ``max_events``."""
        executed = 0
        self._stopped = False
        while self._queue and not self._stopped:
            if max_events is not None and executed >= max_events:
                break
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(self)
            self._processed += 1
            executed += 1

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time`` and advance the clock.

        The clock finishes exactly at ``end_time`` even if the queue drains
        earlier, which keeps duration-based metrics well defined.
        """
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is before now {self._now}")
        self._stopped = False
        while self._queue and not self._stopped:
            if self._queue[0][0] > end_time:
                break
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(self)
            self._processed += 1
        if not self._stopped:
            self._now = max(self._now, end_time)


class _Periodic:
    """A periodic chain's callback: runs ``callback``, then re-arms itself.

    A callable object rather than a closure over its own name, which would
    be a reference cycle holding ``callback`` (and whatever it refers to)
    until the cyclic collector runs.
    """

    __slots__ = ("callback", "interval", "priority", "name", "until")

    def __init__(
        self,
        callback: Callable[[SimulationEngine], None],
        interval: float,
        priority: int,
        name: str,
        until: Optional[float],
    ) -> None:
        self.callback = callback
        self.interval = interval
        self.priority = priority
        self.name = name
        self.until = until

    def __call__(self, engine: SimulationEngine) -> None:
        self.callback(engine)
        next_time = engine.now + self.interval
        if self.until is None or next_time <= self.until:
            engine.schedule_at(next_time, self, priority=self.priority, name=self.name)


class Process:
    """Base class for self-rescheduling simulation actors.

    Subclasses implement :meth:`step` and call :meth:`start` with the step
    interval.  This mirrors how heartbeat loops (NodeManager, DataNode) are
    structured in the modelled systems.
    """

    def __init__(self, engine: SimulationEngine, name: str = "") -> None:
        self.engine = engine
        self.name = name or type(self).__name__
        self._event: Optional[Event] = None
        self._interval: Optional[float] = None
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the process is currently re-arming itself."""
        return self._running

    def start(self, interval: float, *, initial_delay: Optional[float] = None) -> None:
        """Begin stepping every ``interval`` seconds."""
        if self._running:
            raise RuntimeError(f"process {self.name} already running")
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        self._interval = interval
        self._running = True
        delay = interval if initial_delay is None else initial_delay
        self._event = self.engine.schedule(delay, self._tick, name=self.name)

    def stop(self) -> None:
        """Stop stepping; any queued tick is cancelled."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def step(self, engine: SimulationEngine) -> None:
        """One unit of work; subclasses must override."""
        raise NotImplementedError

    def _tick(self, engine: SimulationEngine) -> None:
        if not self._running:
            return
        self.step(engine)
        if self._running and self._interval is not None:
            self._event = engine.schedule(self._interval, self._tick, name=self.name)

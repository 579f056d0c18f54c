"""The per-minute primary-latency fold, one-shot or streamed per epoch.

Every harvesting figure's latency number is the same computation: bucket the
cluster's per-server heartbeat rows into one-minute means, evaluate
:meth:`~repro.services.latency_model.LatencyModel.p99_latency_ms_array` for
those minutes, and average each minute's row into one fleet-wide sample.
:class:`MinuteLatencyRecorder` is that computation, installed on the cluster
as its :class:`~repro.jobs.scheduler_variants.SeriesRecorder`:

* the testbed-style runners (fig10-11, heterogeneous-fleet, antagonist,
  predictor-ablation) fold the whole run in one terminal :meth:`~\
MinuteLatencyRecorder.fold` and report the samples directly;
* the continuous mode installs a :class:`StreamingEpochAggregator`, which is
  the same recorder also hooked into the
  :class:`~repro.harness.traffic.EpochRecorder`: at every epoch boundary it

  1. folds the closed window's complete minutes (the jitter draws fill the
     output row-major, so consecutive per-fold chunks consume the identical
     draw stream one terminal fold would),
  2. emits every :class:`~repro.harness.results.EpochMetrics` whose window
     can no longer receive samples, and
  3. keeps only the open partial-minute tail of raw rows across the
     boundary.

The streamed epoch stream is **bit-identical** to one full-horizon pass:
same per-minute means (same pairwise-summation order), same jitter stream,
same window-assignment and clamp semantics, same percentile inputs.

Window-boundary semantics:

* a minute sample belongs to the epoch its minute *starts* in:
  ``index = int(minute_start // epoch_seconds)``;
* in bounded mode (``epochs > 0``) the index clamps to ``epochs - 1`` — a
  minute that starts past the last boundary (a heartbeat landing exactly on
  the final window edge starts such a minute) folds into the last epoch,
  which is therefore only finalizable at the end-of-run flush;
* a heartbeat landing exactly on an interior window edge starts a new
  minute and belongs to the *next* epoch, while the boundary's counter
  snapshot (priority-ordered after every same-time event) still includes
  its effects in the closing window;
* with non-integer ``epoch_seconds`` (windows not aligned to the minute
  grid) a straddling minute delays its epochs' finalization until the
  minute itself is complete, one boundary later.

Run-forever mode (``epochs == 0``) applies no clamp: every minute lands in
its natural window and epochs finalize as soon as their minutes complete,
so the emission stream is unbounded while the retained state — the
partial-minute tail plus the open windows' scalar samples — stays O(window).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.harness.results import EpochMetrics
from repro.jobs.scheduler_variants import SeriesRecorder
from repro.services.latency_model import LatencyModel
from repro.simulation.random import RandomSource

#: The latency analysis buckets heartbeat rows into fixed one-minute means.
MINUTE_SECONDS = 60.0

#: Cumulative counters an epoch-boundary snapshot carries (deltas of
#: consecutive snapshots are the per-window counts).
COUNTER_KEYS = ("jobs_submitted", "jobs_completed", "tasks_completed", "tasks_killed")


class MinuteLatencyRecorder(SeriesRecorder):
    """Buffers heartbeat rows and folds complete minutes into p99 samples.

    The cluster calls :meth:`record` once per heartbeat; :meth:`fold` turns
    the buffered rows of every complete minute into that minute's
    fleet-mean p99 sample and drops them, so only the open partial-minute
    tail stays buffered between folds.

    Args:
        latency_rng: the cell's latency stream — consumed in ascending
            minute order, whether the rows fold at once or in chunks.
        reserve_fraction: the cluster's reserve CPU fraction (latency-model
            parameter).
    """

    def __init__(self, *, latency_rng: RandomSource, reserve_fraction: float) -> None:
        self._latency_model = LatencyModel(
            rng=latency_rng, reserve_fraction=reserve_fraction
        )

        # The open tail: heartbeat rows not yet folded, in time order.
        self._tail_times: List[float] = []
        self._tail_secondary: List[np.ndarray] = []
        self._tail_primary: List[np.ndarray] = []
        self._tail_bytes = 0

        # Observability (outside the fingerprint): peak size of the carried
        # tail — the bounded-memory claim, measured — and the fold count.
        self.peak_tail_rows = 0
        self.peak_tail_bytes = 0
        self.folds = 0

    def record(
        self, time: float, secondary_cpu: np.ndarray, primary_cpu: np.ndarray
    ) -> None:
        """Buffer one heartbeat row in the open tail."""
        self._tail_times.append(time)
        self._tail_secondary.append(secondary_cpu)
        self._tail_primary.append(primary_cpu)
        self._tail_bytes += 8 + secondary_cpu.nbytes + primary_cpu.nbytes
        if len(self._tail_times) > self.peak_tail_rows:
            self.peak_tail_rows = len(self._tail_times)
        if self._tail_bytes > self.peak_tail_bytes:
            self.peak_tail_bytes = self._tail_bytes

    def fold(
        self, complete_before: Optional[float] = None
    ) -> List[Tuple[np.float64, float]]:
        """Fold complete minute buckets off the tail into latency samples.

        A bucket ``b`` (rows with times in ``[60b, 60(b+1))``) is complete
        at time ``T`` iff ``60(b+1) <= T``; ``complete_before=None`` folds
        everything (end of run).  Each bucket's rows are stacked and
        transposed so the mean reduces along the contiguous axis, and the
        latency model evaluates all newly complete minutes in one
        ascending-minute call.

        Returns ``(minute start, fleet-mean p99 ms)`` per folded minute, in
        time order.
        """
        times = self._tail_times
        cut = len(times)
        if complete_before is not None:
            cut = 0
            while cut < len(times):
                bucket = math.floor(times[cut] / MINUTE_SECONDS)
                if (bucket + 1) * MINUTE_SECONDS > complete_before:
                    break
                cut += 1
        if cut == 0:
            return []

        # Group the folded prefix into its minute buckets (time order means
        # the buckets are ascending runs).
        starts: List[int] = []
        secondary_means: List[np.ndarray] = []
        primary_means: List[np.ndarray] = []
        row = 0
        while row < cut:
            bucket = math.floor(times[row] / MINUTE_SECONDS)
            end = row
            while end < cut and math.floor(times[end] / MINUTE_SECONDS) == bucket:
                end += 1
            secondary_means.append(
                np.ascontiguousarray(
                    np.vstack(self._tail_secondary[row:end]).T
                ).mean(axis=1)
            )
            primary_means.append(
                np.ascontiguousarray(
                    np.vstack(self._tail_primary[row:end]).T
                ).mean(axis=1)
            )
            starts.append(bucket)
            row = end

        per_minute = self._latency_model.p99_latency_ms_array(
            np.minimum(1.0, np.vstack(primary_means)), np.vstack(secondary_means)
        )
        self.folds += 1

        # Drop the folded rows; only the open partial-minute tail survives.
        del self._tail_times[:cut]
        del self._tail_secondary[:cut]
        del self._tail_primary[:cut]
        self._tail_bytes = sum(
            8 + s.nbytes + p.nbytes
            for s, p in zip(self._tail_secondary, self._tail_primary)
        )
        return [
            (np.float64(bucket) * MINUTE_SECONDS, float(np.mean(latency_row)))
            for bucket, latency_row in zip(starts, per_minute)
        ]


class StreamingEpochAggregator(MinuteLatencyRecorder):
    """Folds heartbeat rows into finalized epochs at window boundaries.

    Wiring (see ``harness/continuous.py``): the cluster calls
    :meth:`record` once per heartbeat, the epoch recorder calls
    :meth:`boundary` with each window-closing counter snapshot, and the
    runner calls :meth:`finalize` when the horizon ends.  Finalized
    :class:`EpochMetrics` stream through ``on_epoch`` (when given) the
    moment their window closes and accumulate in :attr:`finalized`.

    Args:
        latency_rng, reserve_fraction: as for :class:`MinuteLatencyRecorder`.
        epochs: number of windows; ``0`` means unbounded (run forever).
        epoch_seconds: window length in simulated seconds.
        on_epoch: optional callback invoked with each finalized
            :class:`EpochMetrics`, in index order.
    """

    def __init__(
        self,
        *,
        latency_rng: RandomSource,
        reserve_fraction: float,
        epochs: int,
        epoch_seconds: float,
        on_epoch: Optional[Callable[[EpochMetrics], None]] = None,
    ) -> None:
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative (0 = run forever)")
        super().__init__(latency_rng=latency_rng, reserve_fraction=reserve_fraction)
        self.epochs = int(epochs)
        self.epoch_seconds = float(epoch_seconds)
        self.on_epoch = on_epoch

        #: Folded per-minute fleet-mean latency samples, keyed by epoch
        #: index; entries are popped as their epoch finalizes.
        self._samples: Dict[int, List[float]] = {}
        #: Boundary counter snapshots not yet consumed, keyed by epoch
        #: index (snapshot k closes epoch k); entries pop as epochs emit.
        self._boundaries: Dict[int, Dict[str, Any]] = {}
        self._boundary_count = 0
        #: Minute-start watermark: no future heartbeat can land in a minute
        #: starting below this, so windows ending at or before it are closed.
        self._watermark = 0.0
        self._previous = {key: 0 for key in COUNTER_KEYS}

        #: Finalized epochs, in index order (the runner's result payload).
        self.finalized: List[EpochMetrics] = []

    # -- boundary / finalize -------------------------------------------------

    def boundary(self, snapshot: Dict[str, Any]) -> None:
        """One window just closed: fold its complete minutes, emit epochs.

        ``snapshot`` is the boundary's cumulative counter snapshot (time
        included).  Heartbeats at exactly the boundary time have already
        been recorded (the boundary event runs at a later priority), and
        every future row is strictly later, so a minute bucket is complete
        here iff it ends at or before the boundary.
        """
        self._boundaries[self._boundary_count] = snapshot
        self._boundary_count += 1
        time = float(snapshot["time"])
        self._assign(self.fold(complete_before=time))
        self._watermark = math.floor(time / MINUTE_SECONDS) * MINUTE_SECONDS
        self._emit_ready(final=False)

    def finalize(self) -> List[EpochMetrics]:
        """End of run: fold the remaining tail and emit every open epoch."""
        self._assign(self.fold())
        self._watermark = math.inf
        self._emit_ready(final=True)
        return list(self.finalized)

    def _assign(self, samples: List[Tuple[np.float64, float]]) -> None:
        """File each minute's sample under the epoch its minute starts in."""
        for start, sample in samples:
            index = int(start // self.epoch_seconds)
            if self.epochs:
                index = min(index, self.epochs - 1)
            self._samples.setdefault(index, []).append(sample)

    # -- emission ------------------------------------------------------------

    def _ready(self, index: int, final: bool) -> bool:
        """Whether epoch ``index`` can be finalized now.

        Needs its closing counter snapshot, plus the certainty that no
        future minute can land in its window: immediate for any window
        ending at or before the minute watermark, but the *clamped* last
        bounded window absorbs every later minute, so only the end-of-run
        flush closes it.
        """
        if self.epochs and index >= self.epochs:
            return False
        if index not in self._boundaries:
            return False
        if final:
            return True
        if self.epochs and index >= self.epochs - 1:
            return False
        return (index + 1) * self.epoch_seconds <= self._watermark

    def _emit_ready(self, final: bool) -> None:
        while self._ready(len(self.finalized), final):
            index = len(self.finalized)
            snapshot = self._boundaries.pop(index)
            samples = self._samples.pop(index, [])
            p99 = (
                float(np.percentile(np.asarray(samples), 99.0))
                if samples
                else 0.0
            )
            metrics = EpochMetrics(
                index=index,
                start_seconds=index * self.epoch_seconds,
                end_seconds=snapshot["time"],
                jobs_submitted=snapshot["jobs_submitted"]
                - self._previous["jobs_submitted"],
                jobs_completed=snapshot["jobs_completed"]
                - self._previous["jobs_completed"],
                tasks_completed=snapshot["tasks_completed"]
                - self._previous["tasks_completed"],
                tasks_killed=snapshot["tasks_killed"]
                - self._previous["tasks_killed"],
                queue_depth=snapshot["jobs_submitted"]
                - snapshot["jobs_completed"],
                p99_primary_ms=p99,
            )
            self._previous = snapshot
            self.finalized.append(metrics)
            if self.on_epoch is not None:
                self.on_epoch(metrics)

"""Synthetic primary-tenant CPU utilization traces.

AutoPilot records CPU utilization every two minutes; the paper represents
each primary tenant by the month-long series of its "average" server
(Section 3.2) and identifies three behaviour patterns:

* **periodic** — user-facing services with diurnal load (strong daily
  frequency component, Figure 1a/1b);
* **constant** — crawling, scrubbing, and similar pipelines whose utilization
  is roughly flat;
* **unpredictable** — development/testing tenants whose load is dominated by
  rare events (signal strength decays with frequency, Figure 1c/1d).

This module generates month-long traces for each pattern.  Traces are numpy
arrays of utilization fractions in ``[0, 1]`` sampled every
:data:`SAMPLE_INTERVAL_SECONDS`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.simulation.random import RandomSource

#: AutoPilot sampling interval for CPU utilization (two minutes).
SAMPLE_INTERVAL_SECONDS = 120

#: Number of utilization samples per day.
SAMPLES_PER_DAY = 24 * 3600 // SAMPLE_INTERVAL_SECONDS

#: Number of days in the characterization month.
DAYS_PER_MONTH = 30

#: Number of utilization samples in a month-long trace.
SAMPLES_PER_MONTH = SAMPLES_PER_DAY * DAYS_PER_MONTH


class UtilizationPattern(str, enum.Enum):
    """The three primary-tenant behaviour patterns from Section 3.2."""

    PERIODIC = "periodic"
    CONSTANT = "constant"
    UNPREDICTABLE = "unpredictable"


@dataclass
class TraceSpec:
    """Parameters controlling a synthetic utilization trace.

    Attributes:
        pattern: which behaviour family to generate.
        mean_utilization: target average utilization in ``[0, 1]``.
        daily_amplitude: peak-to-mean swing for periodic traces (fraction of
            mean utilization).
        noise_std: standard deviation of per-sample Gaussian noise.
        weekly_dip: relative reduction of weekend load for periodic traces.
        burst_probability: per-sample probability of entering a load burst
            for unpredictable traces.
        burst_magnitude: additional utilization during a burst.
        burst_duration_samples: mean length of a burst in samples.
        days: trace length in days.
    """

    pattern: UtilizationPattern
    mean_utilization: float = 0.3
    daily_amplitude: float = 0.6
    noise_std: float = 0.02
    weekly_dip: float = 0.15
    burst_probability: float = 0.01
    burst_magnitude: float = 0.4
    burst_duration_samples: int = 30
    days: int = DAYS_PER_MONTH

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_utilization <= 1.0:
            raise ValueError(
                f"mean_utilization must be in [0, 1] (got {self.mean_utilization})"
            )
        if self.days <= 0:
            raise ValueError(f"days must be positive (got {self.days})")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be non-negative (got {self.noise_std})")

    @property
    def num_samples(self) -> int:
        """Number of samples for the configured duration."""
        return self.days * SAMPLES_PER_DAY


@dataclass
class UtilizationTrace:
    """A primary tenant's CPU utilization series.

    Attributes:
        values: utilization fractions in ``[0, 1]``, one per sample interval.
        pattern: the pattern the trace was generated from (ground truth used
            to validate the classifier; the policies themselves re-derive the
            pattern from the data).
        spec: the generating specification, kept for provenance.
    """

    values: np.ndarray
    pattern: UtilizationPattern
    spec: Optional[TraceSpec] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # The clip copies, so the trace never shares the caller's array.
        values = _checked(np.asarray(self.values, dtype=float), slack=1e-9)
        self.values = np.clip(values, 0.0, 1.0)

    @classmethod
    def adopt(
        cls,
        values: np.ndarray,
        pattern: UtilizationPattern,
        spec: Optional[TraceSpec] = None,
    ) -> "UtilizationTrace":
        """A trace that takes ``values`` over without copying or clipping.

        For producers that build a fresh float64 array, clip it into
        ``[0, 1]`` themselves and keep no reference to it
        (:func:`generate_trace`, :func:`~repro.traces.scaling.scale_trace`),
        and for read-only row views of a
        :class:`~repro.traces.matrix.TraceMatrix` that owns the samples
        (``harness.builders.scaled_tenants``).  The range check is exact: a
        value outside ``[0, 1]``, even within the constructor's rounding
        slack, raises instead of being clipped.
        """
        if not isinstance(values, np.ndarray) or values.dtype != np.float64:
            raise ValueError("an adopted trace needs a float64 numpy array")
        trace = cls.__new__(cls)
        trace.values = _checked(values, slack=0.0)
        trace.pattern = pattern
        trace.spec = spec
        return trace

    @property
    def num_samples(self) -> int:
        """Length of the trace in samples."""
        return len(self.values)

    @property
    def duration_seconds(self) -> float:
        """Trace duration in seconds."""
        return float(self.num_samples * SAMPLE_INTERVAL_SECONDS)

    def mean(self) -> float:
        """Average utilization over the whole trace."""
        return float(self.values.mean())

    def peak(self, percentile: float = 99.0) -> float:
        """High-percentile utilization used as the tenant's "peak".

        The paper tags each class with its peak utilization; using the 99th
        percentile rather than the absolute maximum keeps single-sample noise
        spikes from dominating the statistic.
        """
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100] (got {percentile})")
        return float(np.percentile(self.values, percentile))

    def value_at(self, time_seconds: float) -> float:
        """Utilization at an arbitrary simulation time (wraps around)."""
        if time_seconds < 0:
            raise ValueError(f"time must be non-negative (got {time_seconds})")
        index = int(time_seconds // SAMPLE_INTERVAL_SECONDS) % self.num_samples
        return float(self.values[index])

    def window_mean(self, start_seconds: float, end_seconds: float) -> float:
        """Average utilization over ``[start, end)`` seconds (wrapping)."""
        if end_seconds <= start_seconds:
            raise ValueError("window end must be after start")
        start_idx = int(start_seconds // SAMPLE_INTERVAL_SECONDS)
        end_idx = max(
            start_idx + 1, int(np.ceil(end_seconds / SAMPLE_INTERVAL_SECONDS))
        )
        indices = np.arange(start_idx, end_idx) % self.num_samples
        return float(self.values[indices].mean())


def _periodic_series(spec: TraceSpec, rng: RandomSource) -> np.ndarray:
    """Diurnal pattern: daily sinusoid, weekend dip, and mild noise."""
    n = spec.num_samples
    t = np.arange(n)
    day_phase = 2.0 * np.pi * t / SAMPLES_PER_DAY
    # Shift so the peak lands mid-afternoon rather than midnight.
    phase_offset = rng.uniform(0.0, 2.0 * np.pi)
    daily = np.sin(day_phase - phase_offset)
    base = spec.mean_utilization * (1.0 + spec.daily_amplitude * daily)
    day_index = (t // SAMPLES_PER_DAY) % 7
    weekend = np.isin(day_index, (5, 6))
    base = np.where(weekend, base * (1.0 - spec.weekly_dip), base)
    noise = rng.normal_array(0.0, spec.noise_std, n)
    return base + noise


def _constant_series(spec: TraceSpec, rng: RandomSource) -> np.ndarray:
    """Roughly flat utilization with small noise and a very slow drift."""
    n = spec.num_samples
    drift = rng.normal(0.0, 0.02) * np.linspace(-1.0, 1.0, n)
    noise = rng.normal_array(0.0, spec.noise_std, n)
    return spec.mean_utilization + drift + noise


def _unpredictable_series(spec: TraceSpec, rng: RandomSource) -> np.ndarray:
    """Low-frequency-dominated load: random level shifts plus rare bursts."""
    n = spec.num_samples
    # Piecewise-constant regime changes every few hours to a few days.
    values = np.empty(n)
    level = spec.mean_utilization * rng.uniform(0.3, 1.5)
    i = 0
    while i < n:
        regime_len = rng.integer(SAMPLES_PER_DAY // 6, 3 * SAMPLES_PER_DAY)
        level = rng.bounded_normal(spec.mean_utilization, spec.mean_utilization * 0.6,
                                   0.0, 1.0)
        values[i : i + regime_len] = level
        i += regime_len
    # Rare bursts on top of the regimes.  One uniform is drawn per visited
    # sample, so the burst scan draws them in rewindable chunks (like
    # ``RandomSource.poisson_process``): when a chunk contains no burst its
    # draws are all legitimately consumed; when one does, rewind and consume
    # exactly the prefix the scalar loop would have, then take the burst's
    # Poisson draw.  Stream position and burst layout stay bit-identical.
    i = 0
    while i < n:
        chunk = min(n - i, 1024)
        state = rng.generator.bit_generator.state
        draws = rng.uniform_array(0.0, 1.0, chunk)
        hits = np.nonzero(draws < spec.burst_probability)[0]
        if not len(hits):
            i += chunk
            continue
        first = int(hits[0])
        rng.generator.bit_generator.state = state
        rng.uniform_array(0.0, 1.0, first + 1)
        i += first
        burst_len = max(1, rng.poisson(spec.burst_duration_samples))
        values[i : i + burst_len] = np.minimum(
            1.0, values[i : i + burst_len] + spec.burst_magnitude
        )
        i += burst_len
    noise = rng.normal_array(0.0, spec.noise_std, n)
    return values + noise


def _checked(values: np.ndarray, slack: float) -> np.ndarray:
    """``values`` if it is a non-empty 1-D series within ``[-slack, 1 +
    slack]``; raises ``ValueError`` otherwise."""
    if values.ndim != 1:
        raise ValueError("utilization trace must be one-dimensional")
    if len(values) == 0:
        raise ValueError("utilization trace must not be empty")
    if float(values.min()) < -slack or float(values.max()) > 1.0 + slack:
        raise ValueError("utilization values must lie in [0, 1]")
    return values


def generate_trace(spec: TraceSpec, rng: RandomSource) -> UtilizationTrace:
    """Generate a synthetic utilization trace for ``spec``.

    The returned values are clipped into ``[0, 1]``; generation is fully
    deterministic given the random source.
    """
    if spec.pattern is UtilizationPattern.PERIODIC:
        series = _periodic_series(spec, rng)
    elif spec.pattern is UtilizationPattern.CONSTANT:
        series = _constant_series(spec, rng)
    elif spec.pattern is UtilizationPattern.UNPREDICTABLE:
        series = _unpredictable_series(spec, rng)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown pattern {spec.pattern}")
    return UtilizationTrace.adopt(np.clip(series, 0.0, 1.0), spec.pattern, spec)


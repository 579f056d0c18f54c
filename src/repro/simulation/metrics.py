"""Metric collectors used across the simulators and experiments.

The paper reports averages, percentiles (p99 tail latency), CDFs, counts of
killed tasks / lost blocks / failed accesses, and time series of utilization.
These collectors keep the raw samples so experiments can compute whichever
statistic a figure needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np


class Counter:
    """A monotonically increasing named counter."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative (got {amount})")
        self._value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Distribution:
    """Collects scalar samples and reports summary statistics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        """Record one sample."""
        if not math.isfinite(value):
            raise ValueError(f"distribution samples must be finite (got {value})")
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the raw samples."""
        return list(self._samples)

    def mean(self) -> float:
        """Arithmetic mean; 0.0 when empty."""
        if not self._samples:
            return 0.0
        return float(np.mean(self._samples))

    def minimum(self) -> float:
        """Smallest sample; 0.0 when empty."""
        if not self._samples:
            return 0.0
        return float(np.min(self._samples))

    def maximum(self) -> float:
        """Largest sample; 0.0 when empty."""
        if not self._samples:
            return 0.0
        return float(np.max(self._samples))

    def std(self) -> float:
        """Population standard deviation; 0.0 when fewer than 2 samples."""
        if len(self._samples) < 2:
            return 0.0
        return float(np.std(self._samples))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100); 0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100] (got {q})")
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, q))

    def summary(self) -> Dict[str, float]:
        """Mean, min, max, p50, p95, p99 in one dict."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.minimum(),
            "max": self.maximum(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"Distribution({self.name!r}, n={self.count}, mean={self.mean():.3f})"


class TimeSeries:
    """Timestamped samples, e.g. per-minute tail latency or CPU utilization."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def add(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series samples must be non-decreasing "
                f"(got {time} after {self._times[-1]})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self._values)

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Mean of the values; 0.0 when empty."""
        if not self._values:
            return 0.0
        return float(np.mean(self._values))

    def maximum(self) -> float:
        """Max of the values; 0.0 when empty."""
        if not self._values:
            return 0.0
        return float(np.max(self._values))

    def window_mean(self, start: float, end: float) -> float:
        """Mean of the values with ``start <= t < end``; 0.0 when empty."""
        if end <= start:
            raise ValueError(f"window end {end} must be after start {start}")
        times = self.times
        mask = (times >= start) & (times < end)
        if not mask.any():
            return 0.0
        return float(self.values[mask].mean())

    def resample_mean(self, interval: float) -> Tuple[np.ndarray, np.ndarray]:
        """Bucket samples into fixed ``interval`` windows and average each."""
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        if not self._values:
            return np.array([]), np.array([])
        times = self.times
        values = self.values
        buckets = np.floor(times / interval).astype(int)
        unique = np.unique(buckets)
        centers = (unique + 0.5) * interval
        means = np.array([values[buckets == b].mean() for b in unique])
        return centers, means


@dataclass
class MetricRegistry:
    """Named bag of counters, distributions, and time series.

    Simulators register what they observe here and experiments read the
    registry after the run; the indirection keeps the simulators free of any
    knowledge about which figure the numbers end up in.
    """

    counters: Dict[str, Counter] = field(default_factory=dict)
    distributions: Dict[str, Distribution] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get (or create) the counter called ``name``."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def distribution(self, name: str) -> Distribution:
        """Get (or create) the distribution called ``name``."""
        if name not in self.distributions:
            self.distributions[name] = Distribution(name)
        return self.distributions[name]

    def time_series(self, name: str) -> TimeSeries:
        """Get (or create) the time series called ``name``."""
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    def counter_value(self, name: str, default: int = 0) -> int:
        """Value of the counter, or ``default`` if it was never created."""
        if name in self.counters:
            return self.counters[name].value
        return default

    def snapshot(self) -> Dict[str, float]:
        """Flat view of every counter value and distribution mean."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[f"counter.{name}"] = float(counter.value)
        for name, dist in self.distributions.items():
            out[f"dist.{name}.mean"] = dist.mean()
            out[f"dist.{name}.count"] = float(dist.count)
        for name, ts in self.series.items():
            out[f"series.{name}.mean"] = ts.mean()
            out[f"series.{name}.count"] = float(ts.count)
        return out

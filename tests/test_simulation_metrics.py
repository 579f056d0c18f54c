"""Tests for the metric collectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.metrics import Counter, Distribution, MetricRegistry, TimeSeries


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestDistribution:
    def test_summary_statistics(self):
        dist = Distribution("d")
        dist.extend([1.0, 2.0, 3.0, 4.0])
        assert dist.count == 4
        assert dist.mean() == pytest.approx(2.5)
        assert dist.minimum() == 1.0
        assert dist.maximum() == 4.0
        assert dist.percentile(50) == pytest.approx(2.5)

    def test_empty_distribution_is_zero(self):
        dist = Distribution("d")
        assert dist.mean() == 0.0
        assert dist.percentile(99) == 0.0
        assert dist.std() == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Distribution("d").add(float("nan"))
        with pytest.raises(ValueError):
            Distribution("d").add(float("inf"))

    def test_percentile_range_validated(self):
        dist = Distribution("d")
        dist.add(1.0)
        with pytest.raises(ValueError):
            dist.percentile(101)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_mean_between_min_and_max(self, values):
        dist = Distribution("d")
        dist.extend(values)
        assert dist.minimum() - 1e-9 <= dist.mean() <= dist.maximum() + 1e-9

    def test_summary_keys(self):
        dist = Distribution("d")
        dist.extend([1.0, 5.0])
        summary = dist.summary()
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p95", "p99"}


class TestTimeSeries:
    def test_add_and_read_back(self):
        series = TimeSeries("s")
        series.add(0.0, 1.0)
        series.add(10.0, 3.0)
        assert series.count == 2
        assert series.mean() == pytest.approx(2.0)
        assert series.maximum() == 3.0

    def test_times_must_be_non_decreasing(self):
        series = TimeSeries("s")
        series.add(10.0, 1.0)
        with pytest.raises(ValueError):
            series.add(5.0, 1.0)

    def test_window_mean(self):
        series = TimeSeries("s")
        for t in range(10):
            series.add(float(t), float(t))
        assert series.window_mean(0.0, 5.0) == pytest.approx(2.0)
        assert series.window_mean(100.0, 200.0) == 0.0

    def test_window_mean_validates_bounds(self):
        with pytest.raises(ValueError):
            TimeSeries("s").window_mean(5.0, 5.0)

    def test_resample_mean(self):
        series = TimeSeries("s")
        for t in range(0, 100, 10):
            series.add(float(t), float(t))
        centers, means = series.resample_mean(50.0)
        assert len(centers) == 2
        assert means[0] == pytest.approx(np.mean([0, 10, 20, 30, 40]))

    def test_resample_empty(self):
        centers, means = TimeSeries("s").resample_mean(10.0)
        assert len(centers) == 0 and len(means) == 0


class TestMetricRegistry:
    def test_lazily_creates_and_reuses(self):
        registry = MetricRegistry()
        registry.counter("a").increment()
        registry.counter("a").increment()
        assert registry.counter_value("a") == 2
        assert registry.counter_value("missing", default=7) == 7

    def test_snapshot_contains_all_metric_kinds(self):
        registry = MetricRegistry()
        registry.counter("jobs").increment(3)
        registry.distribution("latency").add(5.0)
        registry.time_series("util").add(0.0, 0.5)
        snapshot = registry.snapshot()
        assert snapshot["counter.jobs"] == 3.0
        assert snapshot["dist.latency.mean"] == 5.0
        assert snapshot["series.util.count"] == 1.0


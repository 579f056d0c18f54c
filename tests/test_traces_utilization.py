"""Tests for the synthetic utilization trace generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.random import RandomSource
from repro.traces.scaling import ScalingMethod, scale_trace
from repro.traces.utilization import (
    SAMPLE_INTERVAL_SECONDS,
    SAMPLES_PER_DAY,
    SAMPLES_PER_MONTH,
    TraceSpec,
    UtilizationPattern,
    UtilizationTrace,
    generate_trace,
)


def average_trace(traces: list[UtilizationTrace]) -> UtilizationTrace:
    """Per-sample average across a tenant's servers (the "average server").

    Section 3.2 averages the utilization of all servers of a primary tenant
    in each time slot and uses the resulting series to represent the tenant.
    All input traces must have the same length; mixed patterns average to
    an unpredictable one.
    """
    if not traces:
        raise ValueError("cannot average an empty list of traces")
    lengths = {t.num_samples for t in traces}
    if len(lengths) != 1:
        raise ValueError(f"traces have differing lengths: {sorted(lengths)}")
    patterns = {t.pattern for t in traces}
    pattern = (
        traces[0].pattern if len(patterns) == 1 else UtilizationPattern.UNPREDICTABLE
    )
    stacked = np.vstack([t.values for t in traces])
    return UtilizationTrace(stacked.mean(axis=0), pattern, traces[0].spec)


class TestTraceSpec:
    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(UtilizationPattern.CONSTANT, mean_utilization=1.5)

    def test_invalid_days_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(UtilizationPattern.CONSTANT, days=0)

    def test_num_samples(self):
        spec = TraceSpec(UtilizationPattern.CONSTANT, days=2)
        assert spec.num_samples == 2 * SAMPLES_PER_DAY


class TestGeneration:
    @pytest.mark.parametrize("pattern", list(UtilizationPattern))
    def test_values_in_unit_interval(self, pattern):
        trace = generate_trace(
            TraceSpec(pattern, mean_utilization=0.4), RandomSource(1)
        )
        assert trace.num_samples == SAMPLES_PER_MONTH
        assert float(trace.values.min()) >= 0.0
        assert float(trace.values.max()) <= 1.0

    def test_generation_is_deterministic(self):
        spec = TraceSpec(UtilizationPattern.PERIODIC)
        a = generate_trace(spec, RandomSource(5))
        b = generate_trace(spec, RandomSource(5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_periodic_has_daily_structure(self):
        trace = generate_trace(
            TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=0.4),
            RandomSource(2),
        )
        # Autocorrelation at a one-day lag should be strongly positive.
        values = trace.values - trace.values.mean()
        day = SAMPLES_PER_DAY
        corr = float(
            np.corrcoef(values[:-day], values[day:])[0, 1]
        )
        assert corr > 0.5

    def test_constant_has_low_variation(self):
        trace = generate_trace(
            TraceSpec(UtilizationPattern.CONSTANT, mean_utilization=0.3),
            RandomSource(3),
        )
        assert float(trace.values.std()) < 0.06

    def test_unpredictable_has_more_variation_than_constant(self):
        constant = generate_trace(
            TraceSpec(UtilizationPattern.CONSTANT, mean_utilization=0.3),
            RandomSource(4),
        )
        unpredictable = generate_trace(
            TraceSpec(UtilizationPattern.UNPREDICTABLE, mean_utilization=0.3),
            RandomSource(4),
        )
        assert unpredictable.values.std() > constant.values.std()

    @given(st.floats(min_value=0.05, max_value=0.7))
    @settings(max_examples=20, deadline=None)
    def test_constant_mean_close_to_spec(self, mean):
        trace = generate_trace(
            TraceSpec(UtilizationPattern.CONSTANT, mean_utilization=mean, days=5),
            RandomSource(9),
        )
        assert abs(trace.mean() - mean) < 0.1


class TestUtilizationTrace:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            UtilizationTrace(np.array([0.5, 1.4]), UtilizationPattern.CONSTANT)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UtilizationTrace(np.array([]), UtilizationPattern.CONSTANT)

    def test_value_at_wraps_around(self):
        trace = UtilizationTrace(
            np.array([0.1, 0.2, 0.3]), UtilizationPattern.CONSTANT
        )
        period = 3 * SAMPLE_INTERVAL_SECONDS
        assert trace.value_at(0.0) == pytest.approx(0.1)
        assert trace.value_at(SAMPLE_INTERVAL_SECONDS) == pytest.approx(0.2)
        assert trace.value_at(period) == pytest.approx(0.1)

    def test_value_at_negative_time_rejected(self):
        trace = UtilizationTrace(np.array([0.1]), UtilizationPattern.CONSTANT)
        with pytest.raises(ValueError):
            trace.value_at(-1.0)

    def test_peak_is_at_least_mean(self):
        trace = generate_trace(
            TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=0.4),
            RandomSource(6),
        )
        assert trace.peak() >= trace.mean()

    def test_window_mean_matches_manual_average(self):
        values = np.linspace(0.0, 0.9, 10)
        trace = UtilizationTrace(values, UtilizationPattern.CONSTANT)
        window = trace.window_mean(0.0, 5 * SAMPLE_INTERVAL_SECONDS)
        assert window == pytest.approx(values[:5].mean())

    def test_duration(self):
        trace = UtilizationTrace(np.array([0.1, 0.2]), UtilizationPattern.CONSTANT)
        assert trace.duration_seconds == 2 * SAMPLE_INTERVAL_SECONDS

    def test_never_aliases_the_callers_array(self):
        """The constructor copies (and clips) what it is given; traces that
        the producers build without that copy own their arrays too."""
        values = np.array([0.2, 1.0 + 5e-10, 0.4])
        trace = UtilizationTrace(values, UtilizationPattern.CONSTANT)
        assert not np.shares_memory(trace.values, values)
        assert trace.values.tolist() == [0.2, 1.0, 0.4]
        values[0] = 0.9
        assert trace.values[0] == 0.2
        generated = generate_trace(
            TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=0.4, days=1),
            RandomSource(3),
        )
        scaled = scale_trace(generated, 1.0, ScalingMethod.LINEAR)
        rooted = scale_trace(generated, 2.0, ScalingMethod.ROOT)
        for derived in (scaled, rooted):
            assert not np.shares_memory(derived.values, generated.values)
        assert not np.shares_memory(scaled.values, rooted.values)
        np.testing.assert_array_equal(scaled.values, generated.values)

    def test_adopt_keeps_the_array_and_the_exact_range_check(self):
        values = np.array([0.0, 0.5, 1.0])
        trace = UtilizationTrace.adopt(values, UtilizationPattern.CONSTANT)
        assert trace.values is values
        assert trace.pattern is UtilizationPattern.CONSTANT and trace.spec is None
        # What the constructor would clip away, an adopted array may not hold.
        for bad in ([0.5, 1.0 + 5e-10], [-5e-10, 0.5], [[0.5]], []):
            with pytest.raises(ValueError):
                UtilizationTrace.adopt(
                    np.array(bad, dtype=float), UtilizationPattern.CONSTANT
                )
        with pytest.raises(ValueError, match="float64"):
            UtilizationTrace.adopt(np.array([0, 1]), UtilizationPattern.CONSTANT)


class TestAverageTrace:
    def test_average_of_identical_traces_is_identity(self):
        base = generate_trace(TraceSpec(UtilizationPattern.CONSTANT), RandomSource(1))
        averaged = average_trace([base, base])
        np.testing.assert_allclose(averaged.values, base.values)

    def test_average_requires_same_length(self):
        a = UtilizationTrace(np.array([0.1, 0.2]), UtilizationPattern.CONSTANT)
        b = UtilizationTrace(np.array([0.1]), UtilizationPattern.CONSTANT)
        with pytest.raises(ValueError):
            average_trace([a, b])

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_trace([])

    def test_mixed_patterns_become_unpredictable(self):
        a = UtilizationTrace(np.array([0.1, 0.2]), UtilizationPattern.CONSTANT)
        b = UtilizationTrace(np.array([0.3, 0.4]), UtilizationPattern.PERIODIC)
        assert average_trace([a, b]).pattern is UtilizationPattern.UNPREDICTABLE


class TestUnpredictableBurstChunking:
    """The chunked burst scan must consume the stream like the scalar loop."""

    @staticmethod
    def _scalar_reference(spec: TraceSpec, rng: RandomSource) -> np.ndarray:
        n = spec.num_samples
        values = np.empty(n)
        rng.uniform(0.3, 1.5)  # the legacy level draw, stream-compatible
        i = 0
        while i < n:
            regime_len = rng.integer(SAMPLES_PER_DAY // 6, 3 * SAMPLES_PER_DAY)
            level = rng.bounded_normal(
                spec.mean_utilization, spec.mean_utilization * 0.6, 0.0, 1.0
            )
            values[i : i + regime_len] = level
            i += regime_len
        i = 0
        while i < n:
            if rng.uniform() < spec.burst_probability:
                burst_len = max(1, rng.poisson(spec.burst_duration_samples))
                values[i : i + burst_len] = np.minimum(
                    1.0, values[i : i + burst_len] + spec.burst_magnitude
                )
                i += burst_len
            else:
                i += 1
        noise = rng.normal_array(0.0, spec.noise_std, n)
        return values + noise

    def test_matches_scalar_burst_scan(self):
        for seed in range(8):
            for burst_probability in (0.0, 0.01, 0.2):
                spec = TraceSpec(
                    UtilizationPattern.UNPREDICTABLE,
                    burst_probability=burst_probability,
                    days=7,
                )
                expected = np.clip(
                    self._scalar_reference(spec, RandomSource(seed)), 0.0, 1.0
                )
                got = generate_trace(spec, RandomSource(seed)).values
                assert np.array_equal(got, expected), (seed, burst_probability)

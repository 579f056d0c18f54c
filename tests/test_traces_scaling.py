"""Tests for the linear and root utilization scaling methods."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.random import RandomSource
from repro.traces.datacenter import PrimaryTenant
from repro.traces.matrix import TraceMatrix
from repro.traces.scaling import (
    ScalingMethod,
    saturation_fraction,
    scale_into,
    scale_to_target_mean,
    scale_trace,
    temporal_variation,
)
from repro.traces.utilization import (
    TraceSpec,
    UtilizationPattern,
    UtilizationTrace,
    generate_trace,
)


def periodic_trace(
    mean: float = 0.3, seed: int = 1, days: int = 7
) -> UtilizationTrace:
    return generate_trace(
        TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=mean, days=days),
        RandomSource(seed),
    )


class TestScaleTrace:
    def test_linear_scaling_multiplies_and_clips(self):
        trace = UtilizationTrace(
            np.array([0.2, 0.4, 0.9]), UtilizationPattern.CONSTANT
        )
        scaled = scale_trace(trace, 2.0, ScalingMethod.LINEAR)
        np.testing.assert_allclose(scaled.values, [0.4, 0.8, 1.0])

    def test_linear_identity_at_factor_one(self):
        trace = periodic_trace()
        scaled = scale_trace(trace, 1.0, ScalingMethod.LINEAR)
        np.testing.assert_allclose(scaled.values, trace.values)

    def test_root_scaling_never_saturates(self):
        trace = periodic_trace(mean=0.5)
        scaled = scale_trace(trace, 3.0, ScalingMethod.ROOT)
        assert saturation_fraction(scaled) <= saturation_fraction(trace) + 1e-9
        assert float(scaled.values.max()) <= 1.0

    def test_root_scaling_raises_mean(self):
        trace = periodic_trace(mean=0.3)
        scaled = scale_trace(trace, 2.0, ScalingMethod.ROOT)
        assert scaled.mean() > trace.mean()

    @given(
        values=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30),
        factor=st.floats(0.1, 10.0).filter(lambda f: abs(f - 1.0) >= 0.01),
    )
    @settings(max_examples=100, deadline=None)
    def test_root_moves_every_inner_sample_the_factors_way(self, values, factor):
        """Root scaling raises each sample to ``1 / factor``: a sample
        inside (0, 1) moves strictly lower when ``factor < 1`` and strictly
        higher when ``factor > 1``."""
        trace = UtilizationTrace(np.array(values), UtilizationPattern.CONSTANT)
        scaled = scale_trace(trace, factor, ScalingMethod.ROOT).values
        np.testing.assert_array_equal(scaled, np.power(trace.values, 1.0 / factor))
        if factor < 1.0:
            assert (scaled < trace.values).all()
        else:
            assert (scaled > trace.values).all()

    def test_non_positive_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_trace(periodic_trace(), 0.0)

    def test_scaling_preserves_pattern(self):
        trace = periodic_trace()
        assert scale_trace(trace, 1.5).pattern is trace.pattern


class TestScaleInto:
    @pytest.mark.parametrize("method", list(ScalingMethod))
    @pytest.mark.parametrize("factor", [0.4, 1.0, 2.7])
    def test_matrix_rows_match_scale_trace_bit_for_bit(self, method, factor):
        traces = [periodic_trace(0.3, seed=1), periodic_trace(0.6, seed=2, days=3)]
        tenants = [
            PrimaryTenant(f"t{i}", "env", "mf", trace=trace)
            for i, trace in enumerate(traces)
        ]
        matrix = TraceMatrix(
            tenants,
            transform=lambda values, out: scale_into(values, factor, method, out),
        )
        for row, trace in enumerate(traces):
            expected = scale_trace(trace, factor, method).values
            assert matrix.row(row).tobytes() == expected.tobytes()
        # The shorter row's padding stays zero.
        assert not matrix.values[1, traces[1].num_samples :].any()

    def test_non_positive_factor_rejected(self):
        out = np.empty(4)
        with pytest.raises(ValueError):
            scale_into(np.full(4, 0.5), 0.0, ScalingMethod.LINEAR, out)


class TestScaleToTargetMean:
    @pytest.mark.parametrize("method", list(ScalingMethod))
    @pytest.mark.parametrize("target", [0.2, 0.45, 0.6])
    def test_reaches_target(self, method, target):
        trace = periodic_trace(mean=0.3)
        scaled = scale_to_target_mean(trace, target, method)
        assert abs(scaled.mean() - target) < 0.03

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            scale_to_target_mean(periodic_trace(), 0.0)
        with pytest.raises(ValueError):
            scale_to_target_mean(periodic_trace(), 1.0)

    def test_idle_trace_returned_unchanged(self):
        idle = UtilizationTrace(np.zeros(100), UtilizationPattern.CONSTANT)
        scaled = scale_to_target_mean(idle, 0.5)
        np.testing.assert_array_equal(scaled.values, idle.values)

    def test_trace_already_at_target_unchanged(self):
        trace = UtilizationTrace(np.full(100, 0.4), UtilizationPattern.CONSTANT)
        scaled = scale_to_target_mean(trace, 0.4)
        np.testing.assert_allclose(scaled.values, trace.values)

    @given(st.floats(min_value=0.15, max_value=0.75))
    @settings(max_examples=15, deadline=None)
    def test_linear_scaling_property(self, target):
        trace = periodic_trace(mean=0.35, seed=11)
        scaled = scale_to_target_mean(trace, target, ScalingMethod.LINEAR)
        assert 0.0 <= scaled.values.min() and scaled.values.max() <= 1.0
        assert abs(scaled.mean() - target) < 0.05


class TestVariationStatistics:
    def test_linear_scaling_amplifies_variation_before_saturation(self):
        trace = periodic_trace(mean=0.2)
        scaled = scale_trace(trace, 1.8, ScalingMethod.LINEAR)
        assert temporal_variation(scaled) > temporal_variation(trace)

    def test_root_scaling_dampens_variation_relative_to_linear(self):
        """The key property behind Figure 13's linear-vs-root difference."""
        trace = periodic_trace(mean=0.25)
        target = 0.55
        linear = scale_to_target_mean(trace, target, ScalingMethod.LINEAR)
        root = scale_to_target_mean(trace, target, ScalingMethod.ROOT)
        assert temporal_variation(linear) > temporal_variation(root)

    def test_saturation_fraction_bounds(self):
        trace = UtilizationTrace(np.array([1.0, 0.5, 1.0]), UtilizationPattern.CONSTANT)
        assert saturation_fraction(trace) == pytest.approx(2.0 / 3.0)
        with pytest.raises(ValueError):
            saturation_fraction(trace, threshold=0.0)

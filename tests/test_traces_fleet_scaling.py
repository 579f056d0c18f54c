"""Tests for fleet-level utilization scaling (the Figure 13/16 mechanism)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.random import RandomSource
from repro.traces.scaling import (
    ScalingMethod,
    fleet_scaling_factor,
    scale_trace,
)
from repro.traces.utilization import (
    TraceSpec,
    UtilizationPattern,
    UtilizationTrace,
    generate_trace,
)


def scale_fleet_to_target_mean(
    traces: list[UtilizationTrace],
    target_mean: float,
    method: ScalingMethod = ScalingMethod.LINEAR,
    weights: list[float] | None = None,
) -> list[UtilizationTrace]:
    """Scale every trace by the common factor from ``fleet_scaling_factor``."""
    factor = fleet_scaling_factor(traces, target_mean, method, weights)
    return [scale_trace(trace, factor, method) for trace in traces]


def make_fleet(means=(0.1, 0.3, 0.5), days: int = 5):
    rng = RandomSource(2)
    return [
        generate_trace(
            TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=m, days=days),
            rng.fork(f"t{i}"),
        )
        for i, m in enumerate(means)
    ]


class TestFleetScalingFactor:
    @pytest.mark.parametrize("method", list(ScalingMethod))
    @pytest.mark.parametrize("target", [0.2, 0.45, 0.6])
    def test_fleet_mean_reaches_target(self, method, target):
        traces = make_fleet()
        factor = fleet_scaling_factor(traces, target, method)
        scaled_means = [scale_trace(t, factor, method).mean() for t in traces]
        assert abs(float(np.mean(scaled_means)) - target) < 0.03

    def test_relative_diversity_preserved_under_linear_scaling(self):
        """The whole point of common-factor scaling: tenants keep their rank."""
        traces = make_fleet(means=(0.1, 0.3, 0.5))
        scaled = scale_fleet_to_target_mean(traces, 0.45, ScalingMethod.LINEAR)
        original_order = np.argsort([t.mean() for t in traces])
        scaled_order = np.argsort([t.mean() for t in scaled])
        np.testing.assert_array_equal(original_order, scaled_order)
        # The low-utilization tenant must stay well below the high one.
        assert scaled[0].mean() < scaled[2].mean() - 0.05

    def test_weights_shift_the_factor(self):
        traces = make_fleet(means=(0.1, 0.5))
        light_on_busy = fleet_scaling_factor(
            traces, 0.4, ScalingMethod.LINEAR, weights=[10.0, 1.0]
        )
        heavy_on_busy = fleet_scaling_factor(
            traces, 0.4, ScalingMethod.LINEAR, weights=[1.0, 10.0]
        )
        # When the busy tenant dominates the fleet, a smaller factor suffices.
        assert heavy_on_busy < light_on_busy

    def test_factor_of_one_when_already_at_target(self):
        traces = make_fleet(means=(0.4, 0.4))
        target = float(np.mean([t.mean() for t in traces]))
        target = min(max(target, 0.01), 0.99)
        assert fleet_scaling_factor(traces, target) == pytest.approx(1.0)

    def test_validation(self):
        traces = make_fleet()
        with pytest.raises(ValueError):
            fleet_scaling_factor([], 0.5)
        with pytest.raises(ValueError):
            fleet_scaling_factor(traces, 0.0)
        with pytest.raises(ValueError):
            fleet_scaling_factor(traces, 0.5, weights=[1.0])
        with pytest.raises(ValueError):
            fleet_scaling_factor(traces, 0.5, weights=[0.0, 0.0, 0.0])

    @given(st.floats(min_value=0.15, max_value=0.7))
    @settings(max_examples=10, deadline=None)
    def test_scaled_fleet_stays_in_unit_interval(self, target):
        scaled = scale_fleet_to_target_mean(make_fleet(), target)
        for trace in scaled:
            assert float(trace.values.min()) >= 0.0
            assert float(trace.values.max()) <= 1.0

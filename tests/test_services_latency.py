"""Tests for the primary-tenant latency model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.latency_model import LatencyModel, LatencyModelConfig
from repro.simulation.random import RandomSource


def p99_latency_ms(
    model: LatencyModel,
    primary_utilization: float,
    secondary_cpu_fraction: float,
    secondary_io_fraction: float = 0.0,
) -> float:
    """The latency model's formula for one server and one jitter draw.

    The scalar oracle: ``LatencyModel.p99_latency_ms_array`` must match it
    element by element against the same random stream.
    """
    if not 0.0 <= primary_utilization <= 1.0:
        raise ValueError("primary_utilization must be in [0, 1]")
    if secondary_cpu_fraction < 0 or secondary_io_fraction < 0:
        raise ValueError("secondary fractions must be non-negative")
    config = model.config
    reserve = model._reserve_fraction

    latency = max(
        1.0, model._rng.normal(config.baseline_ms, config.baseline_jitter_ms)
    )

    secondary = secondary_cpu_fraction + 0.5 * secondary_io_fraction
    # How far the secondary tenants intrude into the burst reserve the
    # primary would otherwise have to itself.
    headroom_wo_reserve = max(0.0, 1.0 - primary_utilization - reserve)
    reserve_intrusion = max(0.0, secondary - headroom_wo_reserve)
    reserve_intrusion = min(reserve_intrusion, reserve)
    if reserve > 0:
        latency += config.reserve_penalty_ms * reserve_intrusion / reserve

    # Demand beyond the whole server: severe queueing for the primary.
    overload = max(0.0, primary_utilization + secondary - 1.0)
    latency += config.overload_penalty_ms * overload

    return float(min(config.max_latency_ms, latency))


class TestLatencyModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModelConfig(baseline_ms=0.0)
        with pytest.raises(ValueError):
            LatencyModelConfig(baseline_ms=400.0, max_latency_ms=300.0)


class TestLatencyModel:
    def test_baseline_matches_paper_range(self):
        """No-harvesting p99 averages 369-406 ms in the paper."""
        model = LatencyModel(rng=RandomSource(1))
        samples = [p99_latency_ms(model, 0.3, 0.0) for _ in range(500)]
        assert 360.0 < float(np.mean(samples)) < 420.0

    def test_latency_without_interference_is_near_baseline(self):
        model = LatencyModel(rng=RandomSource(2))
        quiet = p99_latency_ms(model, 0.4, 0.0)
        assert abs(quiet - model.config.baseline_ms) < 60.0

    def test_secondary_within_free_capacity_adds_little(self):
        model = LatencyModel(rng=RandomSource(3))
        # Primary at 30%, secondary at 30%: the reserve (33%) is untouched.
        values = [p99_latency_ms(model, 0.3, 0.3) for _ in range(100)]
        assert float(np.mean(values)) < model.config.baseline_ms + 80.0

    def test_reserve_intrusion_increases_latency(self):
        model = LatencyModel(rng=RandomSource(4))
        polite = np.mean([p99_latency_ms(model, 0.3, 0.3) for _ in range(100)])
        intrusive = np.mean([p99_latency_ms(model, 0.3, 0.6) for _ in range(100)])
        assert intrusive > polite

    def test_overload_dominates(self):
        model = LatencyModel(rng=RandomSource(5))
        overloaded = np.mean([p99_latency_ms(model, 0.7, 0.6) for _ in range(100)])
        fine = np.mean([p99_latency_ms(model, 0.7, 0.0) for _ in range(100)])
        assert overloaded > fine + 300.0

    def test_latency_capped(self):
        model = LatencyModel(rng=RandomSource(6))
        assert p99_latency_ms(model, 1.0, 5.0) <= model.config.max_latency_ms

    def test_validation(self):
        model = LatencyModel()
        with pytest.raises(ValueError):
            p99_latency_ms(model, 1.5, 0.0)
        with pytest.raises(ValueError):
            p99_latency_ms(model, 0.5, -1.0)
        with pytest.raises(ValueError):
            LatencyModel(reserve_fraction=1.0)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=2),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_latency_positive_bounded_and_monotone_in_secondary(
        self, primary, secondary, io
    ):
        model = LatencyModel(rng=RandomSource(7))
        latency = p99_latency_ms(model, primary, secondary, io)
        assert 0.0 < latency <= model.config.max_latency_ms


class TestLatencyModelArray:
    def test_matches_scalar_stream_exactly(self):
        scalar_model = LatencyModel(rng=RandomSource(11))
        array_model = LatencyModel(rng=RandomSource(11))
        primary = np.array([0.1, 0.4, 0.7, 0.9, 0.0, 0.55])
        secondary = np.array([0.0, 0.2, 0.3, 0.5, 0.1, 0.0])
        io = np.array([0.0, 0.0, 0.4, 0.1, 0.0, 1.0])
        scalar = [
            p99_latency_ms(scalar_model, float(p), float(s), float(i))
            for p, s, i in zip(primary, secondary, io)
        ]
        batch = array_model.p99_latency_ms_array(primary, secondary, io)
        assert batch.tolist() == scalar

    def test_matches_scalar_in_row_major_order_2d(self):
        scalar_model = LatencyModel(rng=RandomSource(12))
        array_model = LatencyModel(rng=RandomSource(12))
        primary = np.array([[0.1, 0.8], [0.6, 0.3]])
        secondary = np.array([[0.2, 0.4], [0.0, 0.9]])
        scalar = [
            [
                p99_latency_ms(scalar_model, float(p), float(s))
                for p, s in zip(prow, srow)
            ]
            for prow, srow in zip(primary, secondary)
        ]
        batch = array_model.p99_latency_ms_array(primary, secondary)
        assert batch.tolist() == scalar

    def test_scalar_secondary_broadcasts(self):
        model = LatencyModel(rng=RandomSource(13))
        batch = model.p99_latency_ms_array(np.array([0.1, 0.2, 0.3]), 0.0)
        assert batch.shape == (3,)

    def test_validation(self):
        model = LatencyModel(rng=RandomSource(14))
        with pytest.raises(ValueError):
            model.p99_latency_ms_array(np.array([1.5]), 0.0)
        with pytest.raises(ValueError):
            model.p99_latency_ms_array(np.array([0.5]), -0.1)


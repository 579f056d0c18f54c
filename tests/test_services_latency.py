"""Tests for the primary-tenant latency model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.latency_model import LatencyModel, LatencyModelConfig
from repro.simulation.random import RandomSource


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
        samples = [model.p99_latency_ms(0.3, 0.0) for _ in range(500)]
        assert 360.0 < float(np.mean(samples)) < 420.0

    def test_latency_without_interference_is_near_baseline(self):
        model = LatencyModel(rng=RandomSource(2))
        quiet = model.p99_latency_ms(0.4, 0.0)
        assert abs(quiet - model.config.baseline_ms) < 60.0

    def test_secondary_within_free_capacity_adds_little(self):
        model = LatencyModel(rng=RandomSource(3))
        # Primary at 30%, secondary at 30%: the reserve (33%) is untouched.
        values = [model.p99_latency_ms(0.3, 0.3) for _ in range(100)]
        assert float(np.mean(values)) < model.config.baseline_ms + 80.0

    def test_reserve_intrusion_increases_latency(self):
        model = LatencyModel(rng=RandomSource(4))
        polite = np.mean([model.p99_latency_ms(0.3, 0.3) for _ in range(100)])
        intrusive = np.mean([model.p99_latency_ms(0.3, 0.6) for _ in range(100)])
        assert intrusive > polite

    def test_overload_dominates(self):
        model = LatencyModel(rng=RandomSource(5))
        overloaded = np.mean([model.p99_latency_ms(0.7, 0.6) for _ in range(100)])
        fine = np.mean([model.p99_latency_ms(0.7, 0.0) for _ in range(100)])
        assert overloaded > fine + 300.0

    def test_latency_capped(self):
        model = LatencyModel(rng=RandomSource(6))
        assert model.p99_latency_ms(1.0, 5.0) <= model.config.max_latency_ms

    def test_validation(self):
        model = LatencyModel()
        with pytest.raises(ValueError):
            model.p99_latency_ms(1.5, 0.0)
        with pytest.raises(ValueError):
            model.p99_latency_ms(0.5, -1.0)
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
        latency = model.p99_latency_ms(primary, secondary, io)
        assert 0.0 < latency <= model.config.max_latency_ms


class TestLatencyModelArray:
    def test_matches_scalar_stream_exactly(self):
        scalar_model = LatencyModel(rng=RandomSource(11))
        array_model = LatencyModel(rng=RandomSource(11))
        primary = np.array([0.1, 0.4, 0.7, 0.9, 0.0, 0.55])
        secondary = np.array([0.0, 0.2, 0.3, 0.5, 0.1, 0.0])
        io = np.array([0.0, 0.0, 0.4, 0.1, 0.0, 1.0])
        scalar = [
            scalar_model.p99_latency_ms(float(p), float(s), float(i))
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
                scalar_model.p99_latency_ms(float(p), float(s))
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


"""Tests for the FFT spectrum analysis and pattern classification."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np
import pytest

from repro.analysis.classification import (
    ClassificationThresholds,
    classify_tenants,
    classify_trace,
)
from repro.analysis.fft import compute_spectrum
from repro.simulation.random import RandomSource
from repro.traces.datacenter import PrimaryTenant
from repro.traces.utilization import (
    SAMPLES_PER_DAY,
    TraceSpec,
    UtilizationPattern,
    UtilizationTrace,
    generate_trace,
)


def classification_accuracy(
    predicted: Mapping[str, UtilizationPattern],
    tenants: Iterable[PrimaryTenant],
) -> float:
    """Fraction of tenants whose inferred pattern matches the ground truth.

    Validates the classifier against the synthetic traces' known generating
    pattern; the policies themselves never see ground truth.
    """
    total = 0
    correct = 0
    for tenant in tenants:
        if tenant.pattern is None or tenant.tenant_id not in predicted:
            continue
        total += 1
        if predicted[tenant.tenant_id] is tenant.pattern:
            correct += 1
    if total == 0:
        return 0.0
    return correct / total


class TestSpectrum:
    def test_periodic_trace_peaks_at_daily_frequency(self):
        """Figure 1b: a strong signal at one cycle per day."""
        trace = generate_trace(
            TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=0.4),
            RandomSource(1),
        )
        profile = compute_spectrum(trace)
        assert profile.daily_frequency == 30
        assert profile.dominant_frequency in (
            profile.daily_frequency,
            2 * profile.daily_frequency,
        )
        assert profile.daily_strength > 0.5

    def test_unpredictable_trace_is_low_frequency_dominated(self):
        """Figure 1d: signal strength decays with frequency."""
        trace = generate_trace(
            TraceSpec(UtilizationPattern.UNPREDICTABLE, mean_utilization=0.3),
            RandomSource(2),
        )
        profile = compute_spectrum(trace)
        assert profile.daily_strength < 0.5
        assert profile.low_frequency_fraction > 0.3

    def test_flat_trace_has_zero_strengths(self):
        trace = UtilizationTrace(np.full(1000, 0.5), UtilizationPattern.CONSTANT)
        profile = compute_spectrum(trace)
        assert profile.daily_strength == 0.0
        assert profile.dominance == 0.0
        assert profile.std_utilization == 0.0

    def test_pure_sine_dominance_is_high(self):
        n = 10 * SAMPLES_PER_DAY
        t = np.arange(n)
        values = 0.4 + 0.3 * np.sin(2 * np.pi * t / SAMPLES_PER_DAY)
        trace = UtilizationTrace(values, UtilizationPattern.PERIODIC)
        profile = compute_spectrum(trace)
        assert profile.dominant_frequency == 10
        assert profile.dominance > 0.9

    def test_short_trace_rejected(self):
        trace = UtilizationTrace(np.array([0.1, 0.2]), UtilizationPattern.CONSTANT)
        with pytest.raises(ValueError):
            compute_spectrum(trace)

    def test_feature_vector_shape(self):
        trace = generate_trace(TraceSpec(UtilizationPattern.CONSTANT), RandomSource(3))
        assert compute_spectrum(trace).feature_vector().shape == (5,)


class TestClassification:
    @pytest.mark.parametrize("pattern", list(UtilizationPattern))
    def test_generated_traces_classified_correctly(self, pattern):
        trace = generate_trace(
            TraceSpec(pattern, mean_utilization=0.35), RandomSource(7)
        )
        assert classify_trace(trace) is pattern

    def test_thresholds_validation(self):
        with pytest.raises(ValueError):
            ClassificationThresholds(constant_std=-1.0)
        with pytest.raises(ValueError):
            ClassificationThresholds(periodic_daily_strength=0.0)

    def test_classify_tenants_skips_missing_traces(self, small_tenants):
        from repro.traces.datacenter import PrimaryTenant

        tenants = list(small_tenants) + [PrimaryTenant("no-trace", "env", "mf")]
        result = classify_tenants(tenants)
        assert "no-trace" not in result
        assert len(result) == len(small_tenants)

    def test_classification_accuracy_on_synthetic_fleet(self, tiny_dc9):
        predicted = classify_tenants(tiny_dc9.tenants.values())
        accuracy = classification_accuracy(predicted, tiny_dc9.tenants.values())
        assert accuracy > 0.8

    def test_accuracy_empty_is_zero(self):
        assert classification_accuracy({}, []) == 0.0

"""Pattern classification of primary tenants.

The clustering service first groups primary tenants into the three behaviour
patterns of Section 3.2 — periodic, constant, unpredictable — based on their
frequency profiles, and only then clusters within each pattern.  This module
implements that first step.

The decision rules are deliberately simple and order-dependent:

1. a tenant whose utilization barely varies is **constant**;
2. otherwise, a tenant whose spectral power concentrates around the daily
   frequency (and its first harmonic) is **periodic**;
3. everything else — power spread across low frequencies, i.e. driven by
   rare, aperiodic events — is **unpredictable**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.analysis.fft import FrequencyProfile, compute_spectrum
from repro.traces.datacenter import PrimaryTenant
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


@dataclass(frozen=True)
class ClassificationThresholds:
    """Tunable thresholds for the pattern classifier.

    Attributes:
        constant_std: a trace whose standard deviation (relative scale, i.e.
            utilization fraction) is below this value is called constant.
        periodic_daily_strength: minimum fraction of non-DC spectral power in
            the daily band for a trace to be called periodic.
    """

    constant_std: float = 0.05
    periodic_daily_strength: float = 0.35

    def __post_init__(self) -> None:
        if self.constant_std < 0:
            raise ValueError("constant_std must be non-negative")
        if not 0 < self.periodic_daily_strength <= 1:
            raise ValueError("periodic_daily_strength must be in (0, 1]")


DEFAULT_THRESHOLDS = ClassificationThresholds()


def classify_profile(
    profile: FrequencyProfile,
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
) -> UtilizationPattern:
    """Classify a frequency profile into one of the three patterns."""
    if profile.std_utilization < thresholds.constant_std:
        return UtilizationPattern.CONSTANT
    if profile.daily_strength >= thresholds.periodic_daily_strength:
        return UtilizationPattern.PERIODIC
    return UtilizationPattern.UNPREDICTABLE


def classify_trace(
    trace: UtilizationTrace,
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
) -> UtilizationPattern:
    """Classify a raw utilization trace (FFT + decision rules)."""
    return classify_profile(compute_spectrum(trace), thresholds)


def classify_tenants(
    tenants: Iterable[PrimaryTenant],
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
) -> Dict[str, UtilizationPattern]:
    """Classify every tenant that has a utilization trace.

    Returns a mapping from tenant id to the inferred pattern.  Tenants
    without a trace are skipped (they cannot be characterized, so the
    policies treat them as unpredictable elsewhere).
    """
    result: Dict[str, UtilizationPattern] = {}
    for tenant in tenants:
        if tenant.trace is None:
            continue
        result[tenant.tenant_id] = classify_trace(tenant.trace, thresholds)
    return result


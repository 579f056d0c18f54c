"""FFT-based periodicity analysis of utilization traces.

Section 3.2 transforms each tenant's month-long utilization series into the
frequency domain to spot periodicity: a user-facing tenant shows a strong
spike at the "once per day" frequency (31 cycles in a 31-day month in the
paper's example), while an unpredictable tenant's spectrum decays smoothly
with frequency because the signal is dominated by rare events.

The :class:`FrequencyProfile` produced here is also the feature vector handed
to the clustering service (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.utilization import SAMPLES_PER_DAY, UtilizationTrace


@dataclass
class FrequencyProfile:
    """Frequency-domain summary of one utilization trace.

    Only scalars: the spectrum itself is not kept, so a clustering service
    holding a profile per tenant holds no trace-sized arrays.

    Attributes:
        mean_utilization: time-domain mean of the trace.
        peak_utilization: time-domain 99th-percentile of the trace.
        std_utilization: time-domain standard deviation.
        daily_frequency: the cycle count corresponding to once per day.
        daily_strength: fraction of non-DC spectral power concentrated in a
            small band around the daily frequency and its first harmonic.
        dominant_frequency: non-DC frequency with the largest magnitude.
        dominance: fraction of non-DC power at the dominant frequency.
        low_frequency_fraction: fraction of non-DC power below half the daily
            frequency; high values indicate rare-event-driven (unpredictable)
            behaviour.
    """

    mean_utilization: float
    peak_utilization: float
    std_utilization: float
    daily_frequency: int
    daily_strength: float
    dominant_frequency: int
    dominance: float
    low_frequency_fraction: float

    def feature_vector(self) -> np.ndarray:
        """Compact features used by K-Means within a pattern class."""
        return np.array(
            [
                self.mean_utilization,
                self.peak_utilization,
                self.std_utilization,
                self.daily_strength,
                self.low_frequency_fraction,
            ]
        )


def compute_spectrum(trace: UtilizationTrace) -> FrequencyProfile:
    """Run the FFT on a utilization trace and summarize its spectrum."""
    values = trace.values
    n = len(values)
    if n < 4:
        raise ValueError(f"trace too short for spectral analysis ({n} samples)")

    centered = values - values.mean()
    spectrum = np.abs(np.fft.rfft(centered))

    power = spectrum**2
    non_dc_power = power[1:]
    total_power = float(non_dc_power.sum())

    days = n / SAMPLES_PER_DAY
    daily_frequency = max(1, int(round(days)))

    if total_power <= 0:
        # Perfectly flat trace: no periodicity, no variation.
        return FrequencyProfile(
            mean_utilization=float(values.mean()),
            peak_utilization=float(np.percentile(values, 99)),
            std_utilization=float(values.std()),
            daily_frequency=daily_frequency,
            daily_strength=0.0,
            dominant_frequency=0,
            dominance=0.0,
            low_frequency_fraction=0.0,
        )

    def band_power(center: int, halfwidth: int = 1) -> float:
        lo = max(1, center - halfwidth)
        hi = min(len(power) - 1, center + halfwidth)
        return float(power[lo : hi + 1].sum())

    daily_strength = (
        band_power(daily_frequency) + band_power(2 * daily_frequency)
    ) / total_power
    daily_strength = min(1.0, daily_strength)

    dominant_idx = int(np.argmax(non_dc_power)) + 1
    dominance = float(power[dominant_idx] / total_power)

    low_cut = max(1, daily_frequency // 2)
    low_frequency_fraction = float(power[1:low_cut + 1].sum() / total_power)

    return FrequencyProfile(
        mean_utilization=float(values.mean()),
        peak_utilization=float(np.percentile(values, 99)),
        std_utilization=float(values.std()),
        daily_frequency=daily_frequency,
        daily_strength=daily_strength,
        dominant_frequency=dominant_idx,
        dominance=dominance,
        low_frequency_fraction=low_frequency_fraction,
    )

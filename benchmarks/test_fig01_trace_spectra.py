"""Figure 1: periodic and unpredictable traces in time and frequency domains.

The paper's Figure 1 shows a month-long periodic trace with a strong spectral
spike at 31 cycles (one per day) and an unpredictable trace whose spectral
strength decays with frequency.  This benchmark regenerates both spectra from
the synthetic trace generators and checks those two signatures.
"""

from __future__ import annotations

from repro.analysis.fft import compute_spectrum
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces.utilization import TraceSpec, UtilizationPattern, generate_trace


def build_spectra():
    rng = RandomSource(1)
    periodic = generate_trace(
        TraceSpec(UtilizationPattern.PERIODIC, mean_utilization=0.4), rng.fork("p")
    )
    unpredictable = generate_trace(
        TraceSpec(UtilizationPattern.UNPREDICTABLE, mean_utilization=0.3), rng.fork("u")
    )
    return compute_spectrum(periodic), compute_spectrum(unpredictable)


def test_fig01_trace_spectra():
    periodic, unpredictable = build_spectra()

    print()
    print(format_table(
        ["trace", "daily freq", "dominant freq", "daily strength", "low-freq fraction"],
        [
            ["periodic", periodic.daily_frequency, periodic.dominant_frequency,
             f"{periodic.daily_strength:.2f}", f"{periodic.low_frequency_fraction:.2f}"],
            ["unpredictable", unpredictable.daily_frequency,
             unpredictable.dominant_frequency,
             f"{unpredictable.daily_strength:.2f}",
             f"{unpredictable.low_frequency_fraction:.2f}"],
        ],
        title="Figure 1: trace spectra",
    ))

    # Figure 1b: the periodic trace has a strong signal at the daily frequency.
    assert periodic.dominant_frequency in (
        periodic.daily_frequency, 2 * periodic.daily_frequency
    )
    assert periodic.daily_strength > 0.5
    # Figure 1d: the unpredictable trace is dominated by rare (low-frequency)
    # events rather than the daily harmonic.
    assert unpredictable.daily_strength < periodic.daily_strength
    assert unpredictable.low_frequency_fraction > 0.3

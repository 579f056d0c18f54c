"""Utilization scaling methods used by the datacenter simulator.

To explore the full utilization spectrum, the simulator multiplies each CPU
utilization time series by a constant factor and saturates at 100% ("linear"
scaling), or applies an nth-root transform that moves low utilizations more
than high ones and therefore avoids most saturation ("root" scaling)
— Section 6.1.  Linear scaling preserves (and at high factors amplifies)
temporal variation; root scaling compresses it, which is why the YARN-H
advantage is larger under linear scaling (Figure 13).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.traces.utilization import UtilizationTrace


class ScalingMethod(str, enum.Enum):
    """How to scale a utilization series towards a target level."""

    LINEAR = "linear"
    ROOT = "root"


def scale_trace(
    trace: UtilizationTrace, factor: float, method: ScalingMethod = ScalingMethod.LINEAR
) -> UtilizationTrace:
    """Scale a trace by ``factor`` using the requested method.

    Linear scaling multiplies every sample by ``factor`` and clips at 1.0.
    Root scaling raises every sample to the power ``1 / factor`` for
    ``factor >= 1`` (which lifts low values more than high ones) and to the
    power ``factor`` for ``factor < 1`` (which lowers them); the exponent
    form keeps the transform monotonic and saturation-free.
    """
    return UtilizationTrace(
        _scaled_values(trace.values, factor, method), trace.pattern, trace.spec
    )


def _scaled_values(
    values: np.ndarray, factor: float, method: ScalingMethod
) -> np.ndarray:
    """The scaled, clipped samples of :func:`scale_trace` as a fresh array.

    The final clip runs in place, so one call allocates one array of the
    trace's length: the fleet-mean bisection below evaluates this thousands
    of times, and each extra trace-sized temporary is a heap round trip.
    """
    if factor <= 0:
        raise ValueError(f"scaling factor must be positive (got {factor})")
    if method is ScalingMethod.LINEAR:
        scaled = values * factor
    elif method is ScalingMethod.ROOT:
        exponent = 1.0 / factor if factor >= 1.0 else 1.0 / factor
        scaled = np.power(np.clip(values, 0.0, 1.0), exponent)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown scaling method {method}")
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def scale_to_target_mean(
    trace: UtilizationTrace,
    target_mean: float,
    method: ScalingMethod = ScalingMethod.LINEAR,
    tolerance: float = 0.005,
    max_iterations: int = 60,
) -> UtilizationTrace:
    """Scale a trace so its mean utilization approaches ``target_mean``.

    The factor is found by bisection because saturation (linear) and the
    root transform make the mapping from factor to achieved mean non-linear.
    A trace whose mean cannot reach the target (e.g. target 0.95 with heavy
    saturation) is scaled as close as the method allows.
    """
    if not 0.0 < target_mean < 1.0:
        raise ValueError(f"target_mean must be in (0, 1) (got {target_mean})")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive (got {tolerance})")

    current = trace.mean()
    if current <= 0.0:
        # A completely idle tenant cannot be scaled up multiplicatively.
        return trace
    if abs(current - target_mean) <= tolerance:
        return trace

    low, high = 1e-3, 1.0
    # Grow the upper bound until it overshoots the target (or give up).
    for _ in range(64):
        if scale_trace(trace, high, method).mean() >= target_mean:
            break
        high *= 2.0
        if high > 1e4:
            break

    best = scale_trace(trace, high, method)
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        candidate = scale_trace(trace, mid, method)
        mean = candidate.mean()
        if abs(mean - target_mean) <= tolerance:
            return candidate
        if mean < target_mean:
            low = mid
        else:
            high = mid
        best = candidate
    return best


def fleet_scaling_factor(
    traces: "list[UtilizationTrace]",
    target_mean: float,
    method: ScalingMethod = ScalingMethod.LINEAR,
    weights: "list[float] | None" = None,
    tolerance: float = 0.005,
    max_iterations: int = 60,
) -> float:
    """A single scaling factor that moves a fleet's mean utilization to target.

    The simulator explores the utilization spectrum by multiplying *every*
    primary tenant's series by the same factor (Section 6.1); scaling each
    tenant individually would erase the cross-tenant diversity the policies
    rely on.  ``weights`` (e.g. server counts) weight each trace's
    contribution to the fleet mean.
    """
    if not traces:
        raise ValueError("cannot scale an empty fleet")
    if not 0.0 < target_mean < 1.0:
        raise ValueError(f"target_mean must be in (0, 1) (got {target_mean})")
    if weights is None:
        weights = [1.0] * len(traces)
    if len(weights) != len(traces):
        raise ValueError("weights must match traces")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ValueError("total weight must be positive")

    def fleet_mean(factor: float) -> float:
        scaled = [
            float(_scaled_values(trace.values, factor, method).mean()) * weight
            for trace, weight in zip(traces, weights)
        ]
        return float(sum(scaled) / total_weight)

    baseline = fleet_mean(1.0)
    if abs(baseline - target_mean) <= tolerance:
        return 1.0

    low, high = 1e-3, 1.0
    for _ in range(64):
        if fleet_mean(high) >= target_mean:
            break
        high *= 2.0
        if high > 1e4:
            break

    factor = high
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        mean = fleet_mean(mid)
        if abs(mean - target_mean) <= tolerance:
            return mid
        if mean < target_mean:
            low = mid
        else:
            high = mid
        factor = mid
    return factor


def scale_fleet_to_target_mean(
    traces: "list[UtilizationTrace]",
    target_mean: float,
    method: ScalingMethod = ScalingMethod.LINEAR,
    weights: "list[float] | None" = None,
) -> "list[UtilizationTrace]":
    """Scale every trace by the common factor from :func:`fleet_scaling_factor`."""
    factor = fleet_scaling_factor(traces, target_mean, method, weights)
    return [scale_trace(trace, factor, method) for trace in traces]


def saturation_fraction(trace: UtilizationTrace, threshold: float = 0.999) -> float:
    """Fraction of samples pinned at (or above) the saturation threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1] (got {threshold})")
    return float((trace.values >= threshold).mean())


def temporal_variation(trace: UtilizationTrace) -> float:
    """Standard deviation of the series — the quantity scaling distorts.

    Linear scaling amplifies this statistic (until saturation), root scaling
    dampens it; the schedulers' sensitivity to it is what Figure 13 measures.
    """
    return float(trace.values.std())

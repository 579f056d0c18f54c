"""Tail-latency model for the co-located latency-critical service.

The testbed measures the average of the servers' 99th-percentile response
times every minute while TPC-DS jobs harvest spare cycles.  We model the p99
latency of the Lucene-like service on one server as:

* a baseline latency with run-to-run variance (the paper's no-harvesting
  runs average 369-406 ms);
* a mild penalty proportional to how much of the *reserve* the secondary
  tenants eat into (the service can still burst, but the scheduler takes a
  few seconds to react);
* a steep queueing-style penalty when primary demand plus secondary
  allocations exceed the server's capacity — the regime stock YARN/HDFS puts
  servers into, which is what ruins tail latency in Figures 10 and 12.

The absolute milliseconds are calibrated to the published baseline; only the
relative ordering and rough magnitudes of the four configurations matter for
the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.simulation.random import RandomSource


@dataclass(frozen=True)
class LatencyModelConfig:
    """Parameters of the p99 latency model.

    Attributes:
        baseline_ms: median of the no-harvesting p99 latency.
        baseline_jitter_ms: run-to-run standard deviation of the baseline.
        reserve_penalty_ms: added p99 latency per unit of reserve fraction
            consumed by secondary tenants (small, transient interference).
        overload_penalty_ms: added p99 latency per unit of demand beyond the
            server's full capacity (severe queueing).
        max_latency_ms: cap to keep the model bounded under extreme overload.
    """

    baseline_ms: float = 388.0
    baseline_jitter_ms: float = 9.0
    reserve_penalty_ms: float = 120.0
    overload_penalty_ms: float = 2600.0
    max_latency_ms: float = 5000.0

    def __post_init__(self) -> None:
        if self.baseline_ms <= 0:
            raise ValueError("baseline_ms must be positive")
        if self.baseline_jitter_ms < 0:
            raise ValueError("baseline_jitter_ms must be non-negative")
        if self.max_latency_ms <= self.baseline_ms:
            raise ValueError("max_latency_ms must exceed baseline_ms")


class LatencyModel:
    """Computes per-server p99 latency from CPU contention."""

    def __init__(
        self,
        config: Optional[LatencyModelConfig] = None,
        rng: Optional[RandomSource] = None,
        reserve_fraction: float = 1.0 / 3.0,
    ) -> None:
        self.config = config or LatencyModelConfig()
        self._rng = rng or RandomSource(3)
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self._reserve_fraction = reserve_fraction

    def p99_latency_ms_array(
        self,
        primary_utilization: Union[np.ndarray, float],
        secondary_cpu_fraction: Union[np.ndarray, float],
        secondary_io_fraction: Union[np.ndarray, float] = 0.0,
    ) -> np.ndarray:
        """p99 latency of the primary service, per server (or minute).

        Args:
            primary_utilization: the primary tenant's own CPU demand as a
                fraction of the server.
            secondary_cpu_fraction: CPU fraction allocated to batch
                containers on the server.
            secondary_io_fraction: extra contention from secondary storage
                accesses served by the server (0..1).

        Inputs broadcast against each other; one baseline jitter draw
        (baseline plus jitter, at least 1 ms) is consumed per output
        element, in C (row-major) order, so the result is bit-identical to
        the per-server formula evaluated element by element against the
        same random stream (``tests/test_services_latency.py`` keeps that
        scalar form as the oracle).  Returns milliseconds.
        """
        primary = np.asarray(primary_utilization, dtype=float)
        secondary_cpu = np.asarray(secondary_cpu_fraction, dtype=float)
        secondary_io = np.asarray(secondary_io_fraction, dtype=float)
        if primary.size and (primary.min() < 0.0 or primary.max() > 1.0):
            raise ValueError("primary_utilization must be in [0, 1]")
        if (secondary_cpu.size and secondary_cpu.min() < 0) or (
            secondary_io.size and secondary_io.min() < 0
        ):
            raise ValueError("secondary fractions must be non-negative")
        shape = np.broadcast_shapes(
            primary.shape, secondary_cpu.shape, secondary_io.shape
        )

        latency = np.maximum(
            1.0,
            self._rng.generator.normal(
                self.config.baseline_ms, self.config.baseline_jitter_ms, size=shape
            ),
        )

        secondary = secondary_cpu + 0.5 * secondary_io
        headroom_wo_reserve = np.maximum(
            0.0, 1.0 - primary - self._reserve_fraction
        )
        reserve_intrusion = np.minimum(
            np.maximum(0.0, secondary - headroom_wo_reserve), self._reserve_fraction
        )
        if self._reserve_fraction > 0:
            latency = latency + (
                self.config.reserve_penalty_ms
                * reserve_intrusion
                / self._reserve_fraction
            )

        overload = np.maximum(0.0, primary + secondary - 1.0)
        latency = latency + self.config.overload_penalty_ms * overload

        return np.minimum(self.config.max_latency_ms, latency)

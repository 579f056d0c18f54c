"""Primary-tenant service models for the testbed experiments.

The testbed's primary tenant is a Lucene search service whose tail latency
the harvesting systems must not degrade.  We model the service's p99 response
time as a function of CPU contention on its server, which is enough to
reproduce the relative behaviour of the No-Harvesting / Stock / PT / History
configurations in Figures 10 and 12.
"""

from repro.services.latency_model import LatencyModel, LatencyModelConfig

__all__ = [
    "LatencyModel",
    "LatencyModelConfig",
]

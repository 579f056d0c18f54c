"""The benchmark's workloads: which scenario each one runs.

Every workload is one ``repro.api.run`` call of a registered scenario with
a few overrides, on the input seed the benchmark is given.  Two stress the
scheduler stack (saturated and lightly loaded) and two the storage stack
(repair churn and placement), so an optimisation of one layer has a
workload that exercises it and one that bypasses it.  The reason for each
is recorded beside its name in ``BENCHMARK.json``.

The overrides keep one serial run near 1.5-4 s on a 2-core host, so a 30 s
measurement holds several rounds, and keep the amount of work nearly the
same from seed to seed: the seed changes what is simulated, not how much.
``storage-repair`` therefore caps the fleet at two servers per tenant and
reimages one server at a time (about nine a day), where the registered
storm scenario's fleet size and storm count -- and with them its run time,
by up to 2x -- depend on the seed.  ``storage-place`` samples 500 reads per
cell instead of 2000: the runner draws each read in a Python loop that no
layer owns, and at 2000 that loop is a quarter of a tiny-scale cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registered scenario plus overrides."""

    name: str
    scenario: str
    overrides: Dict[str, Any] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sched-saturated", "fig13-dc9-sweep", {"utilization_levels": (0.45,)}),
        Workload("sched-live", "continuous-open", {"epochs": 32}),
        Workload(
            "storage-repair",
            "failure-storm",
            {
                "servers_per_tenant_limit": 2,
                "storm_rates_per_day": (9.0,),
                "storm_fraction": 0.001,
            },
        ),
        Workload(
            "storage-place",
            "fig16-availability",
            {
                "utilization_levels": (0.3, 0.4, 0.5, 0.6, 0.7),
                "accesses_per_point": 500,
            },
        ),
    )
}

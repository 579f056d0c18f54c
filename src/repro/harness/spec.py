"""Declarative experiment scenarios and the scenario registry.

A :class:`ScenarioSpec` captures everything a figure-reproducing experiment
needs — which datacenter, at what scale, which policy variants, over which
utilization levels — so a figure is data rather than a bespoke ``run_*``
function.  Registered specs can be listed and executed by name through the
CLI (``repro run-scenario --list``); user-defined scenarios register the
same way the built-in ones do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.harness.config import ExperimentScale, QUICK_SCALE
from repro.traces.scaling import ScalingMethod

#: Scenario kinds the harness knows how to run; each maps to one runner in
#: :mod:`repro.harness.runners`.
SCENARIO_KINDS = (
    "durability",
    "availability",
    "scheduling_sweep",
    "fleet_improvement",
    "scheduling_testbed",
    "storage_testbed",
    "continuous",
    "failure_storm",
    "heterogeneous_fleet",
    "antagonist",
    "predictor_ablation",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment scenario, declaratively.

    Attributes:
        name: unique scenario identifier (registry key).
        kind: which runner executes the scenario (see :data:`SCENARIO_KINDS`).
        description: one-line human summary.
        figure: paper figure(s) the scenario reproduces, e.g. ``"15"``.
        datacenter: fleet preset to build (``DC-0`` .. ``DC-9``).
        scale: cluster/workload/duration scale knobs.
        variants: policy variants to compare, in run order.
        replication_levels: replication factors for the storage scenarios.
        utilization_levels: target fleet utilizations to sweep.
        scalings: trace scaling methods to sweep.
        max_tenants: keep only the first N tenants (sorted by id).
        servers_per_tenant_limit: keep only the first N servers per tenant.
        seed: default random seed (overridable at run time).
        params: kind-specific extras (burst rates, access rates, ...).
    """

    name: str
    kind: str
    description: str = ""
    figure: str = ""
    datacenter: str = "DC-9"
    scale: ExperimentScale = QUICK_SCALE
    variants: Tuple[str, ...] = ()
    replication_levels: Tuple[int, ...] = (3, 4)
    utilization_levels: Tuple[float, ...] = ()
    scalings: Tuple[ScalingMethod, ...] = (ScalingMethod.LINEAR,)
    max_tenants: Optional[int] = None
    servers_per_tenant_limit: Optional[int] = None
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{', '.join(SCENARIO_KINDS)}"
            )
        # Each value names grid cells and result keys; a repeat would run
        # twice and keep one.
        grids = ("variants", "replication_levels", "utilization_levels", "scalings")
        for grid in grids:
            values = getattr(self, grid)
            if len(set(values)) != len(values):
                raise ValueError(
                    f"scenario {self.name!r} lists a value twice in {grid}: "
                    f"{tuple(values)}"
                )
        # A level is a replica count: the block table stores it as an int,
        # so 2.5 would silently run as 2, and 0 or -1 would only fail
        # inside a cell, after the context build.
        for level in self.replication_levels:
            if isinstance(level, bool) or not isinstance(level, int) or level <= 0:
                raise ValueError(
                    f"scenario {self.name!r} has replication level {level!r}; "
                    "each must be a positive int"
                )

    def param(self, key: str, default: Any = None) -> Any:
        """A kind-specific parameter, with a default."""
        return self.params.get(key, default)

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A copy of the spec with some fields replaced."""
        return replace(self, **changes)


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    spec: ScenarioSpec, replace_existing: bool = False
) -> ScenarioSpec:
    """Add a scenario to the registry; names must be unique."""
    if not replace_existing and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def iter_scenarios() -> Iterator[ScenarioSpec]:
    """Registered scenarios in name order."""
    for name in scenario_names():
        yield _REGISTRY[name]

"""The ``WorkloadSpec``: every random quantity of a workload, named.

One spec composes three halves the ROADMAP calls out (arrival times being
the fourth, already covered by :mod:`repro.harness.traffic`):

* :class:`JobShapeSpec` — the parametric family of job DAGs (stage counts,
  task fan-out, durations, per-stage jitter, container shapes).  The
  tapered-chain generator here is draw-for-draw identical to the legacy
  ``jobs/tpcds.py`` synthesizer, which now delegates to it.
* :class:`TenantMixSpec` — per-pattern tenant shares, the *named*
  primary-tenant utilization process (see
  :mod:`repro.workload.processes`), and a tenant *arrival* process for
  elastic primary load: new primary tenants appearing mid-run.
* an access-skew sampler (:mod:`repro.workload.distributions`) for the
  storage layer's block-read pattern.

Specs parse from the compact CLI string
(``"duration=uniform:low=40,high=90;shares=periodic:13,constant:3"``)
and serialize to plain dicts for trace headers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simulation.random import RandomSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jobs.dag import JobDag, Vertex
from repro.workload.distributions import (
    Distribution,
    Exponential,
    IntegerRange,
    SkewSampler,
    Uniform,
    UniformSkew,
    distribution_from_dict,
    parse_distribution,
    parse_finite,
    parse_skew,
    skew_from_dict,
)
from repro.workload.processes import UTILIZATION_PROCESSES

#: The tenant behaviour patterns a mix may name shares for.
TENANT_PATTERNS = ("periodic", "constant", "unpredictable")


@dataclass(frozen=True)
class JobShapeSpec:
    """A parametric family of tapered linear-chain job DAGs.

    ``generate_dag`` consumes its stream in the exact order the legacy
    TPC-DS synthesizer did: one stage-count draw, one base-width draw, one
    base-duration draw, then one width-jitter and one duration-jitter draw
    per stage.
    """

    stages: Distribution = field(default_factory=lambda: IntegerRange(3, 6))
    width: Distribution = field(default_factory=lambda: IntegerRange(20, 120))
    duration: Distribution = field(default_factory=lambda: Uniform(40.0, 90.0))
    width_jitter: Distribution = field(default_factory=lambda: Uniform(0.7, 1.3))
    duration_jitter: Distribution = field(default_factory=lambda: Uniform(0.6, 1.4))
    stage_taper: float = 0.25
    min_taper: float = 0.15
    container_cores: float = 1.0
    container_memory_gb: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.stage_taper <= 1.0:
            raise ValueError(
                f"stage_taper must be in [0, 1] (got {self.stage_taper})"
            )
        if self.min_taper <= 0:
            raise ValueError(f"min_taper must be positive (got {self.min_taper})")
        if self.container_cores <= 0 or self.container_memory_gb <= 0:
            raise ValueError("container shape must be positive")

    def generate_dag(self, name: str, rng: RandomSource) -> "JobDag":
        """One synthetic job: a tapered chain of ``stages`` vertices."""
        # Imported lazily: ``repro.jobs`` builds its TPC-DS synthesizer on
        # this module's shape specs, so a module-level import would make
        # the workload package unimportable on its own.
        from repro.jobs.dag import JobDag, Vertex

        num_stages = max(1, int(self.stages.sample(rng)))
        base_width = max(1, int(self.width.sample(rng)))
        base_duration = float(self.duration.sample(rng))
        vertices: List[Vertex] = []
        previous: Optional[str] = None
        for stage in range(num_stages):
            # Widths taper towards the end of the pipeline (reduce stages
            # are narrower than the scans that feed them).
            taper = max(self.min_taper, 1.0 - self.stage_taper * stage)
            width = max(
                1, int(round(base_width * taper * self.width_jitter.sample(rng)))
            )
            duration = base_duration * self.duration_jitter.sample(rng)
            stage_name = f"Stage {stage + 1}"
            upstream = [previous] if previous is not None else []
            vertices.append(Vertex(stage_name, width, duration, upstream=upstream))
            previous = stage_name
        return JobDag(
            name,
            vertices,
            container_resource_cores=self.container_cores,
            container_resource_memory_gb=self.container_memory_gb,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "stages": self.stages.to_dict(),
            "width": self.width.to_dict(),
            "duration": self.duration.to_dict(),
            "width_jitter": self.width_jitter.to_dict(),
            "duration_jitter": self.duration_jitter.to_dict(),
            "stage_taper": self.stage_taper,
            "min_taper": self.min_taper,
            "container_cores": self.container_cores,
            "container_memory_gb": self.container_memory_gb,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobShapeSpec":
        kwargs = dict(data)
        for key in ("stages", "width", "duration", "width_jitter",
                    "duration_jitter"):
            if key in kwargs:
                kwargs[key] = distribution_from_dict(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class TenantMixSpec:
    """Tenant-population half of a workload: shares, process, arrivals."""

    shares: Tuple[Tuple[str, float], ...] = (
        ("periodic", 13.0), ("constant", 3.0), ("unpredictable", 5.0),
    )
    utilization_process: str = "testbed"
    tenant_arrivals_per_hour: float = 0.0
    arrival_mean_utilization: Distribution = field(
        default_factory=lambda: Uniform(0.2, 0.6)
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "shares",
            tuple((str(p), float(s)) for p, s in self.shares),
        )
        if not self.shares:
            raise ValueError("tenant mix needs at least one pattern share")
        for pattern, share in self.shares:
            if pattern not in TENANT_PATTERNS:
                known = ", ".join(TENANT_PATTERNS)
                raise ValueError(
                    f"unknown tenant pattern {pattern!r}; known: {known}"
                )
            if share < 0:
                raise ValueError(
                    f"share for {pattern!r} must be non-negative (got {share})"
                )
        if sum(share for _, share in self.shares) <= 0:
            raise ValueError("tenant shares must sum to a positive value")
        if self.utilization_process not in UTILIZATION_PROCESSES:
            known = ", ".join(sorted(UTILIZATION_PROCESSES))
            raise ValueError(
                f"unknown utilization process {self.utilization_process!r}; "
                f"known: {known}"
            )
        if self.tenant_arrivals_per_hour < 0:
            raise ValueError(
                "tenant_arrivals_per_hour must be non-negative "
                f"(got {self.tenant_arrivals_per_hour})"
            )

    def share_weights(self) -> Tuple[Tuple[str, float], ...]:
        """Shares normalized to probabilities, in declaration order."""
        total = sum(share for _, share in self.shares)
        return tuple((p, s / total) for p, s in self.shares)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shares": [list(pair) for pair in self.shares],
            "utilization_process": self.utilization_process,
            "tenant_arrivals_per_hour": self.tenant_arrivals_per_hour,
            "arrival_mean_utilization": self.arrival_mean_utilization.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantMixSpec":
        kwargs = dict(data)
        if "shares" in kwargs:
            kwargs["shares"] = tuple(tuple(pair) for pair in kwargs["shares"])
        if "arrival_mean_utilization" in kwargs:
            kwargs["arrival_mean_utilization"] = distribution_from_dict(
                kwargs["arrival_mean_utilization"]
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: job shapes + tenant mix + access skew."""

    name: str = "default"
    shape: JobShapeSpec = field(default_factory=JobShapeSpec)
    interarrival: Distribution = field(default_factory=lambda: Exponential(300.0))
    mix: TenantMixSpec = field(default_factory=TenantMixSpec)
    skew: SkewSampler = field(default_factory=UniformSkew)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "shape": self.shape.to_dict(),
            "interarrival": self.interarrival.to_dict(),
            "mix": self.mix.to_dict(),
            "skew": self.skew.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        return cls(
            name=str(data.get("name", "default")),
            shape=JobShapeSpec.from_dict(data.get("shape", {})),
            interarrival=distribution_from_dict(
                data.get("interarrival", Exponential(300.0).to_dict())
            ),
            mix=TenantMixSpec.from_dict(data.get("mix", {})),
            skew=skew_from_dict(data.get("skew", UniformSkew().to_dict())),
        )


#: The spec the legacy testbed workload corresponds to.
DEFAULT_WORKLOAD = WorkloadSpec()

#: Compact-string keys ``parse_workload`` understands.
_SHAPE_KEYS = ("stages", "width", "duration", "width_jitter", "duration_jitter")
_KNOWN_KEYS = _SHAPE_KEYS + (
    "interarrival", "shares", "skew", "process", "tenant_arrivals_per_hour",
    "arrival_mean",
)


def _parse_shares(body: str) -> Tuple[Tuple[str, float], ...]:
    shares: List[Tuple[str, float]] = []
    for item in filter(None, body.split(",")):
        pattern, sep, raw = item.partition(":")
        if not sep:
            raise ValueError(
                f"bad share {item!r}: expected pattern:share (e.g. periodic:13)"
            )
        try:
            shares.append((pattern.strip(), parse_finite(pattern.strip(), raw)))
        except ValueError as error:
            raise ValueError(f"bad share {item!r}: {error}") from None
    return tuple(shares)


def parse_workload(text: str, base: Optional[WorkloadSpec] = None) -> WorkloadSpec:
    """Overlay compact ``key=value`` fields (``;``-separated) onto ``base``.

    Distribution-valued fields take the compact distribution syntax, e.g.
    ``"duration=uniform:low=40,high=90;shares=periodic:13,constant:3"``.
    Raises :class:`ValueError` on unknown or repeated keys, unknown
    distribution or process names, and negative rates/shares.
    """
    spec = base or DEFAULT_WORKLOAD
    shape, mix = spec.shape, spec.mix
    interarrival, skew = spec.interarrival, spec.skew
    seen = set()
    for item in filter(None, (f.strip() for f in text.split(";"))):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not value:
            raise ValueError(f"bad workload field {item!r}: expected key=value")
        if key in seen:
            raise ValueError(f"repeated workload field {key!r}")
        seen.add(key)
        if key in _SHAPE_KEYS:
            shape = replace(shape, **{key: parse_distribution(value)})
        elif key == "interarrival":
            interarrival = parse_distribution(value)
        elif key == "shares":
            mix = replace(mix, shares=_parse_shares(value))
        elif key == "skew":
            skew = parse_skew(value)
        elif key == "process":
            mix = replace(mix, utilization_process=value.strip())
        elif key == "tenant_arrivals_per_hour":
            try:
                rate = parse_finite(key, value)
            except ValueError as error:
                raise ValueError(f"bad workload field {item!r}: {error}") from None
            mix = replace(mix, tenant_arrivals_per_hour=rate)
        elif key == "arrival_mean":
            mix = replace(mix, arrival_mean_utilization=parse_distribution(value))
        else:
            known = ", ".join(_KNOWN_KEYS)
            raise ValueError(f"unknown workload field {key!r}; known: {known}")
    return replace(
        spec, shape=shape, mix=mix, interarrival=interarrival, skew=skew
    )


def workload_from_param(value: object,
                        base: Optional[WorkloadSpec] = None) -> WorkloadSpec:
    """A scenario's ``params["workload"]`` string resolved to a spec."""
    if value in (None, ""):
        return base or DEFAULT_WORKLOAD
    if not isinstance(value, str):
        raise ValueError(
            f"workload param must be a compact spec string (got {value!r})"
        )
    return parse_workload(value, base)

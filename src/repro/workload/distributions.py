"""Named, seeded parametric distributions — the workload substrate's atoms.

A :class:`WorkloadSpec` names every random quantity of a workload (stage
counts, task fan-out, durations, inter-arrival gaps, access skew) by a
*distribution name* plus parameters.  Each distribution here is a frozen
dataclass whose :meth:`Distribution.sample` performs its draws through
exactly the :class:`~repro.simulation.random.RandomSource` calls a scalar
loop would make, so

* refactoring an existing generator onto a distribution object is
  draw-for-draw identical (the committed fingerprints do not move), and
* the determinism suite can mirror every ``sample`` with a direct
  ``RandomSource`` oracle call.

The module also carries the *access-skew* samplers (uniform / Zipf /
hotspot over a runtime-sized index range) used by the storage layer, and
the compact-string parsers the CLI exposes
(``"uniform:low=20,high=60"``, ``"zipf:alpha=1.2"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar, Dict, Tuple, Type

import numpy as np

from repro.simulation.random import RandomSource

#: Registry of distribution name -> class, populated by ``_distribution``.
DISTRIBUTIONS: Dict[str, Type["Distribution"]] = {}

#: Registry of skew-sampler name -> class, populated by ``_skew``.
SKEWS: Dict[str, Type["SkewSampler"]] = {}


def _distribution(cls: Type["Distribution"]) -> Type["Distribution"]:
    DISTRIBUTIONS[cls.name] = cls
    return cls


def _skew(cls: Type["SkewSampler"]) -> Type["SkewSampler"]:
    SKEWS[cls.name] = cls
    return cls


class Distribution:
    """A named scalar distribution sampled through a RandomSource."""

    name: ClassVar[str] = ""

    def sample(self, rng: RandomSource) -> float:
        """Draw one value, consuming ``rng`` exactly once per draw."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        """The distribution as ``{"name": ..., **params}`` (JSON-safe)."""
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"name": self.name, **params}


@_distribution
@dataclass(frozen=True)
class Constant(Distribution):
    """Always ``value``; draws nothing from the stream."""

    name: ClassVar[str] = "constant"
    value: float = 0.0

    def sample(self, rng: RandomSource) -> float:
        return float(self.value)


@_distribution
@dataclass(frozen=True)
class Uniform(Distribution):
    """``rng.uniform(low, high)``."""

    name: ClassVar[str] = "uniform"
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(
                f"uniform requires low <= high (got {self.low} > {self.high})"
            )

    def sample(self, rng: RandomSource) -> float:
        return rng.uniform(self.low, self.high)


@_distribution
@dataclass(frozen=True)
class Exponential(Distribution):
    """``rng.exponential(mean)``; ``mean`` must be positive."""

    name: ClassVar[str] = "exponential"
    mean: float = 1.0

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError(f"exponential mean must be positive (got {self.mean})")

    def sample(self, rng: RandomSource) -> float:
        return rng.exponential(self.mean)


@_distribution
@dataclass(frozen=True)
class Normal(Distribution):
    """``rng.normal(mean, std)``; ``std`` must be non-negative."""

    name: ClassVar[str] = "normal"
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError(f"normal std must be non-negative (got {self.std})")

    def sample(self, rng: RandomSource) -> float:
        return rng.normal(self.mean, self.std)


@_distribution
@dataclass(frozen=True)
class BoundedNormal(Distribution):
    """``rng.bounded_normal(mean, std, low, high)``."""

    name: ClassVar[str] = "bounded_normal"
    mean: float = 0.5
    std: float = 0.1
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError(
                f"bounded_normal std must be non-negative (got {self.std})"
            )
        if self.high < self.low:
            raise ValueError(
                f"bounded_normal requires low <= high (got {self.low} > {self.high})"
            )

    def sample(self, rng: RandomSource) -> float:
        return rng.bounded_normal(self.mean, self.std, self.low, self.high)


@_distribution
@dataclass(frozen=True)
class IntegerRange(Distribution):
    """``rng.integer(low, high)`` — ``high`` exclusive, returns an int."""

    name: ClassVar[str] = "integer"
    low: int = 0
    high: int = 1

    def __post_init__(self) -> None:
        for attr in ("low", "high"):
            value = getattr(self, attr)
            if float(value) != int(value):
                raise ValueError(f"integer {attr} must be integral (got {value})")
            object.__setattr__(self, attr, int(value))
        if self.high <= self.low:
            raise ValueError(
                f"integer requires low < high (got low={self.low}, high={self.high})"
            )

    def sample(self, rng: RandomSource) -> int:
        return rng.integer(self.low, self.high)


@_distribution
@dataclass(frozen=True)
class Categorical(Distribution):
    """One of ``values`` with probability proportional to ``weights``.

    Draws exactly one ``rng.weighted_index(weights)`` per sample.
    """

    name: ClassVar[str] = "categorical"
    values: Tuple[float, ...] = ()
    weights: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.values:
            raise ValueError("categorical requires at least one value")
        if len(self.values) != len(self.weights):
            raise ValueError(
                "categorical values and weights must have the same length "
                f"(got {len(self.values)} vs {len(self.weights)})"
            )
        if any(w < 0 for w in self.weights):
            raise ValueError(f"categorical weights must be non-negative "
                             f"(got {list(self.weights)})")
        if sum(self.weights) <= 0:
            raise ValueError("categorical weights must sum to a positive value")

    def sample(self, rng: RandomSource):
        return self.values[rng.weighted_index(self.weights)]


# ---------------------------------------------------------------------------
# Access-skew samplers: an index in [0, n) where n is only known at run time
# ---------------------------------------------------------------------------


class SkewSampler:
    """A named sampler of indices in ``[0, n)`` for block-access skew."""

    name: ClassVar[str] = ""

    def index(self, rng: RandomSource, n: int) -> int:
        """Draw one index; ``n`` is the live population size."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"name": self.name, **params}


@_skew
@dataclass(frozen=True)
class UniformSkew(SkewSampler):
    """Every index equally likely — draw-identical to ``rng.integer(0, n)``."""

    name: ClassVar[str] = "uniform"

    def index(self, rng: RandomSource, n: int) -> int:
        return int(rng.integer(0, n))


@lru_cache(maxsize=64)
def _zipf_cdf(alpha: float, n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** alpha
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


@_skew
@dataclass(frozen=True)
class ZipfSkew(SkewSampler):
    """Rank-``alpha`` Zipf over creation order (index 0 is the hottest).

    One ``rng.uniform()`` draw inverted through the cached harmonic CDF.
    """

    name: ClassVar[str] = "zipf"
    alpha: float = 1.1

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"zipf alpha must be positive (got {self.alpha})")

    def index(self, rng: RandomSource, n: int) -> int:
        return int(np.searchsorted(_zipf_cdf(self.alpha, n), rng.uniform(),
                                   side="right"))


@_skew
@dataclass(frozen=True)
class HotspotSkew(SkewSampler):
    """``hot_weight`` of traffic lands on the first ``hot_fraction`` of ids.

    Two draws per sample: one uniform for the hot/cold decision, one
    integer for the index within the chosen range.
    """

    name: ClassVar[str] = "hotspot"
    hot_fraction: float = 0.1
    hot_weight: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(
                f"hotspot hot_fraction must be in (0, 1] (got {self.hot_fraction})"
            )
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError(
                f"hotspot hot_weight must be in [0, 1] (got {self.hot_weight})"
            )

    def index(self, rng: RandomSource, n: int) -> int:
        hot = min(n, max(1, int(round(n * self.hot_fraction))))
        if rng.uniform() < self.hot_weight:
            return int(rng.integer(0, hot))
        return int(rng.integer(0, n))


# ---------------------------------------------------------------------------
# Construction and compact-string parsing
# ---------------------------------------------------------------------------


def make_distribution(name: str, **params) -> Distribution:
    """Build a distribution by registry name; unknown names fail loudly."""
    try:
        cls = DISTRIBUTIONS[name]
    except KeyError:
        known = ", ".join(sorted(DISTRIBUTIONS))
        raise ValueError(f"unknown distribution {name!r}; known: {known}") from None
    try:
        return cls(**params)
    except TypeError as error:
        raise ValueError(f"bad parameters for distribution {name!r}: {error}") from None


def make_skew(name: str, **params) -> SkewSampler:
    """Build a skew sampler by registry name; unknown names fail loudly."""
    try:
        cls = SKEWS[name]
    except KeyError:
        known = ", ".join(sorted(SKEWS))
        raise ValueError(f"unknown skew {name!r}; known: {known}") from None
    try:
        return cls(**params)
    except TypeError as error:
        raise ValueError(f"bad parameters for skew {name!r}: {error}") from None


def parse_finite(key: str, raw: str) -> float:
    """The number of a compact ``key=raw`` field; NaN and infinities rejected.

    A non-finite parameter would otherwise pass every ``<= 0``-style domain
    check and, e.g., stall an arrival loop whose exit test NaN never meets.
    """
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{key}={raw} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{key}={raw} is not a finite number")
    return value


def _parse_params(body: str, context: str) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for item in filter(None, body.split(",")):
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(
                f"bad {context} parameter {item!r}: expected key=value"
            )
        key = key.strip()
        if key in params:
            raise ValueError(
                f"bad {context} parameter {item!r}: repeated key {key!r}"
            )
        try:
            params[key] = parse_finite(key, raw)
        except ValueError as error:
            raise ValueError(f"bad {context} parameter {item!r}: {error}") from None
    return params


def parse_distribution(text: str) -> Distribution:
    """Parse ``"name:key=value,..."`` (e.g. ``"uniform:low=20,high=60"``)."""
    name, _, body = text.strip().partition(":")
    return make_distribution(name, **_parse_params(body, f"distribution {name!r}"))


def parse_skew(text: str) -> SkewSampler:
    """Parse ``"name:key=value,..."`` (e.g. ``"zipf:alpha=1.2"``)."""
    name, _, body = text.strip().partition(":")
    return make_skew(name, **_parse_params(body, f"skew {name!r}"))


def distribution_from_dict(data: Dict[str, object]) -> Distribution:
    """Inverse of :meth:`Distribution.to_dict`."""
    params = dict(data)
    name = params.pop("name", None)
    if not isinstance(name, str):
        raise ValueError(f"distribution record needs a 'name' field (got {data!r})")
    if name == "categorical":
        params["values"] = tuple(params.get("values", ()))
        params["weights"] = tuple(params.get("weights", ()))
    return make_distribution(name, **params)


def skew_from_dict(data: Dict[str, object]) -> SkewSampler:
    """Inverse of :meth:`SkewSampler.to_dict`."""
    params = dict(data)
    name = params.pop("name", None)
    if not isinstance(name, str):
        raise ValueError(f"skew record needs a 'name' field (got {data!r})")
    return make_skew(name, **params)

"""Seeded random source shared by trace generators and simulators.

Everything stochastic in the library draws from a :class:`RandomSource`, a
thin wrapper around :class:`numpy.random.Generator` that adds the couple of
distributions the harvesting simulators need (Poisson inter-arrival streams,
bounded normals) and supports deterministic forking so that sub-components
get independent but reproducible streams.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

T = TypeVar("T")


def child_seed(parent_seed: int, fork_index: int, label: str = "") -> int:
    """The seed :meth:`RandomSource.fork` assigns to its ``fork_index``-th
    child (1-based), given the parent's seed and the fork label.

    Seed derivation is pure arithmetic — no generator draws — so a fork
    sequence can be replayed from the parent seed alone.  This is what lets
    cell grids be enumerated from a spec without building any simulation
    state (see :class:`ForkSequence`).
    """
    label_hash = sum(ord(c) * (31 ** (i % 8)) for i, c in enumerate(label)) % (2**31)
    return (int(parent_seed) * 1_000_003 + int(fork_index) * 7919 + label_hash) % (
        2**63
    )


class ForkSequence:
    """Replays a :class:`RandomSource`'s fork-seed sequence without one.

    A ``ForkSequence(seed)`` yields, via :meth:`fork_seed`, exactly the
    child seeds ``RandomSource(seed).fork(label).seed`` would yield for the
    same label sequence — but it carries no generator, so replaying a
    scenario's fork order costs nothing.  Used by the spec-only cell
    enumeration fast path.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.fork_count = 0

    def fork_seed(self, label: str = "") -> int:
        """Seed of the next child stream (advances the fork index)."""
        self.fork_count += 1
        return child_seed(self.seed, self.fork_count, label)


class RandomSource:
    """Deterministic random source with hierarchical forking."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._rng = np.random.default_rng(self._seed)
        self._fork_count = 0

    @property
    def seed(self) -> int:
        """Seed this source was created with."""
        return self._seed

    @property
    def fork_count(self) -> int:
        """How many child streams have been forked off this source."""
        return self._fork_count

    def fork(self, label: str = "") -> "RandomSource":
        """Create an independent child stream.

        The child's seed is derived from the parent seed, the fork index, and
        a stable hash of the label so that adding a new fork in one place
        does not perturb the streams used elsewhere when the label differs.
        """
        self._fork_count += 1
        return RandomSource(child_seed(self._seed, self._fork_count, label))

    # -- state capture / restore ------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The source's exact position: seed, fork index, and generator state.

        The ``bit_generator`` entry is numpy's own state dict (PCG64 counters
        included), so a restored source continues the draw stream bit for bit
        and its next :meth:`fork` assigns the same child seed the original
        would have.
        """
        return {
            "seed": self._seed,
            "fork_count": self._fork_count,
            "bit_generator": self._rng.bit_generator.state,
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore a position captured by :meth:`state_dict` in place."""
        self._seed = int(state["seed"])
        self._fork_count = int(state["fork_count"])
        self._rng = np.random.default_rng(self._seed)
        self._rng.bit_generator.state = state["bit_generator"]

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RandomSource":
        """A new source positioned exactly where :meth:`state_dict` was taken."""
        source = cls(int(state["seed"]))
        source.set_state(state)
        return source

    # -- scalar draws -----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A single uniform draw in ``[low, high)``."""
        return float(self._rng.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """A single integer draw in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """A single normal draw."""
        return float(self._rng.normal(mean, std))

    def bounded_normal(
        self, mean: float, std: float, low: float, high: float
    ) -> float:
        """A normal draw clipped into ``[low, high]``."""
        return float(np.clip(self._rng.normal(mean, std), low, high))

    def exponential(self, mean: float) -> float:
        """A single exponential draw with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive (got {mean})")
        return float(self._rng.exponential(mean))

    def poisson(self, lam: float) -> int:
        """A single Poisson draw."""
        return int(self._rng.poisson(lam))

    def choice(self, items: Sequence[T], p: Optional[Sequence[float]] = None) -> T:
        """Pick one element, optionally with probabilities ``p``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        if p is None:
            # Stream-identical to Generator.choice(n) but without its array
            # bookkeeping; uniform picks happen once per placement decision.
            idx = int(self._rng.integers(0, len(items)))
        else:
            idx = int(self._rng.choice(len(items), p=p))
        return items[idx]

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Pick an index with probability proportional to ``weights``.

        Non-positive total weight falls back to a uniform pick, which mirrors
        the behaviour the schedulers need when every candidate has zero
        headroom but one must still be chosen.
        """
        weights = np.asarray(weights, dtype=float)
        if len(weights) == 0:
            raise ValueError("cannot pick from empty weights")
        total = float(weights.sum())
        if total <= 0 or not np.isfinite(total):
            return int(self._rng.integers(0, len(weights)))
        # Inline of Generator.choice(n, p=weights/total) for a single draw:
        # choice normalizes to a cdf and searchsorts one uniform sample, so
        # this consumes the stream and resolves ties bit-identically while
        # skipping choice's per-call probability validation.
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self._rng.random(), side="right"))

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a new shuffled copy of ``items``."""
        out = list(items)
        self._rng.shuffle(out)  # type: ignore[arg-type]
        return out

    def shuffle_array(self, values: np.ndarray) -> np.ndarray:
        """A shuffled copy of a 1-D array.

        ``Generator.shuffle`` draws one bounded integer per Fisher-Yates
        step for ndarrays exactly as it does for Python sequences of the
        same length, so this is a draw-exact, allocation-free replacement
        for :meth:`shuffle` on index arrays (the vectorized placement paths
        shuffle candidate indices instead of candidate objects).
        """
        out = np.array(values)
        self._rng.shuffle(out)
        return out

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements."""
        if k > len(items):
            raise ValueError(f"cannot sample {k} items from {len(items)}")
        idx = self._rng.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in idx]

    # -- vector draws -----------------------------------------------------

    def normal_array(self, mean: float, std: float, size: int) -> np.ndarray:
        """Vector of normal draws."""
        return self._rng.normal(mean, std, size=size)

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        """Vector of uniform draws."""
        return self._rng.uniform(low, high, size=size)

    def poisson_process(self, rate_per_second: float, duration: float) -> list[float]:
        """Arrival times of a homogeneous Poisson process over ``duration``.

        ``rate_per_second`` of zero (or a non-positive duration) yields an
        empty stream rather than an error, because many primary tenants are
        never reimaged in a simulated year.

        Implemented as a vectorized thinning pass: exponential gaps are drawn
        in surplus chunks and cumulative-summed, the chunk is thinned to the
        exact prefix the scalar ``while`` loop would have consumed, and the
        generator state is rewound and re-advanced by exactly that many
        draws.  The emitted times *and* the stream position afterwards are
        therefore bit-identical to drawing one gap at a time, so fixed-seed
        reimage schedules (and everything downstream of them) are unchanged.
        """
        if rate_per_second <= 0 or duration <= 0:
            return []
        scale = 1.0 / rate_per_second
        # Expected draws plus headroom; one chunk almost always suffices.
        chunk = max(4, int(rate_per_second * duration * 1.5) + 8)
        times: list[float] = []
        base = 0.0
        while True:
            state = self._rng.bit_generator.state
            draws = self._rng.exponential(scale, size=chunk)
            # Prepending the running total keeps the accumulation fold-left
            # (((base + d1) + d2) + ...), bit-identical to the scalar loop's
            # ``t += gap`` even across chunk boundaries.
            cum = np.cumsum(np.concatenate(([base], draws)))[1:]
            over = np.nonzero(cum >= duration)[0]
            if len(over):
                ended = int(over[0])
                # Thin the surplus: rewind, then consume exactly the
                # ``ended + 1`` draws the scalar loop would have taken.
                self._rng.bit_generator.state = state
                self._rng.exponential(scale, size=ended + 1)
                times.extend(cum[:ended].tolist())
                return times
            times.extend(cum.tolist())
            base = float(cum[-1])

    def uniform_index_pairs(
        self, low: float, high: float, n: int, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` pairs of ``(uniform(low, high), integer(0, n))`` draws.

        Stream-identical to the scalar loop that alternates the two draws
        (values *and* generator position afterwards), but built from one
        bulk ``random_raw`` call.  Under PCG64 (``default_rng``'s bit
        generator) each uniform consumes one 64-bit word; each bounded
        integer (Lemire's method on 32 bits) takes the low half of a fresh
        word and leaves the high half buffered for the next one, so two
        pairs use three words.  When any draw would hit Lemire's rejection
        branch, or ``n`` leaves the 32-bit path, the generator is rewound
        and the scalar loop runs instead.
        """
        if count <= 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        if 1 < n < 2**32:
            bit_generator = self._rng.bit_generator
            state = bit_generator.state
            buffered = int(state["has_uint32"])
            # Pair i's integer takes fresh half ``half[i]`` (-1: the half
            # already buffered); an even half is the low one of a word
            # fetched right after pair i's uniform word.
            pair = np.arange(count, dtype=np.int64)
            half = pair - buffered
            uniform_at = pair + (np.maximum(half, 0) + 1) // 2
            fetches = half % 2 == 0
            word_at = uniform_at[fetches] + 1
            raw = bit_generator.random_raw(int(uniform_at[-1]) + 1 + int(fetches[-1]))
            fresh = half[buffered:]
            words = raw[word_at[fresh // 2]]
            halves = np.where(fresh % 2 == 0, words & 0xFFFFFFFF, words >> 32)
            if buffered:
                halves = np.concatenate(([np.uint64(state["uinteger"])], halves))
            scaled = halves * np.uint64(n)
            if not (scaled & 0xFFFFFFFF < (2**32 - n) % n).any():
                after = bit_generator.state
                after["has_uint32"] = len(fresh) % 2
                if len(word_at):
                    after["uinteger"] = int(raw[word_at[-1]] >> 32)
                bit_generator.state = after
                uniforms = (raw[uniform_at] >> 11) * (1.0 / 9007199254740992.0)
                return low + (high - low) * uniforms, (scaled >> 32).astype(np.int64)
            bit_generator.state = state
        uniforms = np.empty(count)
        indices = np.empty(count, dtype=np.int64)
        for i in range(count):
            uniforms[i] = self._rng.uniform(low, high)
            indices[i] = self._rng.integers(0, n)
        return uniforms, indices

    @contextmanager
    def bounded_integers(self, expected: int) -> Iterator[Callable[[int], int]]:
        """Serve a run of ``integer(0, n)`` draws from one bulk draw.

        Inside the block, ``draw(n)`` returns exactly what
        :meth:`integer` ``(0, n)`` would at that point of the stream, for
        ``1 <= n < 2**32``.  numpy's bounded draw (Lemire's method)
        multiplies the next 32-bit output — the stream
        ``integers(0, 2**32, dtype=uint32)`` emits — by ``n`` and redraws
        only on a rare rejection, and ``n == 1`` consumes nothing, so the
        draws are replayed from ``expected`` pre-drawn words (more are
        drawn on demand).  On exit the generator is rewound and advanced by
        exactly the words consumed.  Draw nothing else from this source
        inside the block.
        """
        bit_generator = self._rng.bit_generator
        start = bit_generator.state
        words: List[int] = []
        used = 0

        def draw(n: int) -> int:
            nonlocal used
            if not 1 <= n < 2**32:
                raise ValueError(f"bounded draws need 1 <= n < 2**32 (got {n})")
            if n == 1:
                return 0
            while True:
                if used == len(words):
                    words.extend(
                        self._rng.integers(
                            0, 2**32, size=max(16, expected), dtype=np.uint32
                        ).tolist()
                    )
                scaled = words[used] * n
                used += 1
                leftover = scaled & 0xFFFFFFFF
                # Lemire's threshold is below n: skip the modulo when it can.
                if leftover >= n or leftover >= (2**32 - n) % n:
                    return scaled >> 32

        try:
            yield draw
        finally:
            bit_generator.state = start
            if used:
                self._rng.integers(0, 2**32, size=used, dtype=np.uint32)

    def exponential_interarrivals(self, mean: float) -> Iterator[float]:
        """Infinite stream of exponential inter-arrival gaps."""
        while True:
            yield float(self._rng.exponential(mean))

    @property
    def generator(self) -> np.random.Generator:
        """Access to the underlying numpy generator for bulk operations."""
        return self._rng

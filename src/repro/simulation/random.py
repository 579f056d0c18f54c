"""Seeded random source shared by trace generators and simulators.

Everything stochastic in the library draws from a :class:`RandomSource`, a
thin wrapper around :class:`numpy.random.Generator` that adds the couple of
distributions the harvesting simulators need (Poisson inter-arrival streams,
bounded normals) and supports deterministic forking so that sub-components
get independent but reproducible streams.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

T = TypeVar("T")


def pairwise_sum(values: Sequence[float], start: int, count: int) -> float:
    """``values[start:start + count]`` summed in numpy's float64 order.

    numpy reduces a contiguous float64 array from 0.0 by pairwise summation:
    fewer than 8 values add left to right; up to 128 accumulate in 8 strided
    partial sums, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the
    remainder past the last multiple of 8 adds on in order; larger blocks
    split at half the count rounded down to a multiple of 8 and add the two
    halves' sums.  Reproducing that order reproduces ``array.sum()`` exactly.
    """
    if count < 8:
        total = 0.0
        for i in range(start, start + count):
            total += values[i]
        return total
    if count <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
        stop = start + count - count % 8
        i = start + 8
        while i < stop:
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
            i += 8
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, start + count):
            total += values[i]
        return total
    half = count // 2
    half -= half % 8
    return pairwise_sum(values, start, half) + pairwise_sum(
        values, start + half, count - half
    )


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
        if self._rng is _SESSION_OPEN:
            raise _SessionOpen.error()
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

    def weighted_index_floats(self, weights: List[float]) -> int:
        """:meth:`weighted_index` over a plain list of floats, bit for bit.

        The same index from the same stream position, without building
        arrays: the total is numpy's pairwise sum (:func:`pairwise_sum`),
        the cdf a sequential cumulative sum of ``weight / total`` divided by
        its last value, and the uniform sample is bisected to the right, as
        ``searchsorted(side="right")`` does.  The placement hot path draws
        over a handful of candidates, where the array round trip costs more
        than the arithmetic.
        """
        if not weights:
            raise ValueError("cannot pick from empty weights")
        total = pairwise_sum(weights, 0, len(weights))
        if total <= 0 or not math.isfinite(total):
            return int(self._rng.integers(0, len(weights)))
        cdf = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cdf.append(running)
        cdf = [value / running for value in cdf]
        return bisect_right(cdf, self._rng.random())

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
    def buffered_draws(self, expected: int = 16) -> Iterator["BufferedDraws"]:
        """A session serving bounded integers and shuffles from bulk draws.

        Inside the block, ``draws.integer(low, high)``,
        ``draws.shuffle(items)`` and ``draws.shuffle_array(values)`` return
        exactly what this source's methods of the same names would at that
        point of the stream, for ``1 <= high - low < 2**32`` and sequences
        shorter than ``2**32``, so code written against :data:`Draws` runs
        on either.  All three consume numpy's 32-bit output stream (the one
        ``integers(0, 2**32, dtype=uint32)`` emits, buffered half-words
        included), so they are replayed in Python from words drawn in
        bulk: ``expected`` words first, more on demand.  On exit, also
        when the block raises, the generator is rewound and advanced by
        exactly the words consumed.

        The session holds the generator: any other draw from this source
        while it is open raises ``RuntimeError`` instead of silently
        desynchronizing the stream.
        """
        generator = self._rng
        if generator is _SESSION_OPEN:
            raise _SessionOpen.error()
        draws = BufferedDraws(generator, expected)
        self._rng = _SESSION_OPEN  # type: ignore[assignment]
        try:
            yield draws
        finally:
            self._rng = generator
            draws.close()

    @property
    def generator(self) -> np.random.Generator:
        """Access to the underlying numpy generator for bulk operations."""
        return self._rng


class _SessionOpen:
    """Stands in for a source's generator while a buffered session holds it."""

    @staticmethod
    def error() -> RuntimeError:
        return RuntimeError(
            "a buffered-draw session is open on this RandomSource; "
            "draw through the session until it closes"
        )

    def __getattr__(self, name: str) -> Any:
        raise self.error()


_SESSION_OPEN = _SessionOpen()


class BufferedDraws:
    """The draws of one :meth:`RandomSource.buffered_draws` session.

    numpy's bounded integer draw (Lemire's method) multiplies the next
    32-bit word by ``n`` and redraws only on a rare rejection; ``n == 1``
    consumes nothing.  ``Generator.shuffle`` runs Fisher-Yates from the last
    position down, picking each swap partner ``j <= i`` by masking the next
    32-bit word to ``i``'s bit length and redrawing while ``j > i``
    (``random_interval``).  Both are replayed here over an array of
    pre-drawn words, so a draw costs a few Python operations instead of a
    numpy call; :meth:`integers` replays a whole vector of bounds at once.
    """

    __slots__ = ("_generator", "_chunk", "_start", "_words", "_used")

    def __init__(self, generator: np.random.Generator, expected: int) -> None:
        self._generator: Optional[np.random.Generator] = generator
        self._chunk = max(16, int(expected))
        #: Generator state before the first bulk draw (None: nothing drawn).
        self._start: Optional[Dict[str, Any]] = None
        #: The drawn words, 4 bytes each; indexing yields plain ints.
        self._words = array("I")
        self._used = 0

    def _refill(self) -> None:
        """Append a bulk draw of words, doubling the chunk each time."""
        if self._generator is None:
            raise RuntimeError("this buffered-draw session is closed")
        if self._start is None:
            self._start = self._generator.bit_generator.state
        self._words.frombytes(
            self._generator.integers(
                0, 2**32, size=self._chunk, dtype=np.uint32
            ).tobytes()
        )
        self._chunk *= 2

    def close(self) -> None:
        """Leave the generator exactly the consumed words past its start,
        and let go of it: a closed session's draws raise ``RuntimeError``."""
        generator, self._generator = self._generator, None
        if generator is not None and self._start is not None:
            generator.bit_generator.state = self._start
            if self._used:
                generator.integers(0, 2**32, size=self._used, dtype=np.uint32)
        self._words = array("I")

    def integer(self, low: int, high: int) -> int:
        """What :meth:`RandomSource.integer` would draw, for
        ``1 <= high - low < 2**32``."""
        n = high - low
        if not 1 <= n < 2**32:
            raise ValueError(f"bounded draws need 1 <= high - low < 2**32 (got {n})")
        if n == 1:
            return low
        while True:
            words = self._words
            used = self._used
            try:
                while True:
                    scaled = words[used] * n
                    used += 1
                    leftover = scaled & 0xFFFFFFFF
                    # Lemire's threshold is below n: skip the modulo when
                    # it can.
                    if leftover >= n or leftover >= (2**32 - n) % n:
                        self._used = used
                        return low + (scaled >> 32)
            except IndexError:
                # Out of words: draw more and replay this draw from its start.
                self._refill()

    def integers(self, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``integer(0, high)`` for each bound of ``highs`` in turn, as arrays.

        Lemire's method runs on the whole vector of pending words at once:
        a bound of 1 takes no word, and a rejecting word ends the vector
        step, that one draw is replayed by :meth:`integer` (which redraws
        exactly as numpy does) and the next step starts after it.  Returns
        the draws and, per draw, the session's used-word count right after
        it, so a caller that keeps only a prefix of the draws can
        :meth:`rewind` to the end of that prefix.
        """
        highs = np.asarray(highs, dtype=np.int64)
        if len(highs) and not (highs.min() >= 1 and highs.max() < 2**32):
            raise ValueError("bounded draws need 1 <= high - low < 2**32")
        values = np.zeros(len(highs), dtype=np.int64)
        ends = np.empty(len(highs), dtype=np.int64)
        start = 0
        while start < len(highs):
            bounds = highs[start:]
            takes = np.flatnonzero(bounds > 1)
            if not len(takes):
                ends[start:] = self._used
                break
            while len(self._words) - self._used < len(takes):
                self._refill()
            words = np.frombuffer(
                self._words, dtype=np.uint32, count=len(takes), offset=4 * self._used
            ).astype(np.uint64)
            n = bounds[takes].astype(np.uint64)
            scaled = words * n
            leftover = scaled & np.uint64(0xFFFFFFFF)
            rejected = np.flatnonzero(leftover < (np.uint64(2**32) - n) % n)
            taken = len(takes) if not len(rejected) else int(rejected[0])
            # Draws before the first rejecting word (or all of them).
            stop = len(bounds) if taken == len(takes) else int(takes[taken])
            values[start + takes[:taken]] = (scaled[:taken] >> np.uint64(32)).astype(
                np.int64
            )
            consumed = np.cumsum(bounds[:stop] > 1)
            ends[start : start + stop] = self._used + consumed
            self._used += taken
            start += stop
            if taken < len(takes):
                values[start] = self.integer(0, int(highs[start]))
                ends[start] = self._used
                start += 1
        return values, ends

    def rewind(self, used: int) -> None:
        """Forget every word past the first ``used`` consumed ones, so the
        next draw reads word ``used`` again (see :meth:`integers`)."""
        if not 0 <= used <= self._used:
            raise ValueError(
                f"can only rewind to a consumed position (got {used}, "
                f"{self._used} consumed)"
            )
        self._used = used

    def shuffle(self, items: Sequence[T]) -> List[T]:
        """A shuffled list copy, drawn like :meth:`RandomSource.shuffle`."""
        while True:
            out = list(items)
            words = self._words
            used = self._used
            try:
                for i in range(len(out) - 1, 0, -1):
                    # ``random_interval``: the smallest all-ones mask
                    # covering ``i``, redrawing while the masked word
                    # exceeds it.
                    mask = (1 << i.bit_length()) - 1
                    j = words[used] & mask
                    used += 1
                    while j > i:
                        j = words[used] & mask
                        used += 1
                    out[i], out[j] = out[j], out[i]
            except IndexError:
                # Out of words: draw more and replay this shuffle from its
                # start.
                self._refill()
                continue
            self._used = used
            return out

    def shuffle_array(self, values: np.ndarray) -> np.ndarray:
        """A shuffled copy of a 1-D array, drawn like
        :meth:`RandomSource.shuffle_array` (``Generator.shuffle`` draws the
        same swap sequence for arrays as for lists)."""
        values = np.asarray(values)
        return np.array(self.shuffle(values.tolist()), dtype=values.dtype)


#: Where placement draws come from: a source itself, or a buffered session
#: open on one; both answer ``integer``, ``shuffle`` and ``shuffle_array``
#: identically for the same stream position.
Draws = Union[RandomSource, BufferedDraws]

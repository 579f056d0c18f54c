"""Tests for the seeded random source."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.random import RandomSource, pairwise_sum


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = RandomSource(7).fork("child")
        b = RandomSource(7).fork("child")
        assert a.uniform() == b.uniform()

    def test_fork_labels_give_distinct_streams(self):
        parent = RandomSource(7)
        a = parent.fork("alpha")
        b = parent.fork("beta")
        assert a.uniform() != b.uniform()


class TestDraws:
    def test_bounded_normal_respects_bounds(self):
        rng = RandomSource(3)
        values = [rng.bounded_normal(0.5, 10.0, 0.0, 1.0) for _ in range(200)]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomSource(0).exponential(0.0)

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).choice([])

    def test_choice_returns_member(self):
        rng = RandomSource(0)
        items = ["a", "b", "c"]
        assert rng.choice(items) in items

    def test_sample_without_replacement(self):
        rng = RandomSource(0)
        sample = rng.sample(list(range(10)), 5)
        assert len(sample) == len(set(sample)) == 5

    def test_sample_too_many_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).sample([1, 2], 3)

    def test_shuffle_preserves_elements(self):
        rng = RandomSource(0)
        original = list(range(20))
        shuffled = rng.shuffle(original)
        assert sorted(shuffled) == original
        assert original == list(range(20))


class TestWeightedIndex:
    def test_zero_weights_fall_back_to_uniform(self):
        rng = RandomSource(0)
        picks = {rng.weighted_index([0.0, 0.0, 0.0]) for _ in range(50)}
        assert picks <= {0, 1, 2}
        assert len(picks) > 1

    def test_dominant_weight_usually_wins(self):
        rng = RandomSource(0)
        picks = [rng.weighted_index([0.001, 100.0, 0.001]) for _ in range(200)]
        assert picks.count(1) > 180

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).weighted_index([])

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_weighted_index_in_range(self, weights):
        index = RandomSource(0).weighted_index(weights)
        assert 0 <= index < len(weights)


#: Sizes on each branch of numpy's pairwise sum: sequential (1-7), eight
#: accumulators (8-128), halving (129-300).
PAIRWISE_SIZES = st.one_of(
    st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)
)


@st.composite
def weight_vectors(draw):
    """Free-core style weights: random, equal, partly or all at the floor."""
    size = draw(PAIRWISE_SIZES)
    kind = draw(st.sampled_from(["random", "equal", "floored", "all-floor", "zero"]))
    if kind == "equal":
        return [draw(st.sampled_from([1.0, 2.5, 12.0]))] * size
    if kind == "all-floor":
        return [1e-9] * size
    if kind == "zero":
        # No positive weight at all: the uniform fallback.
        return [0.0] * size
    weights = draw(
        st.lists(
            st.floats(0.0, 12.0, allow_nan=False), min_size=size, max_size=size
        )
    )
    if kind == "floored":
        picks = draw(st.lists(st.integers(0, size - 1), max_size=size))
        for index in picks:
            weights[index] = 1e-9
    return weights


class TestWeightedIndexFloats:
    """The plain-float draw replays ``weighted_index`` bit for bit."""

    @given(weights=weight_vectors(), seed=st.integers(0, 10_000), floor=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_replays_weighted_index(self, weights, seed, floor):
        if floor:
            # What FleetState.draw_proportional hands it: np.maximum(1e-9, .).
            weights = [w if w > 1e-9 else 1e-9 for w in weights]
        floats, numpy = RandomSource(seed), RandomSource(seed)
        for _ in range(3):
            assert floats.weighted_index_floats(weights) == numpy.weighted_index(
                np.array(weights)
            )
            assert state_of(floats) == state_of(numpy)

    @given(weights=weight_vectors())
    @settings(max_examples=200, deadline=None)
    def test_pairwise_sum_is_numpys(self, weights):
        assert pairwise_sum(weights, 0, len(weights)) == float(np.array(weights).sum())

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).weighted_index_floats([])


class TestPoissonProcess:
    def test_zero_rate_yields_no_events(self):
        assert RandomSource(0).poisson_process(0.0, 1000.0) == []

    def test_events_within_duration_and_sorted(self):
        rng = RandomSource(0)
        events = rng.poisson_process(0.01, 10_000.0)
        assert all(0.0 <= t < 10_000.0 for t in events)
        assert events == sorted(events)

    def test_rate_roughly_matches(self):
        rng = RandomSource(5)
        duration = 200_000.0
        rate = 0.005
        events = rng.poisson_process(rate, duration)
        expected = rate * duration
        assert expected * 0.7 < len(events) < expected * 1.3


class TestPoissonProcessChunking:
    """The chunked thinning pass must be draw-for-draw scalar-equivalent."""

    @staticmethod
    def _scalar_reference(rng: RandomSource, rate: float, duration: float):
        if rate <= 0 or duration <= 0:
            return []
        times, t = [], 0.0
        while True:
            t += float(rng.generator.exponential(1.0 / rate))
            if t >= duration:
                break
            times.append(t)
        return times

    def test_matches_scalar_loop_and_stream_position(self):
        cases = [
            (0.0001, 2_000_000.0),  # ~200 events: several chunks
            (0.001, 500_000.0),
            (1e-7, 2_592_000.0),  # usually zero events
            (0.5, 30.0),
        ]
        for seed in range(25):
            for rate, duration in cases:
                scalar_rng = RandomSource(seed)
                chunked_rng = RandomSource(seed)
                expected = self._scalar_reference(scalar_rng, rate, duration)
                got = chunked_rng.poisson_process(rate, duration)
                assert got == expected, (seed, rate)
                # The stream position matches too: the next draw agrees.
                assert scalar_rng.uniform() == chunked_rng.uniform()

    def test_degenerate_inputs_consume_nothing(self):
        rng = RandomSource(3)
        untouched = RandomSource(3)
        assert rng.poisson_process(0.0, 100.0) == []
        assert rng.poisson_process(1.0, 0.0) == []
        assert rng.uniform() == untouched.uniform()


def state_of(rng: RandomSource) -> dict:
    return rng.generator.bit_generator.state


class TestUniformIndexPairs:
    """The bulk pair draw must equal the alternating scalar loop, values and
    stream position alike (fig16's access sampling rests on it)."""

    @staticmethod
    def _scalar_reference(rng: RandomSource, low, high, n, count):
        pairs = [(rng.uniform(low, high), rng.integer(0, n)) for _ in range(count)]
        return [u for u, _ in pairs], [i for _, i in pairs]

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 500])
    @pytest.mark.parametrize("n", [1, 2, 5, 1999, 2**31 + 1, 2**32, 2**33])
    def test_matches_scalar_loop_and_stream_position(self, n, count):
        for seed in range(40):
            # Odd seeds start with a buffered 32-bit half left by an
            # earlier bounded draw; the first pair must take it.
            bulk, scalar = RandomSource(seed), RandomSource(seed)
            if seed % 2:
                bulk.integer(0, 10)
                scalar.integer(0, 10)
            uniforms, indices = bulk.uniform_index_pairs(0.0, 3600.0, n, count)
            expected = self._scalar_reference(scalar, 0.0, 3600.0, n, count)
            assert (uniforms.tolist(), indices.tolist()) == expected, (seed, n)
            assert state_of(bulk) == state_of(scalar), (seed, n)
            assert bulk.integer(0, 1000) == scalar.integer(0, 1000)

    def test_common_sizes_take_the_bulk_path(self):
        class ScalarCounter:
            """Forwards to a generator, counting scalar draws."""

            def __init__(self, inner):
                self.inner, self.calls = inner, 0
                self.bit_generator = inner.bit_generator

            def uniform(self, *args):
                self.calls += 1
                return self.inner.uniform(*args)

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.inner.integers(*args, **kwargs)

        rng = RandomSource(4)
        rng._rng = counter = ScalarCounter(rng._rng)
        rng.uniform_index_pairs(0.0, 1.0, 1999, 500)
        assert counter.calls == 0

    def test_rejection_size_falls_back_exactly(self):
        """At ``n = 2**31 + 1`` about half of Lemire's draws are rejected,
        so the bulk path must hand over to the scalar loop."""
        bulk, scalar = RandomSource(11), RandomSource(11)
        got = bulk.uniform_index_pairs(5.0, 9.0, 2**31 + 1, 64)
        expected = self._scalar_reference(scalar, 5.0, 9.0, 2**31 + 1, 64)
        assert (got[0].tolist(), got[1].tolist()) == expected
        assert state_of(bulk) == state_of(scalar)

    def test_nonpositive_count_consumes_nothing(self):
        rng, untouched = RandomSource(3), RandomSource(3)
        uniforms, indices = rng.uniform_index_pairs(0.0, 1.0, 10, 0)
        assert len(uniforms) == len(indices) == 0
        assert state_of(rng) == state_of(untouched)


class TestBoundedIntegers:
    """Integer draws from a buffered session equal scalar ``integer(0, n)``."""

    @given(
        sizes=st.lists(
            st.one_of(
                st.integers(1, 100),
                st.integers(1, 2**32 - 1),
                st.just(2**31 + 1),  # rejects about half its draws
            ),
            max_size=60,
        ),
        seed=st.integers(0, 10_000),
        expected=st.integers(0, 40),
        buffered=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_draws_and_stream_position(
        self, sizes, seed, expected, buffered
    ):
        bulk, scalar = RandomSource(seed), RandomSource(seed)
        if buffered:
            bulk.integer(0, 10)
            scalar.integer(0, 10)
        with bulk.buffered_draws(expected) as draws:
            got = [draws.integer(0, n) for n in sizes]
        assert got == [scalar.integer(0, n) for n in sizes]
        assert state_of(bulk) == state_of(scalar)
        assert bulk.uniform() == scalar.uniform()

    def test_rejects_sizes_outside_the_32_bit_path(self):
        rng, untouched = RandomSource(5), RandomSource(5)
        with rng.buffered_draws(4) as draws:
            for n in (0, 2**32):
                with pytest.raises(ValueError):
                    draws.integer(0, n)
        assert state_of(rng) == state_of(untouched)


def numpy_reference(rng: RandomSource, op: tuple):
    """What ``op`` draws straight from the generator."""
    kind, size = op
    if kind == "integer":
        return rng.integer(0, size)
    if kind == "list":
        return rng.shuffle(list(range(size)))
    values = np.arange(size, dtype=np.int64) * 3
    rng.generator.shuffle(values)
    return values.tolist()


def session_draw(draws, op: tuple):
    """What ``op`` draws from a buffered session."""
    kind, size = op
    if kind == "integer":
        return draws.integer(0, size)
    if kind == "list":
        return draws.shuffle(list(range(size)))
    shuffled = draws.shuffle_array(np.arange(size, dtype=np.int64) * 3)
    assert shuffled.dtype == np.int64
    return shuffled.tolist()


DRAW_OPS = st.one_of(
    # n = 1 draws nothing; 2**31 + 1 hits Lemire's rejection branch.
    st.tuples(st.just("integer"), st.sampled_from([1, 2, 7, 2**31 + 1])),
    st.tuples(
        st.sampled_from(["list", "array"]), st.sampled_from([0, 1, 2, 15, 16, 40])
    ),
)


class TestBufferedDraws:
    """A session replays numpy's bounded integers and Fisher-Yates shuffles,
    values and stream position alike, and holds the generator while open."""

    @given(
        ops=st.lists(DRAW_OPS, max_size=40),
        seed=st.integers(0, 10_000),
        expected=st.integers(0, 40),
        buffered=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_replays_numpy_exactly(self, ops, seed, expected, buffered):
        session, scalar = RandomSource(seed), RandomSource(seed)
        if buffered:
            # An odd number of 32-bit draws leaves a half-word buffered.
            session.integer(0, 10)
            scalar.integer(0, 10)
            assert state_of(scalar)["has_uint32"] == 1
        with session.buffered_draws(expected) as draws:
            got = [session_draw(draws, op) for op in ops]
        assert got == [numpy_reference(scalar, op) for op in ops]
        assert state_of(session) == state_of(scalar)
        assert session.uniform() == scalar.uniform()

    @pytest.mark.parametrize("low", [-5, 0, 7])
    def test_integer_offsets_like_the_source(self, low):
        session, scalar = RandomSource(3), RandomSource(3)
        sizes = [1, 2, 9, 2**31 + 1] * 5
        with session.buffered_draws(8) as draws:
            got = [draws.integer(low, low + n) for n in sizes]
        assert got == [scalar.integer(low, low + n) for n in sizes]
        assert state_of(session) == state_of(scalar)

    def test_long_runs_refill_and_rewind_exactly(self):
        session, scalar = RandomSource(8), RandomSource(8)
        ops = [("list", 40), ("integer", 7), ("array", 16)] * 30
        with session.buffered_draws(0) as draws:
            got = [session_draw(draws, op) for op in ops]
        assert got == [numpy_reference(scalar, op) for op in ops]
        assert state_of(session) == state_of(scalar)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.uniform(),
            lambda rng: rng.integer(0, 5),
            lambda rng: rng.shuffle([1, 2, 3]),
            lambda rng: rng.choice(["a", "b"]),
            lambda rng: rng.uniform_index_pairs(0.0, 1.0, 5, 3),
            lambda rng: rng.generator.random(),
            lambda rng: rng.state_dict(),
            lambda rng: rng.set_state(RandomSource(1).state_dict()),
            lambda rng: rng.buffered_draws().__enter__(),
        ],
    )
    def test_other_draws_raise_while_open(self, draw):
        session, scalar = RandomSource(6), RandomSource(6)
        with session.buffered_draws(4) as draws:
            first = draws.integer(0, 9)
            with pytest.raises(RuntimeError, match="session is open"):
                draw(session)
            second = draws.shuffle(list(range(6)))
        assert [first, second] == [scalar.integer(0, 9), scalar.shuffle(list(range(6)))]
        assert state_of(session) == state_of(scalar)
        assert session.uniform() == scalar.uniform()

    def test_raising_body_leaves_the_consumed_position(self):
        session, scalar = RandomSource(12), RandomSource(12)
        with pytest.raises(KeyError):
            with session.buffered_draws(64) as draws:
                draws.shuffle(list(range(15)))
                draws.integer(0, 2**31 + 1)
                raise KeyError("placement failed")
        scalar.shuffle(list(range(15)))
        scalar.integer(0, 2**31 + 1)
        assert state_of(session) == state_of(scalar)
        assert session.uniform() == scalar.uniform()

    def test_a_closed_session_refuses_draws(self):
        rng = RandomSource(2)
        with rng.buffered_draws() as draws:
            draws.integer(0, 3)
        position = state_of(rng)
        with pytest.raises(RuntimeError, match="closed"):
            draws.integer(0, 3)
        assert state_of(rng) == position

    def test_an_unused_session_leaves_the_stream_untouched(self):
        rng, untouched = RandomSource(4), RandomSource(4)
        with rng.buffered_draws(100) as draws:
            assert draws.integer(4, 5) == 4
            assert draws.shuffle(["only"]) == ["only"]
        assert state_of(rng) == state_of(untouched)


class TestVectorIntegers:
    """``BufferedDraws.integers`` is one ``integer(0, n)`` per bound, in
    order: the same values, the same words consumed, and a position after
    each draw that :meth:`~BufferedDraws.rewind` can return to."""

    @given(
        sizes=st.lists(
            st.one_of(
                st.just(1),  # takes no word
                st.integers(2, 100),
                st.integers(1, 2**32 - 1),
                st.just(2**31 + 1),  # rejects about half its draws
            ),
            max_size=80,
        ),
        seed=st.integers(0, 10_000),
        expected=st.integers(0, 40),
        buffered=st.booleans(),
        before=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_draw_integers(self, sizes, seed, expected, buffered, before):
        bulk, scalar = RandomSource(seed), RandomSource(seed)
        if buffered:
            bulk.integer(0, 10)
            scalar.integer(0, 10)
        with bulk.buffered_draws(expected) as draws:
            leading = [draws.integer(0, 7) for _ in range(before)]
            values, ends = draws.integers(np.array(sizes, dtype=np.int64))
            after = draws.integer(0, 1000)
        assert leading == [scalar.integer(0, 7) for _ in range(before)]
        assert values.tolist() == [scalar.integer(0, n) for n in sizes]
        assert after == scalar.integer(0, 1000)
        assert state_of(bulk) == state_of(scalar)
        assert bulk.uniform() == scalar.uniform()
        # Each end is the session position after that draw: a bound of 1
        # adds nothing, any other bound at least one word.
        steps = np.diff(np.concatenate(([before], ends)))
        assert ((steps == 0) == (np.array(sizes) == 1)).all()

    def test_crosses_refills_with_mixed_bounds(self):
        bulk, scalar = RandomSource(21), RandomSource(21)
        sizes = np.array([1, 76, 1, 1, 3, 2**31 + 1, 2, 1, 40] * 60)
        with bulk.buffered_draws(0) as draws:  # a 16-word first chunk
            values, _ = draws.integers(sizes)
        assert values.tolist() == [scalar.integer(0, int(n)) for n in sizes]
        assert state_of(bulk) == state_of(scalar)

    def test_rejection_heavy_bounds_replay_exactly(self):
        """Near ``2**31 + 1`` about half the words are rejected, so nearly
        every vector step ends at a rejection and redraws like numpy."""
        bulk, scalar = RandomSource(11), RandomSource(11)
        sizes = np.full(64, 2**31 + 1)
        sizes[::5] = 2**31 + 3
        with bulk.buffered_draws(8) as draws:
            values, ends = draws.integers(sizes)
        assert values.tolist() == [scalar.integer(0, int(n)) for n in sizes]
        assert state_of(bulk) == state_of(scalar)
        assert int(ends[-1]) > len(sizes)  # some words were rejected

    def test_rewind_redraws_the_same_words(self):
        bulk, scalar = RandomSource(5), RandomSource(5)
        sizes = np.array([9, 1, 30, 4, 76, 2])
        with bulk.buffered_draws(4) as draws:
            values, ends = draws.integers(sizes)
            draws.rewind(int(ends[2]))
            again, _ = draws.integers(sizes[3:])
            with pytest.raises(ValueError, match="consumed position"):
                draws.rewind(int(ends[-1]) + 1)
        assert again.tolist() == values[3:].tolist()
        assert values.tolist() == [scalar.integer(0, int(n)) for n in sizes]
        assert state_of(bulk) == state_of(scalar)

    def test_bounds_of_one_and_empty_input_consume_nothing(self):
        rng, untouched = RandomSource(4), RandomSource(4)
        with rng.buffered_draws(10) as draws:
            values, ends = draws.integers(np.ones(5, dtype=np.int64))
            empty, no_ends = draws.integers(np.array([], dtype=np.int64))
        assert values.tolist() == [0] * 5 and ends.tolist() == [0] * 5
        assert len(empty) == len(no_ends) == 0
        assert state_of(rng) == state_of(untouched)

    def test_rejects_bounds_outside_the_32_bit_path(self):
        rng, untouched = RandomSource(5), RandomSource(5)
        with rng.buffered_draws(4) as draws:
            for bad in ([3, 0], [2**32]):
                with pytest.raises(ValueError):
                    draws.integers(np.array(bad, dtype=np.int64))
        assert state_of(rng) == state_of(untouched)

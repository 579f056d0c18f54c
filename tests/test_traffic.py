"""Epoch-stream determinism suite for the continuous traffic drivers.

The contract under test: a continuous run's per-epoch windowed metrics are
a pure function of (spec, seed).  Open- and closed-loop drivers must emit
bit-identical epoch streams serially vs on a process pool and across
``PYTHONHASHSEED`` values; the open-loop arrival draws must match a scalar
exponential-gap oracle segment by segment (including rate steps that land
exactly on an epoch boundary); and the closed-loop per-user draw sequence
must replay against a fork-replica oracle regardless of how completions
interleave.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro.api as api
from repro.harness import get_scenario
from repro.harness.builders import build_testbed_tenants
from repro.harness.config import TINY_SCALE
from repro.harness.spec import ScenarioSpec
from repro.harness.traffic import (
    ClosedLoopDriver,
    OpenLoopDriver,
    RateSchedule,
    parse_traffic,
)
from repro.jobs.scheduler_variants import HarvestingCluster
from repro.jobs.tpcds import TpcdsWorkloadFactory
from repro.simulation.random import RandomSource

EPOCHS = 3
EPOCH_SECONDS = 300.0


def tiny_continuous(name: str = "continuous-open", **params) -> ScenarioSpec:
    """A registered continuous scenario shrunk to unit-test size."""
    spec = get_scenario(name).with_overrides(scale=TINY_SCALE)
    merged = dict(spec.params, epochs=EPOCHS, epoch_seconds=EPOCH_SECONDS)
    merged.update(params)
    return spec.with_overrides(params=merged)


# ---------------------------------------------------------------------------
# Rate schedules
# ---------------------------------------------------------------------------


class TestRateSchedule:
    def test_constant_is_one_segment_clipped_at_horizon(self):
        schedule = RateSchedule.constant(0.01)
        (segment,) = schedule.segments(450.0)
        assert (segment.start, segment.end, segment.rate_per_second) == (
            0.0,
            450.0,
            0.01,
        )
        assert schedule.rate_at(0.0) == schedule.rate_at(1e6) == 0.01

    def test_step_splits_exactly_at_the_boundary(self):
        schedule = RateSchedule.step(0.004, step_at=600.0, step_rate=0.02)
        segments = schedule.segments(900.0)
        assert [(s.start, s.end, s.rate_per_second) for s in segments] == [
            (0.0, 600.0, 0.004),
            (600.0, 900.0, 0.02),
        ]
        assert schedule.rate_at(599.999) == 0.004
        assert schedule.rate_at(600.0) == 0.02  # boundary takes the new rate

    def test_step_boundary_on_an_epoch_edge_aligns_windows(self):
        # step_at == 2 * EPOCH_SECONDS: the segment edge must land exactly
        # on the epoch boundary, so the draws before and after the step
        # split precisely between windows 1 and 2.
        schedule = RateSchedule.step(
            0.004, step_at=2 * EPOCH_SECONDS, step_rate=0.02
        )
        segments = schedule.segments(EPOCHS * EPOCH_SECONDS)
        assert segments[0].end == segments[1].start == 2 * EPOCH_SECONDS

    def test_diurnal_repeats_its_period(self):
        schedule = RateSchedule.diurnal(
            0.01, amplitude=0.5, period_seconds=1200.0, slots=6
        )
        for t in (0.0, 250.0, 799.0, 1100.0):
            assert schedule.rate_at(t) == schedule.rate_at(t + 1200.0)
        segments = schedule.segments(3000.0)  # 2.5 periods
        assert segments[0].start == 0.0
        assert segments[-1].end == 3000.0
        assert all(s.rate_per_second >= 0.0 for s in segments)
        # Contiguous coverage, no gaps or overlaps.
        for left, right in zip(segments, segments[1:]):
            assert left.end == right.start

    def test_validation_rejects_bad_schedules(self):
        with pytest.raises(ValueError):
            RateSchedule([(0.0, -0.1)])
        with pytest.raises(ValueError):
            RateSchedule([(10.0, 0.1)])  # must start at offset 0
        with pytest.raises(ValueError):
            RateSchedule([(0.0, 0.1), (5.0, 0.2)], period=5.0)
        with pytest.raises(ValueError):
            RateSchedule.step(0.1, step_at=0.0, step_rate=0.2)


class TestParseTraffic:
    def test_open_profiles(self):
        constant = parse_traffic("open:rate=0.005")
        assert isinstance(constant, OpenLoopDriver)
        assert constant.schedule.label == "constant"

        step = parse_traffic("open:rate=0.005,profile=step,step_at=600,step_rate=0.02")
        assert step.schedule.label == "step"
        assert step.schedule.rate_at(601.0) == 0.02

        diurnal = parse_traffic(
            "open:rate=0.005,profile=diurnal,period=7200,amplitude=0.5,slots=12"
        )
        assert diurnal.schedule.label == "diurnal"
        assert diurnal.schedule.period == 7200.0

    def test_closed(self):
        driver = parse_traffic("closed:users=4,think=120")
        assert isinstance(driver, ClosedLoopDriver)
        assert driver.users == 4 and driver.think_seconds == 120.0

    @pytest.mark.parametrize(
        "bad",
        [
            "open",  # no colon
            "open:profile=step",  # missing rate
            "open:rate=abc",  # not a number
            "open:rate=0.1,profile=sinusoid",  # unknown profile
            "open:rate=0.1,typo=1",  # unknown key fails loudly
            "drizzle:rate=0.1",  # unknown kind
            "closed:think=10",  # missing users
            "open:rate=nan",  # non-finite values name their key
            "open:rate=inf",
            "closed:users=2,think=nan",
            "closed:users=2,think=-inf",
            "open:rate=0.1,profile=step,step_at=nan,step_rate=0.2",
            "closed:users=2.9",  # integer fields are not truncated
            "open:rate=0.01,profile=diurnal,slots=3.5",
            "open:rate=1,rate=2",  # repeated keys fail loudly
            "closed:users=2,think=10,think=20",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_traffic(bad)
        if "nan" in bad or "inf" in bad:
            with pytest.raises(ValueError, match="is not a finite number"):
                parse_traffic(bad)

    @pytest.mark.parametrize(
        "spec, key",
        [("open:rate=1,rate=2", "rate"), ("closed:users=2,think=10,think=20", "think")],
    )
    def test_repeated_key_is_named(self, spec, key):
        with pytest.raises(ValueError, match=f"repeated key '{key}'"):
            parse_traffic(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("closed:users=2.9", "users"),
            ("closed:users=0.5,think=60", "users"),
            ("open:rate=0.01,profile=diurnal,slots=3.5", "slots"),
        ],
    )
    def test_non_integral_count_names_its_key(self, spec, key):
        with pytest.raises(ValueError, match=f"{key} must be integral"):
            parse_traffic(spec)

    @pytest.mark.parametrize(
        "spec, same_as",
        [
            ("closed:users=3.0", "closed:users=3"),
            ("closed:users=1e1,think=60", "closed:users=10,think=60"),
            (
                "open:rate=0.01,profile=diurnal,slots=4.0",
                "open:rate=0.01,profile=diurnal,slots=4",
            ),
            ("open:rate=0.01,profile=diurnal", "open:rate=0.01,profile=diurnal,slots=24"),
        ],
    )
    def test_integral_counts_still_parse(self, spec, same_as):
        driver, expected = parse_traffic(spec), parse_traffic(same_as)
        assert type(driver) is type(expected)
        assert driver.describe() == expected.describe()
        if isinstance(driver, ClosedLoopDriver):
            assert type(driver.users) is int
            assert driver.users == expected.users
            assert driver.think_seconds == expected.think_seconds
        else:
            horizon = 3 * 86400.0
            assert driver.schedule.segments(horizon) == expected.schedule.segments(
                horizon
            )


# ---------------------------------------------------------------------------
# Open loop: scalar oracle for the arrival draws
# ---------------------------------------------------------------------------


class TestOpenLoopOracle:
    @pytest.mark.parametrize(
        "schedule",
        [
            RateSchedule.constant(0.02),
            RateSchedule.step(0.01, step_at=600.0, step_rate=0.05),
            RateSchedule.diurnal(0.03, amplitude=0.5, period_seconds=700.0, slots=7),
        ],
        ids=["constant", "step", "diurnal"],
    )
    def test_arrival_times_match_scalar_gap_loop(self, schedule):
        """Per segment, the vectorized draws equal scalar ``t += exp(1/rate)``."""
        horizon = 1500.0
        times = schedule.arrival_times(horizon, RandomSource(99))
        oracle_rng = RandomSource(99)
        expected = []
        for segment in schedule.segments(horizon):
            duration = segment.end - segment.start
            if segment.rate_per_second <= 0 or duration <= 0:
                continue  # poisson_process consumes no draws for these
            t = 0.0
            while True:
                t += oracle_rng.exponential(1.0 / segment.rate_per_second)
                if t >= duration:
                    break
                expected.append(segment.start + t)
        assert times == expected
        assert times == sorted(times)


# ---------------------------------------------------------------------------
# Closed loop: per-user draw parity against a fork-replica oracle
# ---------------------------------------------------------------------------


class TestClosedLoopOracle:
    def test_think_and_query_draws_replay_per_user(self):
        """User streams are interleaving-independent: each user's recorded
        (query pick, think time) alternation must replay exactly from a
        replica of its forked child stream."""
        users, think, horizon, traffic_seed = 3, 120.0, 900.0, 1234
        tenants = build_testbed_tenants(TINY_SCALE, RandomSource(3))
        cluster = HarvestingCluster(tenants, rng=RandomSource(7))
        factory = TpcdsWorkloadFactory(
            RandomSource(11), duration_scale=1.0, width_scale=0.35
        )
        driver = ClosedLoopDriver(users, think)
        driver.attach(cluster, factory, horizon, RandomSource(traffic_seed))
        cluster.run(horizon)

        assert driver.jobs_submitted > users  # some users went around the loop
        replica = RandomSource(traffic_seed)
        user_rngs = [replica.fork(f"user-{i}") for i in range(users)]
        queries = TpcdsWorkloadFactory(
            RandomSource(11), duration_scale=1.0, width_scale=0.35
        ).all_queries()
        for user in range(users):
            submitted = driver.submissions_by_user[user]
            thinks = driver.think_log[user]
            # submit -> (complete, think) -> submit ...: strictly alternating,
            # starting with a submission.
            assert len(submitted) in (len(thinks), len(thinks) + 1)
            rng = user_rngs[user]
            for k in range(len(submitted) + len(thinks)):
                if k % 2 == 0:
                    assert rng.choice(queries).name == submitted[k // 2]
                else:
                    assert float(rng.exponential(think)) == thinks[k // 2]


# ---------------------------------------------------------------------------
# The epoch stream: shape, windows, and executor equivalence
# ---------------------------------------------------------------------------


class TestEpochStream:
    @pytest.mark.parametrize("name", ["continuous-open", "continuous-closed"])
    def test_parallel_matches_serial(self, name):
        spec = tiny_continuous(name)
        serial = api.run(spec, seed=7)
        parallel = api.run(spec, seed=7, workers=2)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.to_jsonable()["telemetry"] == parallel.to_jsonable()["telemetry"]

    def test_epoch_windows_are_contiguous_and_consistent(self):
        result = api.run(tiny_continuous("continuous-open"), seed=7)
        payload = result.payload
        assert payload.num_epochs == EPOCHS
        for variant in payload.variants.values():
            assert [e.index for e in variant.epochs] == list(range(EPOCHS))
            submitted = completed = 0
            for epoch in variant.epochs:
                assert epoch.end_seconds == epoch.start_seconds + EPOCH_SECONDS
                submitted += epoch.jobs_submitted
                completed += epoch.jobs_completed
                # Queue depth is the running backlog at the window close.
                assert epoch.queue_depth == submitted - completed
                assert epoch.tasks_killed >= 0 and epoch.tasks_completed >= 0
                assert 0.0 <= epoch.kill_rate <= 1.0

    def test_step_on_epoch_edge_splits_submissions_exactly(self):
        """With a rate step on an epoch boundary, the per-epoch submission
        counts must equal the arrival draws bucketed by window — replayed
        here from the cell's recorded traffic seed."""
        traffic = "open:rate=0.004,profile=step,step_at=600,step_rate=0.03"
        spec = tiny_continuous("continuous-open", traffic=traffic)
        result = api.run(spec, seed=7)
        cells = api.cells_from_spec(api.resolve(spec), seed=7)
        schedule = parse_traffic(traffic).schedule
        horizon = EPOCHS * EPOCH_SECONDS
        for cell in cells:
            replica = RandomSource(cell.seeds[2]).fork("arrivals")
            times = schedule.arrival_times(horizon, replica)
            expected = [
                sum(
                    1
                    for t in times
                    if k * EPOCH_SECONDS <= t < (k + 1) * EPOCH_SECONDS
                )
                for k in range(EPOCHS)
            ]
            variant = result.payload.variant(cell.coord("variant"))
            assert [e.jobs_submitted for e in variant.epochs] == expected

    def test_repeats_bit_identically_in_process(self):
        spec = tiny_continuous("continuous-closed")
        first = api.run(spec, seed=5)
        second = api.run(spec, seed=5)
        assert first.fingerprint() == second.fingerprint()


_HASHSEED_SNIPPET = """
import json
import repro.api as api
from tests.test_traffic import tiny_continuous
result = api.run(tiny_continuous("continuous-open"), seed=5)
print(json.dumps({"fingerprint": result.fingerprint(),
                  "headline": result.headline()}))
"""


def test_epoch_stream_stable_across_hash_seeds():
    """Same continuous run, different PYTHONHASHSEED: identical stream."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.getcwd(), env.get("PYTHONPATH", "")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]

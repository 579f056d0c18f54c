"""The workload substrate: distributions, specs, traces, plans, replay.

Three layers of guarantees, in the order the module stack builds them:

* every :class:`~repro.workload.distributions.Distribution` and skew
  sampler draws through *exactly* the ``RandomSource`` calls a scalar
  loop would make (oracle parity, so refactors onto the substrate are
  draw-for-draw identical);
* specs and traces round-trip losslessly (``to_dict``/``from_dict``,
  JSONL write/read) and fail loudly on malformed input;
* plans are pure functions of ``(spec fragment, seed)`` — deterministic
  across processes and hash seeds — and a recorded trace replays into a
  bit-identical :class:`~repro.api.RunResult`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.harness import get_scenario
from repro.harness.config import TINY_SCALE
from repro.simulation.random import RandomSource
from repro.workload.distributions import (
    BoundedNormal,
    Categorical,
    Constant,
    Exponential,
    HotspotSkew,
    IntegerRange,
    Normal,
    Uniform,
    UniformSkew,
    ZipfSkew,
    _zipf_cdf,
    distribution_from_dict,
    make_distribution,
    parse_distribution,
    parse_skew,
    skew_from_dict,
)
from repro.workload.spec import (
    DEFAULT_WORKLOAD,
    JobShapeSpec,
    TenantMixSpec,
    WorkloadSpec,
    parse_workload,
    workload_from_param,
)
from repro.workload.synthetic import (
    ShapeWorkloadFactory,
    apply_spikes,
    arrival_tenants,
    arrivals_from_ops,
    dag_from_record,
    dag_to_record,
    materialize_plan,
    ops_in_stream,
    plan_job_arrivals,
    plan_server_classes,
    plan_spikes,
    plan_storm_reimages,
    plan_tenant_arrivals,
)
from repro.workload.trace import (
    TRACE_VERSION,
    TraceError,
    TraceVersionError,
    read_trace,
    read_trace_header,
    write_trace,
)

SEED = 20260808


class TestDistributionOracles:
    """Each ``sample`` mirrors one direct RandomSource call exactly."""

    def test_uniform(self):
        assert Uniform(20.0, 60.0).sample(RandomSource(SEED)) == RandomSource(
            SEED
        ).uniform(20.0, 60.0)

    def test_exponential(self):
        assert Exponential(300.0).sample(RandomSource(SEED)) == RandomSource(
            SEED
        ).exponential(300.0)

    def test_normal(self):
        assert Normal(5.0, 2.0).sample(RandomSource(SEED)) == RandomSource(
            SEED
        ).normal(5.0, 2.0)

    def test_bounded_normal(self):
        assert BoundedNormal(0.5, 0.2, 0.1, 0.9).sample(
            RandomSource(SEED)
        ) == RandomSource(SEED).bounded_normal(0.5, 0.2, 0.1, 0.9)

    def test_integer_range(self):
        drawn = IntegerRange(3, 9).sample(RandomSource(SEED))
        assert drawn == RandomSource(SEED).integer(3, 9)
        assert isinstance(drawn, int)

    def test_categorical(self):
        dist = Categorical(values=(10.0, 20.0, 30.0), weights=(1.0, 2.0, 3.0))
        oracle = RandomSource(SEED)
        assert dist.sample(RandomSource(SEED)) == (10.0, 20.0, 30.0)[
            oracle.weighted_index((1.0, 2.0, 3.0))
        ]

    def test_constant_draws_nothing(self):
        # A Constant must not consume the stream: the next draw after
        # sampling it matches a fresh source's first draw.
        rng = RandomSource(SEED)
        assert Constant(7.5).sample(rng) == 7.5
        assert rng.uniform() == RandomSource(SEED).uniform()

    def test_sequential_draws_share_one_stream(self):
        # Two samples off one source consume it in order, not via forks.
        dist = Uniform(0.0, 1.0)
        rng, oracle = RandomSource(SEED), RandomSource(SEED)
        assert [dist.sample(rng) for _ in range(3)] == [
            oracle.uniform(0.0, 1.0) for _ in range(3)
        ]


class TestSkewOracles:
    def test_uniform_skew(self):
        assert UniformSkew().index(RandomSource(SEED), 100) == RandomSource(
            SEED
        ).integer(0, 100)

    def test_zipf_skew(self):
        skew = ZipfSkew(alpha=1.2)
        expected = int(
            np.searchsorted(
                _zipf_cdf(1.2, 50), RandomSource(SEED).uniform(), side="right"
            )
        )
        assert skew.index(RandomSource(SEED), 50) == expected

    def test_zipf_prefers_low_indices(self):
        rng = RandomSource(SEED)
        draws = [ZipfSkew(alpha=1.2).index(rng, 1000) for _ in range(500)]
        head = sum(1 for d in draws if d < 100)
        assert head > len(draws) * 0.5  # far above the uniform 10%

    def test_hotspot_two_draw_oracle(self):
        skew = HotspotSkew(hot_fraction=0.1, hot_weight=0.9)
        oracle = RandomSource(SEED)
        n = 200
        hot = min(n, max(1, int(round(n * 0.1))))
        if oracle.uniform() < 0.9:
            expected = oracle.integer(0, hot)
        else:
            expected = oracle.integer(0, n)
        assert skew.index(RandomSource(SEED), n) == expected

    def test_hotspot_concentrates(self):
        rng = RandomSource(SEED)
        skew = HotspotSkew(hot_fraction=0.1, hot_weight=0.9)
        draws = [skew.index(rng, 1000) for _ in range(500)]
        assert sum(1 for d in draws if d < 100) > len(draws) * 0.7


class TestParsingAndValidation:
    def test_parse_distribution_round_trip(self):
        assert parse_distribution("uniform:low=20,high=60") == Uniform(20.0, 60.0)
        assert parse_distribution("exponential:mean=42") == Exponential(42.0)
        assert parse_distribution("constant:value=9") == Constant(9.0)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution 'bogus'"):
            parse_distribution("bogus:mean=1")

    def test_known_names_listed_in_error(self):
        with pytest.raises(ValueError, match="integer") as excinfo:
            make_distribution("nope")
        assert "bounded_normal" in str(excinfo.value)

    def test_bad_distribution_parameter(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_distribution("uniform:low=abc")
        for bad in ("nan", "inf", "-inf", "NaN"):
            with pytest.raises(ValueError, match=f"high={bad} is not a finite number"):
                parse_distribution(f"uniform:low=40,high={bad}")
        with pytest.raises(ValueError, match="mean=nan is not a finite number"):
            parse_distribution("exponential:mean=nan")
        with pytest.raises(ValueError, match="alpha=inf is not a finite number"):
            parse_skew("zipf:alpha=inf")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_distribution("uniform:low")
        with pytest.raises(ValueError, match="bad parameters"):
            make_distribution("uniform", wat=3.0)
        with pytest.raises(ValueError, match="repeated key 'low'"):
            parse_distribution("uniform:low=1,low=2,high=3")
        with pytest.raises(ValueError, match="repeated key 'alpha'"):
            parse_skew("zipf:alpha=1.2,alpha=2")

    def test_distribution_domain_errors(self):
        with pytest.raises(ValueError, match="low <= high"):
            Uniform(5.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Exponential(0.0)
        with pytest.raises(ValueError, match="non-negative"):
            Normal(0.0, -1.0)
        with pytest.raises(ValueError, match="low < high"):
            IntegerRange(4, 4)
        with pytest.raises(ValueError, match="same length"):
            Categorical(values=(1.0, 2.0), weights=(1.0,))
        with pytest.raises(ValueError, match="non-negative"):
            Categorical(values=(1.0,), weights=(-1.0,))

    def test_unknown_skew(self):
        with pytest.raises(ValueError, match="unknown skew 'zorf'"):
            parse_skew("zorf:alpha=1")

    def test_skew_domain_errors(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            ZipfSkew(alpha=0.0)
        with pytest.raises(ValueError, match="hot_fraction"):
            HotspotSkew(hot_fraction=0.0)
        with pytest.raises(ValueError, match="hot_weight"):
            HotspotSkew(hot_weight=1.5)

    def test_parse_workload_overlays_base(self):
        spec = parse_workload(
            "duration=uniform:low=40,high=90;shares=periodic:13,constant:3"
        )
        assert spec.shape.duration == Uniform(40.0, 90.0)
        assert spec.mix.shares == (("periodic", 13.0), ("constant", 3.0))
        # Untouched halves come from the default base.
        assert spec.interarrival == DEFAULT_WORKLOAD.interarrival
        assert spec.skew == DEFAULT_WORKLOAD.skew

    def test_parse_workload_errors(self):
        with pytest.raises(ValueError, match="unknown workload field"):
            parse_workload("frobnicate=3")
        with pytest.raises(ValueError, match="must be non-negative"):
            parse_workload("shares=periodic:-3")
        with pytest.raises(ValueError, match="unknown tenant pattern"):
            parse_workload("shares=martian:5")
        with pytest.raises(ValueError, match="unknown utilization process"):
            parse_workload("process=nope")
        with pytest.raises(ValueError, match="non-negative"):
            parse_workload("tenant_arrivals_per_hour=-1")
        with pytest.raises(ValueError, match="not a number"):
            parse_workload("tenant_arrivals_per_hour=soon")
        with pytest.raises(
            ValueError, match="repeated workload field 'tenant_arrivals_per_hour'"
        ):
            parse_workload("tenant_arrivals_per_hour=2;tenant_arrivals_per_hour=3")
        for bad in ("nan", "inf"):
            with pytest.raises(
                ValueError,
                match=f"tenant_arrivals_per_hour={bad} is not a finite number",
            ):
                parse_workload(f"tenant_arrivals_per_hour={bad}")
            with pytest.raises(ValueError, match=f"periodic={bad} is not a finite"):
                parse_workload(f"shares=periodic:{bad},constant:3")
            with pytest.raises(ValueError, match=f"mean={bad} is not a finite"):
                parse_workload(f"interarrival=exponential:mean={bad}")

    def test_workload_from_param(self):
        assert workload_from_param(None) is DEFAULT_WORKLOAD
        assert workload_from_param("") is DEFAULT_WORKLOAD
        spec = workload_from_param("interarrival=exponential:mean=60")
        assert spec.interarrival == Exponential(60.0)
        with pytest.raises(ValueError, match="compact spec string"):
            workload_from_param(123)


class TestSerialization:
    def test_distribution_dict_round_trip(self):
        for dist in (
            Constant(3.0),
            Uniform(1.0, 2.0),
            Exponential(5.0),
            Normal(0.0, 1.0),
            BoundedNormal(0.4, 0.1, 0.0, 1.0),
            IntegerRange(2, 8),
            Categorical(values=(1.0, 2.0), weights=(0.5, 0.5)),
        ):
            assert distribution_from_dict(dist.to_dict()) == dist

    def test_skew_dict_round_trip(self):
        for skew in (UniformSkew(), ZipfSkew(1.3), HotspotSkew(0.2, 0.8)):
            assert skew_from_dict(skew.to_dict()) == skew

    def test_workload_spec_dict_round_trip(self):
        spec = WorkloadSpec(
            name="mixed",
            shape=JobShapeSpec(duration=Uniform(10.0, 20.0)),
            interarrival=Exponential(120.0),
            mix=TenantMixSpec(
                shares=(("periodic", 2.0), ("constant", 1.0)),
                tenant_arrivals_per_hour=0.5,
            ),
            skew=ZipfSkew(1.2),
        )
        restored = WorkloadSpec.from_dict(spec.to_dict())
        assert restored == spec
        # The dict form is JSON-native: serializing it must not lose anything.
        assert WorkloadSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_dag_record_round_trip(self):
        dag = JobShapeSpec().generate_dag("probe", RandomSource(SEED))
        restored = dag_from_record(
            json.loads(json.dumps(dag_to_record(dag)))
        )
        assert dag_to_record(restored) == dag_to_record(dag)
        assert restored.critical_path_seconds() == dag.critical_path_seconds()


class TestTraceFormat:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "probe.jsonl"
        ops = [
            {"op": "submit-job", "time": 1.5, "stream": "jobs", "dag": {"x": 1}},
            {"op": "reimage", "time": 3.0, "stream": "storms",
             "server_index": 2, "storm": 0},
        ]
        write_trace(path, {"kind": "failure_storm", "scenario": "s"}, ops)
        header, loaded = read_trace(path)
        assert header["version"] == TRACE_VERSION
        assert header["kind"] == "failure_storm"
        assert loaded == ops
        assert read_trace_header(path)["kind"] == "failure_storm"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="replay trace not found"):
            read_trace(tmp_path / "absent.jsonl")
        with pytest.raises(FileNotFoundError, match="replay trace not found"):
            read_trace_header(tmp_path / "absent.jsonl")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"record": "header", "version": 99, "kind": "x"}) + "\n"
        )
        with pytest.raises(TraceVersionError, match="found 99, expected 1"):
            read_trace(path)
        with pytest.raises(TraceVersionError, match="found 99, expected 1"):
            read_trace_header(path)

    def test_malformed_traces(self, tmp_path):
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json\n")
        with pytest.raises(TraceError, match="bad trace"):
            read_trace(garbled)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(json.dumps({"record": "op", "time": 0.0}) + "\n")
        with pytest.raises(TraceError, match="must start with a header"):
            read_trace(headerless)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError, match="is empty"):
            read_trace(empty)
        # json.loads accepts NaN/Infinity by default; a trace must not.
        header = json.dumps({"record": "header", "version": TRACE_VERSION})
        for constant in ("NaN", "Infinity", "-Infinity"):
            poisoned = tmp_path / "poisoned.jsonl"
            poisoned.write_text(
                header + "\n" + '{"record": "op", "cores": ' + constant + "}\n"
            )
            with pytest.raises(
                TraceError, match=f"line 2 in .*poisoned.jsonl: {constant} is not"
            ):
                read_trace(poisoned)
            poisoned.write_text('{"record": "header", "version": ' + constant + "}\n")
            with pytest.raises(TraceError, match=f"line 1.*: {constant} is not"):
                read_trace_header(poisoned)


class TestPlanGenerators:
    def test_job_arrivals_deterministic(self):
        kwargs = dict(
            shape=JobShapeSpec(),
            interarrival=Exponential(60.0),
            horizon_seconds=600.0,
            seed=SEED,
        )
        first = plan_job_arrivals(**kwargs)
        assert first == plan_job_arrivals(**kwargs)
        assert first  # the horizon admits arrivals
        assert all(op["op"] == "submit-job" for op in first)
        assert all(op["time"] < 600.0 for op in first)
        times = [op["time"] for op in first]
        assert times == sorted(times)

    def test_job_shapes_independent_of_arrival_count(self):
        # Job i's DAG comes off its own fork, so a longer horizon extends
        # the plan without disturbing the shapes already drawn.
        kwargs = dict(
            shape=JobShapeSpec(), interarrival=Exponential(60.0), seed=SEED
        )
        short = plan_job_arrivals(horizon_seconds=300.0, **kwargs)
        long = plan_job_arrivals(horizon_seconds=900.0, **kwargs)
        assert len(long) > len(short)
        assert long[: len(short)] == short

    def test_storm_reimages(self):
        ops = plan_storm_reimages(
            num_servers=40, rate_per_day=2.0, fraction=0.1, days=5.0, seed=SEED
        )
        assert ops == plan_storm_reimages(
            num_servers=40, rate_per_day=2.0, fraction=0.1, days=5.0, seed=SEED
        )
        storms = {}
        for op in ops:
            assert 0 <= op["server_index"] < 40
            storms.setdefault(op["storm"], []).append(op["server_index"])
        for members in storms.values():
            assert len(members) == 4  # 10% of 40, without replacement
            assert len(set(members)) == len(members)
        with pytest.raises(ValueError, match="rate must be positive"):
            plan_storm_reimages(40, 0.0, 0.1, 5.0, SEED)
        with pytest.raises(ValueError, match="fraction"):
            plan_storm_reimages(40, 1.0, 1.5, 5.0, SEED)

    def test_spikes(self):
        ops = plan_spikes(
            num_tenants=8,
            rate_per_hour=6.0,
            magnitude=Uniform(0.3, 0.6),
            duration_seconds=Uniform(600.0, 1800.0),
            horizon_seconds=7200.0,
            seed=SEED,
        )
        assert ops
        for op in ops:
            assert 0 <= op["tenant_index"] < 8
            assert 0.3 <= op["magnitude"] <= 0.6
            assert 600.0 <= op["duration"] <= 1800.0
        with pytest.raises(ValueError, match="rate must be positive"):
            plan_spikes(8, -1.0, Uniform(0, 1), Uniform(1, 2), 100.0, SEED)

    def test_server_classes(self):
        classes = (("small", 8.0, 24.0, 0.5), ("large", 24.0, 96.0, 0.5))
        ops = plan_server_classes(classes, 30, SEED)
        assert len(ops) == 30
        assert {op["cls"] for op in ops} <= {"small", "large"}
        assert [op["index"] for op in ops] == list(range(30))
        with pytest.raises(ValueError, match="must not be empty"):
            plan_server_classes((), 10, SEED)
        with pytest.raises(ValueError, match="non-negative"):
            plan_server_classes((("x", 1.0, 1.0, -1.0),), 10, SEED)

    def test_tenant_arrivals(self):
        mix = TenantMixSpec(tenant_arrivals_per_hour=10.0)
        ops = plan_tenant_arrivals(mix, 7200.0, SEED)
        assert ops
        patterns = {p for p, _ in mix.shares}
        for op in ops:
            assert op["pattern"] in patterns
            assert isinstance(op["seed"], int)
        # Zero rate means no elastic load, not an error.
        assert plan_tenant_arrivals(TenantMixSpec(), 7200.0, SEED) == []

    def test_plans_survive_hash_seed_changes(self):
        """The full plan JSON is identical under different PYTHONHASHSEEDs.

        Guards against any str-hash-ordered iteration sneaking into the
        generators: a trace recorded in one process must regenerate
        bit-identically in any other.
        """
        script = (
            "import json\n"
            "from repro.workload.spec import JobShapeSpec, TenantMixSpec\n"
            "from repro.workload.distributions import Exponential, Uniform\n"
            "from repro.workload.synthetic import (plan_job_arrivals,\n"
            "    plan_spikes, plan_storm_reimages, plan_tenant_arrivals)\n"
            "plan = (plan_job_arrivals(JobShapeSpec(), Exponential(60.0),\n"
            "            600.0, %(seed)d)\n"
            "        + plan_storm_reimages(20, 2.0, 0.2, 2.0, %(seed)d)\n"
            "        + plan_spikes(8, 6.0, Uniform(0.3, 0.6),\n"
            "            Uniform(600.0, 1800.0), 7200.0, %(seed)d)\n"
            "        + plan_tenant_arrivals(\n"
            "            TenantMixSpec(tenant_arrivals_per_hour=10.0),\n"
            "            7200.0, %(seed)d))\n"
            "print(json.dumps(plan, sort_keys=True))\n"
        ) % {"seed": SEED}
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(
                Path(__file__).resolve().parent.parent / "src"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class _ParamSpec:
    """The minimal spec surface ``materialize_plan`` consumes."""

    name = "probe"
    seed = 0

    def __init__(self, **params):
        self._params = params

    def param(self, key, default=None):
        return self._params.get(key, default)


class TestMaterializePlan:
    def _builder(self):
        return plan_job_arrivals(
            JobShapeSpec(), Exponential(60.0), 600.0, SEED
        ) + plan_storm_reimages(20, 2.0, 0.2, 2.0, SEED)

    def test_record_then_replay_is_identity(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        recorded = materialize_plan(
            _ParamSpec(record_trace=str(path)), "probe_kind", self._builder
        )
        replayed = materialize_plan(
            _ParamSpec(replay_trace=str(path)), "probe_kind", lambda: []
        )
        # JSON round-trips floats exactly, so the op lists are equal.
        assert replayed == recorded

    def test_plan_is_stream_sorted(self):
        ops = materialize_plan(_ParamSpec(), "probe_kind", self._builder)
        keys = [(op["stream"], op["time"]) for op in ops]
        assert keys == sorted(keys)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        materialize_plan(
            _ParamSpec(record_trace=str(path)), "probe_kind", self._builder
        )
        with pytest.raises(TraceError, match="trace kind mismatch"):
            materialize_plan(
                _ParamSpec(replay_trace=str(path)), "other_kind", lambda: []
            )

    def test_record_and_replay_conflict(self, tmp_path):
        with pytest.raises(ValueError, match="cannot record and replay"):
            materialize_plan(
                _ParamSpec(record_trace="a", replay_trace="b"),
                "probe_kind",
                self._builder,
            )

    def test_stream_filtering_and_arrivals(self):
        ops = materialize_plan(_ParamSpec(), "probe_kind", self._builder)
        jobs = ops_in_stream(ops, "jobs")
        assert jobs and all(op["stream"] == "jobs" for op in jobs)
        arrivals = arrivals_from_ops(ops)
        assert len(arrivals) == len(jobs)
        assert [a.time for a in arrivals] == [op["time"] for op in jobs]


class TestTenantMaterialization:
    def test_arrival_tenants_zeroed_before_arrival(self):
        mix = TenantMixSpec(tenant_arrivals_per_hour=10.0)
        horizon = 7200.0
        ops = plan_tenant_arrivals(mix, horizon, SEED)
        tenants = arrival_tenants(ops, mix, horizon)
        assert len(tenants) == len(ops)
        for op, tenant in zip(ops, tenants):
            from repro.traces.utilization import SAMPLE_INTERVAL_SECONDS

            first = min(
                len(tenant.trace.values),
                int(op["time"] // SAMPLE_INTERVAL_SECONDS),
            )
            assert not tenant.trace.values[:first].any()
            assert tenant.trace.values[first:].any()
            assert len(tenant.servers) == 1

    def test_apply_spikes_copy_on_write(self):
        mix = TenantMixSpec(tenant_arrivals_per_hour=10.0)
        tenants = arrival_tenants(
            plan_tenant_arrivals(mix, 7200.0, SEED), mix, 7200.0
        )
        spikes = plan_spikes(
            len(tenants), 30.0, Constant(0.5), Constant(1200.0), 7200.0, SEED
        )
        before = [t.trace.values.copy() for t in tenants]
        spiked = apply_spikes(tenants, spikes, "spikes")
        # Originals untouched; spiked tenants differ where ops landed.
        for tenant, values in zip(tenants, before):
            assert (tenant.trace.values == values).all()
        hit = {int(op["tenant_index"]) for op in spikes}
        changed = {
            i
            for i, (a, b) in enumerate(zip(tenants, spiked))
            if not (a.trace.values == b.trace.values).all()
        }
        assert changed == {i for i in hit if i < len(tenants)}
        for tenant in spiked:
            assert (tenant.trace.values <= 1.0).all()


class TestShapeWorkloadFactory:
    def test_access_order_independent(self):
        shape = JobShapeSpec()
        forward = ShapeWorkloadFactory(shape, RandomSource(SEED), num_jobs=8)
        backward = ShapeWorkloadFactory(shape, RandomSource(SEED), num_jobs=8)
        a = [dag_to_record(d) for d in forward.all_queries()]
        b = [
            dag_to_record(backward.query(n)) for n in range(8, 0, -1)
        ][::-1]
        assert a == b

    def test_factory_surface(self):
        factory = ShapeWorkloadFactory(
            JobShapeSpec(), RandomSource(SEED), num_jobs=4
        )
        assert factory.num_jobs == 4
        assert len(factory.duration_distribution()) == 4
        assert factory.query(1) is factory.query(1)  # cached
        with pytest.raises(ValueError, match="job number"):
            factory.query(0)
        with pytest.raises(ValueError, match="num_jobs"):
            ShapeWorkloadFactory(JobShapeSpec(), RandomSource(SEED), num_jobs=0)


class TestEndToEndReplay:
    def test_recorded_storm_replays_bit_identically(self, tmp_path):
        """--record-trace then --replay-trace: identical RunResult."""
        path = tmp_path / "storm.jsonl"
        base = get_scenario("failure-storm").with_overrides(scale=TINY_SCALE)
        recorded = api.run(
            base.with_overrides(
                params={**base.params, "record_trace": str(path)}
            ),
            seed=7,
        )
        replayed = api.run(
            base.with_overrides(
                params={**base.params, "replay_trace": str(path)}
            ),
            seed=7,
        )
        plain = api.run(base, seed=7)
        assert recorded.fingerprint() == replayed.fingerprint()
        assert recorded.fingerprint() == plain.fingerprint()
        header = read_trace_header(path)
        assert header["kind"] == "failure_storm"
        assert header["ops"] > 0

    def test_negative_server_index_in_replayed_storm_rejected(self, tmp_path):
        """A negative index would wrap onto the fleet's last servers."""
        path = tmp_path / "storm.jsonl"
        base = get_scenario("failure-storm").with_overrides(scale=TINY_SCALE)
        api.run(
            base.with_overrides(params={**base.params, "record_trace": str(path)}),
            seed=0,
        )
        header, ops = read_trace(path)
        ops[0]["server_index"] = -1
        write_trace(path, {k: v for k, v in header.items() if k != "record"}, ops)
        replay = base.with_overrides(params={**base.params, "replay_trace": str(path)})
        with pytest.raises(TraceError, match="negative server_index"):
            api.run(replay, seed=0)

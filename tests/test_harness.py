"""Tests for the scenario harness: registry, runners, and determinism."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.harness import (
    ExperimentHarness,
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.harness.config import TINY_SCALE
from repro.harness.results import (
    AvailabilityResult,
    DurabilityResult,
    SchedulingSweepResult,
    result_telemetry,
    result_to_jsonable,
)
from repro.harness.runners import RUNNERS
from repro.simulation.engine import SimulationEngine
from repro.traces.scaling import ScalingMethod


def tiny_availability_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        name="tiny-availability",
        kind="availability",
        variants=("HDFS-Stock", "HDFS-H"),
        replication_levels=(3,),
        utilization_levels=(0.4, 0.7),
        max_tenants=12,
        servers_per_tenant_limit=2,
        scale=TINY_SCALE,
        params={"accesses_per_point": 200},
    )
    return spec.with_overrides(**overrides) if overrides else spec


class TestRegistry:
    def test_default_scenarios_registered(self):
        names = scenario_names()
        for expected in (
            "fig15-durability",
            "fig16-availability",
            "fig13-dc9-sweep",
            "fig14-fleet-improvements",
            "fig10-11-scheduling-testbed",
            "fig12-storage-testbed",
        ):
            assert expected in names

    def test_iter_matches_names(self):
        assert [spec.name for spec in iter_scenarios()] == scenario_names()

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("fig15-durability")
        with pytest.raises(ValueError):
            register_scenario(spec)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", kind="not-a-kind")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="", kind="durability")

    @pytest.mark.parametrize(
        "grid,values",
        [
            ("variants", ("HDFS-Stock", "HDFS-Stock")),
            ("replication_levels", (3, 3)),
            ("utilization_levels", (0.3, 0.3)),
            ("scalings", (ScalingMethod.LINEAR, ScalingMethod.LINEAR)),
        ],
    )
    def test_duplicate_grid_values_rejected(self, grid, values):
        with pytest.raises(ValueError, match=f"twice in {grid}"):
            get_scenario("fig16-availability").with_overrides(**{grid: values})

    def test_with_overrides_returns_modified_copy(self):
        spec = get_scenario("fig15-durability")
        tiny = spec.with_overrides(scale=TINY_SCALE, seed=9)
        assert tiny.scale is TINY_SCALE and tiny.seed == 9
        assert spec.scale is not TINY_SCALE  # original untouched


class TestRunScenario:
    """Specs run through the one entry point, :func:`repro.api.run`."""

    def test_run_by_registered_name_shape(self):
        # The registered fig15 spec at QUICK scale is too slow for a unit
        # test, so run a scaled-down copy through the same entry point.
        spec = get_scenario("fig15-durability").with_overrides(
            name="tiny-durability",
            scale=TINY_SCALE,
            max_tenants=12,
            servers_per_tenant_limit=2,
        )
        result = api.run(spec, seed=3).payload
        assert isinstance(result, DurabilityResult)
        assert set(result.results) == {
            ("HDFS-Stock", 3),
            ("HDFS-H", 3),
            ("HDFS-Stock", 4),
            ("HDFS-H", 4),
        }

    def test_availability_spec_round_trip(self):
        result = api.run(tiny_availability_spec(), seed=3).payload
        assert isinstance(result, AvailabilityResult)
        assert len(result.points) == 2 * 2  # 2 utilizations x 2 variants

    def test_scheduling_sweep_spec(self):
        spec = ScenarioSpec(
            name="tiny-sweep",
            kind="scheduling_sweep",
            utilization_levels=(0.3,),
            max_tenants=8,
            servers_per_tenant_limit=2,
            scale=TINY_SCALE,
        )
        result = api.run(spec, seed=3).payload
        assert isinstance(result, SchedulingSweepResult)
        assert len(result.points) == 1

    def test_invalid_scenario_params_surface(self):
        with pytest.raises(ValueError):
            api.run(tiny_availability_spec(params={"accesses_per_point": 0}), seed=3)

    @pytest.mark.parametrize(
        "name,overrides,match",
        [
            ("failure-storm", {"storm_rates_per_day": (2.0, 2.0)}, "rate twice"),
            ("antagonist", {"spike_rates_per_hour": (2.0, 2.0)}, "rate twice"),
            ("failure-storm", {"replication_levels": (2, 3)}, "one replication"),
            ("fig15-durability", {"variants": ("HDFS-Bogus",)}, "'HDFS-Bogus'"),
            (
                "fig10-11-scheduling-testbed",
                {"variants": ("YARN-Stock", "YARN-Bogus")},
                "'YARN-Bogus'",
            ),
            ("predictor-ablation", {"variants": ("YARN-H", "YARN-PT")}, "'YARN-PT'"),
            ("fig13-dc9-sweep", {"variants": ("YARN-H",)}, "expected none"),
            ("fig15-durability", {"replication_levels": (2.5,)}, "positive int"),
            ("fig15-durability", {"replication_levels": (0,)}, "positive int"),
            ("fig15-durability", {"replication_levels": (-1,)}, "positive int"),
            ("fig15-durability", {"replication_levels": (True,)}, "positive int"),
            ("failure-storm", {"replication_levels": ("3",)}, "positive int"),
        ],
    )
    def test_unrunnable_specs_fail_before_the_build(
        self, monkeypatch, name, overrides, match
    ):
        overrides = {"scale": "tiny", **overrides}
        runner_cls = RUNNERS[get_scenario(name).kind]

        def no_build(self):
            raise AssertionError("the context build ran for an unrunnable spec")

        monkeypatch.setattr(runner_cls, "_prepare", no_build)
        with pytest.raises(ValueError, match=match):
            api.cells_from_spec(api.resolve(name, overrides))
        with pytest.raises(ValueError, match=match):
            api.run(name, overrides=overrides, workers=2)


class TestDeterminism:
    """A fixed seed must reproduce identical results and metric snapshots."""

    def test_two_harness_runs_produce_identical_metrics(self):
        spec = tiny_availability_spec()
        result_a = ExperimentHarness(spec, seed=5).run()
        result_b = ExperimentHarness(spec, seed=5).run()
        assert result_to_jsonable(result_a) == result_to_jsonable(result_b)
        assert result_telemetry(result_a) == result_telemetry(result_b)
        assert [
            (p.variant, p.replication, p.target_utilization, p.failed_accesses)
            for p in result_a.points
        ] == [
            (p.variant, p.replication, p.target_utilization, p.failed_accesses)
            for p in result_b.points
        ]

    def test_different_seeds_change_the_metrics(self):
        spec = tiny_availability_spec()
        first = api.run(spec, seed=5)
        second = api.run(spec, seed=6)
        # Same grid, but the sampled accesses (and so the failure counts)
        # differ, and the fingerprint sees it.
        assert len(first.payload.points) == len(second.payload.points)
        assert first.fingerprint() != second.fingerprint()

    def test_durability_runs_reproduce_block_loss_exactly(self):
        spec = ScenarioSpec(
            name="tiny-durability-det",
            kind="durability",
            variants=("HDFS-Stock", "HDFS-H"),
            replication_levels=(3,),
            max_tenants=10,
            servers_per_tenant_limit=2,
            scale=TINY_SCALE,
        )
        run_a = api.run(spec, seed=11)
        run_b = api.run(spec, seed=11)
        result_a = run_a.payload
        result_b = run_b.payload
        for key, outcome in result_a.results.items():
            twin = result_b.results[key]
            assert (outcome.blocks_created, outcome.blocks_lost) == (
                twin.blocks_created,
                twin.blocks_lost,
            )
        assert run_a.to_jsonable()["telemetry"] == run_b.to_jsonable()["telemetry"]


class TestEngineOrderingPin:
    """Regression pin: same-time events fire in (priority, insertion) order.

    The durability runner relies on this to replay reimages before the
    re-replication round scheduled at the same instant.
    """

    def test_priority_then_insertion_at_equal_times(self):
        engine = SimulationEngine()
        order: list[str] = []
        engine.schedule_at(10.0, lambda e: order.append("b0"), priority=1, name="b0")
        engine.schedule_at(10.0, lambda e: order.append("a0"), priority=0, name="a0")
        engine.schedule_at(10.0, lambda e: order.append("b1"), priority=1, name="b1")
        engine.schedule_at(10.0, lambda e: order.append("a1"), priority=0, name="a1")
        engine.schedule_at(5.0, lambda e: order.append("early"), priority=9)
        engine.run()
        assert order == ["early", "a0", "a1", "b0", "b1"]

    def test_periodic_and_one_shot_interleave_deterministically(self):
        def interleaved_order() -> list[tuple[str, float]]:
            engine = SimulationEngine()
            order: list[tuple[str, float]] = []
            engine.schedule_periodic(
                10.0, lambda e: order.append(("tick", e.now)), priority=1
            )
            for t in (10.0, 20.0, 30.0):
                engine.schedule_at(
                    t, lambda e: order.append(("event", e.now)), priority=0
                )
            engine.run_until(30.0)
            return order

        first = interleaved_order()
        assert first == interleaved_order()
        # Priority 0 one-shots precede the periodic tick at every shared time.
        assert first == [
            ("event", 10.0),
            ("tick", 10.0),
            ("event", 20.0),
            ("tick", 20.0),
            ("event", 30.0),
            ("tick", 30.0),
        ]

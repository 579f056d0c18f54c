"""Tests for ``repro.api``: cell grids, parallel execution, sweeps, envelopes.

The core contract under test is *bit-exact executor equivalence*: for every
scenario kind, running the cell grid across a process pool (fork on
Linux, spawn elsewhere) must produce exactly the payload, telemetry, and
fingerprint the serial run produces, because partial results are
reassembled in deterministic cell order and every cell draws only from
its recorded child seeds.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.api as api
from repro.api.result import UNFINGERPRINTED_KEYS
from repro.harness import ExperimentHarness, get_scenario
from repro.harness.config import TINY_SCALE
from repro.harness.results import result_to_jsonable
from repro.harness.runners import RUNNERS
from repro.harness.spec import ScenarioSpec
from repro.simulation.random import RandomSource


def tiny_spec(name: str, **overrides) -> ScenarioSpec:
    """A registered scenario shrunk to unit-test size."""
    spec = get_scenario(name).with_overrides(scale=TINY_SCALE)
    return spec.with_overrides(**overrides) if overrides else spec


#: One (scenario, worker count) pair per scenario kind, covering the 2..4
#: worker range the executor must stay bit-exact across.
PARALLEL_CASES = [
    ("fig15-durability", 2, {}),
    ("fig16-availability", 3, {}),
    ("fig13-dc9-sweep", 4, {}),
    ("fig10-11-scheduling-testbed", 2, {}),
    ("fig12-storage-testbed", 3, {}),
    ("fig14-fleet-improvements", 4, {"params": {"datacenters": ["DC-3", "DC-9"]}}),
    (
        "continuous-open",
        2,
        {
            "params": {
                "traffic": "open:rate=0.005,profile=diurnal,period=1800,amplitude=0.5",
                "epochs": 3,
                "epoch_seconds": 300.0,
            }
        },
    ),
    ("failure-storm", 2, {}),
    (
        "heterogeneous-fleet",
        3,
        {"params": {"workload": "tenant_arrivals_per_hour=60"}},
    ),
    ("antagonist", 2, {"params": {"spike_rates_per_hour": (30.0,)}}),
    (
        "predictor-ablation",
        2,
        {"params": {"controller_interval_seconds": 120.0}},
    ),
]


class TestParallelEquivalence:
    """workers=N must be bit-identical to the serial run, per scenario kind."""

    @pytest.mark.parametrize(
        "name,workers,overrides",
        PARALLEL_CASES,
        ids=[case[0] for case in PARALLEL_CASES],
    )
    def test_parallel_matches_serial(self, name, workers, overrides):
        spec = tiny_spec(name, **overrides)
        serial = api.run(spec, seed=7)
        parallel = api.run(spec, seed=7, workers=workers)
        assert parallel.workers == workers
        assert serial.fingerprint() == parallel.fingerprint()
        assert result_to_jsonable(serial.payload) == result_to_jsonable(
            parallel.payload
        )
        assert serial.to_jsonable()["telemetry"] == parallel.to_jsonable()["telemetry"]
        # One timing per cell, reassembled in cell order.
        assert [t.index for t in parallel.cell_timings] == list(
            range(len(parallel.cell_timings))
        )

    def test_worker_count_capped_at_cell_count(self):
        spec = tiny_spec(
            "fig15-durability",
            replication_levels=(3,),
            variants=("HDFS-Stock", "HDFS-H"),
            max_tenants=8,
            servers_per_tenant_limit=2,
        )
        result = api.run(spec, seed=1, workers=16)  # grid only has 2 cells
        assert len(result.cell_timings) == 2
        assert result.fingerprint() == api.run(spec, seed=1).fingerprint()


class TestCellGrids:
    """Cell enumeration must mirror the serial loops' nesting order."""

    def build_runner(self, spec, seed=3):
        return RUNNERS[spec.kind](spec, RandomSource(seed))

    def test_durability_grid_is_replication_major(self):
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2)
        cells = self.build_runner(spec).cells()
        assert [c.key for c in cells] == [
            "HDFS-Stock-r3", "HDFS-H-r3", "HDFS-Stock-r4", "HDFS-H-r4",
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert all(len(c.seeds) == 1 for c in cells)
        # Seeds are forked per cell: all distinct, stable across enumerations.
        assert len({c.seeds for c in cells}) == len(cells)
        again = self.build_runner(spec).cells()
        assert [c.seeds for c in again] == [c.seeds for c in cells]

    def test_availability_grid_is_target_major(self):
        spec = tiny_spec(
            "fig16-availability",
            utilization_levels=(0.3, 0.5),
            replication_levels=(3,),
            max_tenants=6,
            servers_per_tenant_limit=2,
        )
        cells = self.build_runner(spec).cells()
        assert [c.key for c in cells] == [
            "HDFS-Stock-r3-u0.3", "HDFS-H-r3-u0.3",
            "HDFS-Stock-r3-u0.5", "HDFS-H-r3-u0.5",
        ]
        assert [c.coord("target_utilization") for c in cells] == [0.3, 0.3, 0.5, 0.5]

    def test_sweep_grid_covers_scaling_by_target(self):
        spec = tiny_spec("fig13-dc9-sweep", utilization_levels=(0.3, 0.5),
                         max_tenants=6, servers_per_tenant_limit=2)
        cells = self.build_runner(spec).cells()
        assert [c.key for c in cells] == [
            "linear-u0.3", "linear-u0.5", "root-u0.3", "root-u0.5",
        ]

    def test_testbed_grid_leads_with_baseline(self):
        spec = tiny_spec("fig10-11-scheduling-testbed")
        cells = self.build_runner(spec).cells()
        assert [c.key for c in cells] == [
            "no-harvesting", "YARN-Stock", "YARN-PT", "YARN-H",
        ]
        # The variant cells carry the four serial forks: cluster, tpcds,
        # workload, latency.
        assert all(len(c.seeds) == 4 for c in cells[1:])

    def test_fleet_grid_concatenates_datacenter_sweeps(self):
        spec = tiny_spec(
            "fig14-fleet-improvements",
            utilization_levels=(0.3,),
            max_tenants=4,
            servers_per_tenant_limit=2,
            params={"datacenters": ["DC-3", "DC-9"]},
        )
        cells = self.build_runner(spec).cells()
        assert [c.key for c in cells] == [
            "DC-3/linear-u0.3", "DC-9/linear-u0.3",
        ]
        assert [c.coord("datacenter") for c in cells] == ["DC-3", "DC-9"]


class TestSweepBuilder:
    def test_cross_product_order_and_names(self):
        specs = api.sweep(
            "fig15-durability",
            {"datacenter": ["DC-3", "DC-9"], "seed": [0, 1]},
        )
        assert [s.name for s in specs] == [
            "fig15-durability[datacenter=DC-3,seed=0]",
            "fig15-durability[datacenter=DC-3,seed=1]",
            "fig15-durability[datacenter=DC-9,seed=0]",
            "fig15-durability[datacenter=DC-9,seed=1]",
        ]
        assert [(s.datacenter, s.seed) for s in specs] == [
            ("DC-3", 0), ("DC-3", 1), ("DC-9", 0), ("DC-9", 1),
        ]
        # Everything not swept is inherited from the base spec.
        base = get_scenario("fig15-durability")
        assert all(s.kind == base.kind for s in specs)
        assert all(s.max_tenants == base.max_tenants for s in specs)

    def test_non_field_keys_sweep_into_params(self):
        specs = api.sweep(
            "fig16-availability",
            {"accesses_per_point": [100, 200]},
            overrides={"scale": "tiny"},
        )
        assert [s.params["accesses_per_point"] for s in specs] == [100, 200]
        assert all(s.scale is TINY_SCALE for s in specs)

    def test_swept_specs_run_without_registration(self):
        specs = api.sweep(
            "fig15-durability",
            {"seed": [0, 1]},
            overrides={
                "scale": "tiny",
                "max_tenants": 6,
                "servers_per_tenant_limit": 2,
                "replication_levels": (3,),
            },
        )
        results = api.run_sweep(specs)
        assert [r.scenario for r in results] == [s.name for s in specs]
        # Different seeds, independent streams: fingerprints differ.
        assert results[0].fingerprint() != results[1].fingerprint()

    def test_reserved_fields_rejected(self):
        with pytest.raises(ValueError):
            api.sweep("fig15-durability", {"name": ["a", "b"]})


@pytest.fixture(scope="module")
def tiny_fig13():
    """One tiny fig13 run: its sweep points carry scheduler telemetry."""
    return api.run("fig13-dc9-sweep", overrides={"scale": "tiny"})


class TestRunResultEnvelope:
    def test_to_jsonable_matches_legacy_json_document(self):
        """The envelope emits exactly what ``run-scenario --json`` printed."""
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        result = api.run(spec, seed=5)
        document = json.loads(json.dumps(result.to_jsonable()))
        assert set(document) == {
            "scenario", "kind", "seed", "wall_clock_seconds", "timings",
            "result", "telemetry",
        }
        assert document["telemetry"] == {}  # durability carries none
        assert document["scenario"] == spec.name
        assert document["kind"] == "durability"
        assert document["seed"] == 5
        assert document["result"] == result_to_jsonable(api.run(spec, seed=5).payload)
        # ctx vs cell split: both sides of the run's cost are visible, and
        # neither participates in the fingerprint.
        timings = document["timings"]
        assert timings["ctx_seconds"] > 0
        assert set(timings["cell_seconds"]) == {"HDFS-Stock-r3", "HDFS-H-r3"}
        assert timings["resumed_cells"] == 0
        assert timings["worker_restore_seconds"] == []

    def test_fingerprint_stable_and_seed_sensitive(self):
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        first = api.run(spec, seed=5)
        second = api.run(spec, seed=5)
        third = api.run(spec, seed=6)
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != third.fingerprint()

    def test_telemetry_is_outside_the_fingerprint(self, tiny_fig13):
        before = tiny_fig13.fingerprint()
        telemetry = tiny_fig13.to_jsonable()["telemetry"]
        tiny_fig13.payload.points[0].scheduler_counters["yarn_h"][
            "waves_coalesced"
        ] += 1
        try:
            assert tiny_fig13.to_jsonable()["telemetry"] != telemetry
            assert tiny_fig13.fingerprint() == before
        finally:
            tiny_fig13.payload.points[0].scheduler_counters["yarn_h"][
                "waves_coalesced"
            ] -= 1

    def test_fingerprint_digests_all_but_the_unfingerprinted_keys(self, tiny_fig13):
        document = tiny_fig13.to_jsonable()
        assert set(UNFINGERPRINTED_KEYS) < set(document)
        for key in UNFINGERPRINTED_KEYS:
            document.pop(key)
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert tiny_fig13.fingerprint() == digest

    def test_sweep_telemetry_counts_coalesced_waves(self, tiny_fig13):
        points = tiny_fig13.to_jsonable()["telemetry"]["points"]
        assert len(points) == len(tiny_fig13.payload.points)
        assert all(
            set(counters) == {"waves_coalesced"}
            for point in points
            for counters in point["scheduler_counters"].values()
        )
        assert sum(
            counters["waves_coalesced"]
            for point in points
            for counters in point["scheduler_counters"].values()
        ) > 0

    def test_headline_and_render_delegate_to_payload(self):
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        result = api.run(spec, seed=5)
        assert result.headline() == result.payload.headline()
        assert "Durability" in result.render()
        assert set(result.cell_seconds()) == {"HDFS-Stock-r3", "HDFS-H-r3"}

    def test_overrides_accept_scale_presets_and_params(self):
        result = api.run(
            "fig16-availability",
            overrides={
                "scale": "tiny",
                "utilization_levels": (0.4,),
                "replication_levels": (3,),
                "max_tenants": 6,
                "servers_per_tenant_limit": 2,
                "accesses_per_point": 50,
            },
            seed=2,
        )
        assert result.spec.scale is TINY_SCALE
        assert result.spec.params["accesses_per_point"] == 50
        assert all(p.accesses <= 50 for p in result.payload.points)

    def test_unknown_scale_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown scale preset"):
            api.run("fig15-durability", overrides={"scale": "galactic"})


class TestHarnessExecutor:
    def test_harness_records_cell_timings(self):
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        harness = ExperimentHarness(spec, seed=1)
        harness.run()
        assert [t.key for t in harness.cell_timings] == [
            "HDFS-Stock-r3", "HDFS-H-r3",
        ]
        assert all(t.seconds >= 0 for t in harness.cell_timings)

    def test_run_scenario_accepts_workers(self):
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        a = result_to_jsonable(api.run(spec, seed=4).payload)
        b = result_to_jsonable(api.run(spec, seed=4, workers=2).payload)
        assert a == b

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExperimentHarness(tiny_spec("fig16-availability"), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            api.run("fig16-availability", overrides={"scale": "tiny"}, workers=workers)

"""Tests for prepared-context snapshots: serialize once, restore bit-exactly.

Three layers of the contract, bottom-up:

* :class:`~repro.simulation.random.RandomSource` state capture — a restored
  stream continues draw-for-draw and fork-for-fork, and
  :class:`~repro.simulation.random.ForkSequence` replays fork seeds with no
  generator at all (the spec-only cell enumeration fast path);
* each snapshotted columnar substrate (TraceMatrix, TaskTable)
  round-trips through its ``to_arrays`` / ``from_arrays`` form with every
  column, cache, and derived counter intact;
* a runner restored from a serialized :class:`ContextSnapshot` — in this
  process or via the checkpoint directory — produces results bit-identical
  to the straight-line serial run, for every scenario kind.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

import repro.api as api
from repro.harness import (
    ExperimentHarness,
    CheckpointPause,
    RunCheckpoint,
    SnapshotError,
    cells_from_spec,
    deserialize_snapshot,
    get_scenario,
    restore_runner,
    serialize_snapshot,
    snapshot_digest,
    snapshot_runner,
)
from repro.harness.config import TINY_SCALE
from repro.harness.results import result_telemetry, result_to_jsonable
from repro.harness.runners import RUNNERS, ScenarioRunner
from repro.harness.snapshot import SNAPSHOT_MAGIC
from repro.harness.spec import ScenarioSpec
from repro.jobs.dag import JobDag, Vertex
from repro.jobs.task_table import COMPLETED, KILLED, TaskTable
from repro.simulation.random import ForkSequence, RandomSource, child_seed
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.matrix import TraceMatrix
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def tiny_spec(name: str, **overrides) -> ScenarioSpec:
    """A registered scenario shrunk to unit-test size."""
    spec = get_scenario(name).with_overrides(scale=TINY_SCALE)
    return spec.with_overrides(**overrides) if overrides else spec


#: One trimmed spec per scenario kind — the full kind coverage matrix.
KIND_CASES = [
    ("fig15-durability", {"max_tenants": 6, "servers_per_tenant_limit": 2,
                          "replication_levels": (3,)}),
    ("fig16-availability", {"max_tenants": 6, "servers_per_tenant_limit": 2,
                            "utilization_levels": (0.4,),
                            "replication_levels": (3,),
                            "params": {"accesses_per_point": 50}}),
    ("fig13-dc9-sweep", {"utilization_levels": (0.25, 0.5)}),
    ("fig10-11-scheduling-testbed", {}),
    ("fig12-storage-testbed", {}),
    ("fig14-fleet-improvements", {"params": {"datacenters": ["DC-3", "DC-9"]}}),
    (
        "continuous-closed",
        {
            "params": {
                "traffic": "closed:users=3,think=180",
                "epochs": 3,
                "epoch_seconds": 300.0,
            }
        },
    ),
    ("failure-storm", {"max_tenants": 6, "servers_per_tenant_limit": 2,
                       "params": {"storm_rates_per_day": (2.0,),
                                  "storm_fraction": 0.15}}),
    (
        "heterogeneous-fleet",
        {"params": {"workload": "tenant_arrivals_per_hour=60"}},
    ),
    ("antagonist", {"params": {"spike_rates_per_hour": (30.0,)}}),
    (
        "predictor-ablation",
        {"params": {"controller_interval_seconds": 120.0}},
    ),
]
KIND_IDS = [case[0] for case in KIND_CASES]


def assert_arrays_equal(left: dict, right: dict) -> None:
    """Two ``to_arrays`` images hold exactly the same data."""
    assert set(left) == set(right)
    for key in left:
        a, b = left[key], right[key]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype, key
            assert np.array_equal(a, b), key
        else:
            assert a == b, key


# ---------------------------------------------------------------------------
# RandomSource state capture and fork replay
# ---------------------------------------------------------------------------


class TestRandomSourceState:
    def test_restored_stream_continues_bit_for_bit(self):
        source = RandomSource(11)
        source.normal_array(0.0, 1.0, 17)  # advance the stream
        source.fork("warmup")
        state = source.state_dict()
        expected = [source.uniform() for _ in range(10)]
        expected_fork = source.fork("after").seed

        restored = RandomSource.from_state(state)
        assert [restored.uniform() for _ in range(10)] == expected
        assert restored.fork("after").seed == expected_fork

    def test_state_dict_round_trips_through_pickle(self):
        source = RandomSource(3)
        source.poisson_process(0.5, 20.0)
        state = pickle.loads(pickle.dumps(source.state_dict()))
        restored = RandomSource.from_state(state)
        assert restored.seed == source.seed
        assert restored.fork_count == source.fork_count
        assert restored.uniform() == source.uniform()

    def test_set_state_rewinds_in_place(self):
        source = RandomSource(4)
        state = source.state_dict()
        first = source.normal_array(0.0, 1.0, 5)
        source.set_state(state)
        assert np.array_equal(source.normal_array(0.0, 1.0, 5), first)

    def test_fork_sequence_replays_fork_seeds_without_a_generator(self):
        labels = ["fleet", "reimages", "", "cell-3", "fleet"]
        source = RandomSource(29)
        source.uniform_array(0.0, 1.0, 100)  # draws must not affect fork seeds
        forks = ForkSequence(29)
        for label in labels:
            assert forks.fork_seed(label) == source.fork(label).seed

    def test_child_seed_is_the_fork_arithmetic(self):
        source = RandomSource(8)
        assert source.fork("x").seed == child_seed(8, 1, "x")
        assert source.fork("y").seed == child_seed(8, 2, "y")


# ---------------------------------------------------------------------------
# Substrate array round-trips
# ---------------------------------------------------------------------------


def make_tenant(tenant_id: str, values, num_servers: int = 2) -> PrimaryTenant:
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(
            np.asarray(values, dtype=float), UtilizationPattern.CONSTANT
        ),
        pattern=UtilizationPattern.CONSTANT,
    )
    for index in range(num_servers):
        tenant.servers.append(
            Server(
                server_id=f"{tenant_id}-s{index}",
                tenant_id=tenant_id,
                rack=f"rack-{index}",
                harvestable_disk_gb=64.0,
                cores=12,
                memory_gb=32.0,
            )
        )
    return tenant


class TestTraceMatrixRoundTrip:
    def test_arrays_round_trip(self):
        matrix = TraceMatrix([
            make_tenant("a", [0.1, 0.9, 0.5, 0.3]),
            make_tenant("b", [0.8, 0.2]),
        ])
        restored = TraceMatrix.from_arrays(matrix.to_arrays())
        assert_arrays_equal(matrix.to_arrays(), restored.to_arrays())
        assert restored.tenant_ids == matrix.tenant_ids
        assert restored.row_of_server("b-s1") == matrix.row_of_server("b-s1")

    def test_pickle_round_trip_preserves_queries(self):
        matrix = TraceMatrix([make_tenant("a", [0.1, 0.9, 0.5, 0.3])])
        restored = pickle.loads(pickle.dumps(matrix))
        assert_arrays_equal(matrix.to_arrays(), restored.to_arrays())


class TestTaskTableRoundTrip:
    def build_dag(self) -> JobDag:
        return JobDag(
            "job-rt",
            [
                Vertex("v0", num_tasks=3, task_duration_seconds=10.0, upstream=[]),
                Vertex("v1", num_tasks=2, task_duration_seconds=5.0,
                       upstream=["v0"]),
                Vertex("v2", num_tasks=4, task_duration_seconds=7.0,
                       upstream=["v0", "v1"]),
            ],
        )

    def test_arrays_round_trip_recomputes_derived_state(self):
        dag = self.build_dag()
        table = TaskTable(dag)
        for row in range(3):  # complete v0
            table.set_state(row, COMPLETED)
        table.mark_running(3, container_id=7)
        table.set_state(4, KILLED)

        restored = TaskTable.from_arrays(dag, table.to_arrays())
        assert_arrays_equal(table.to_arrays(), restored.to_arrays())
        assert np.array_equal(restored.runnable_rows(), table.runnable_rows())
        assert restored.vertex_completed("v0") and not restored.vertex_completed("v2")
        assert restored.tasks_completed_total == 3
        assert restored.needs_containers == table.needs_containers

    def test_row_count_mismatch_rejected(self):
        dag = self.build_dag()
        arrays = TaskTable(dag).to_arrays()
        arrays["state"] = np.zeros(2, dtype=np.int8)
        with pytest.raises(ValueError):
            TaskTable.from_arrays(dag, arrays)


# ---------------------------------------------------------------------------
# Snapshot envelope and restored-runner parity
# ---------------------------------------------------------------------------


class TestSnapshotEnvelope:
    def test_bad_magic_and_version_fail_loudly(self):
        with pytest.raises(SnapshotError):
            deserialize_snapshot(b"NOTASNAP" + b"\x00" * 16)
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        runner = RUNNERS[spec.kind](spec, RandomSource(7))
        data = bytearray(serialize_snapshot(snapshot_runner(runner)))
        data[6] = 0xFF  # corrupt the version bytes
        with pytest.raises(SnapshotError):
            deserialize_snapshot(bytes(data))

    def test_digest_is_stable_per_payload(self):
        assert snapshot_digest(b"abc") == snapshot_digest(b"abc")
        assert snapshot_digest(b"abc") != snapshot_digest(b"abd")


#: A tiny fig16 grid over two utilization targets.  Two replicas at the
#: 0.75 target fail some accesses (0.3 fails none), so a cell handed the
#: other target's tenants reports different counts.
FIG16_OVERRIDES = {
    "max_tenants": 8,
    "servers_per_tenant_limit": 3,
    "utilization_levels": (0.3, 0.75),
    "replication_levels": (2,),
    "params": {"accesses_per_point": 200},
}


def fig16_spec() -> ScenarioSpec:
    return tiny_spec("fig16-availability", **FIG16_OVERRIDES)


def version_one_envelope(runner: ScenarioRunner) -> bytes:
    """A fig16 snapshot in the version-1 layout, under a version-1 header.

    Version 1 carried every target's scaled tenants, server ids and trace
    matrix in ``per_target`` instead of the trimmed base set.
    """
    snapshot = snapshot_runner(runner)
    ctx = dict(snapshot.ctx)
    trimmed = ctx.pop("trimmed")
    ctx["per_target"] = {
        target: {
            "tenants": trimmed,
            "all_servers": [s.server_id for t in trimmed for s in t.servers],
            "matrix": TraceMatrix(trimmed),
        }
        for target in runner.spec.utilization_levels
    }
    snapshot.ctx = ctx
    snapshot.version = 1
    return SNAPSHOT_MAGIC + (1).to_bytes(2, "big") + pickle.dumps(snapshot)


class TestVersionOneSnapshots:
    """A version-1 context must fail at decode, never inside ``run_cell``."""

    def test_version_one_envelope_names_both_versions(self):
        runner = RUNNERS["availability"](fig16_spec(), RandomSource(7))
        data = version_one_envelope(runner)
        with pytest.raises(SnapshotError, match=r"version 1 != supported 2"):
            deserialize_snapshot(data)
        # The same payload under the current version number gets as far as
        # the cell, which cannot read the old layout: the version byte is
        # what turns that into a clean error.
        relabelled = data[: len(SNAPSHOT_MAGIC)] + (2).to_bytes(2, "big")
        relabelled += data[len(SNAPSHOT_MAGIC) + 2 :]
        restored = restore_runner(deserialize_snapshot(relabelled))
        with pytest.raises(KeyError):
            restored.run_cell(restored.cells()[0])

    def test_resume_from_a_version_one_checkpoint_names_both_versions(
        self, tmp_path
    ):
        spec = fig16_spec()
        ckpt = tmp_path / "ckpt"
        with pytest.raises(CheckpointPause):
            api.run(spec, seed=7, checkpoint=ckpt, stop_after_cells=2)
        checkpoint = RunCheckpoint(ckpt)
        data = version_one_envelope(RUNNERS[spec.kind](spec, RandomSource(7)))
        # A well-formed old checkpoint: its digest matches its bytes.
        meta = checkpoint.read_meta()
        meta["digest"] = snapshot_digest(data)
        checkpoint.write_context(data, meta)
        with pytest.raises(SnapshotError, match=r"version 1 != supported 2"):
            api.run(spec, seed=7, checkpoint=ckpt, resume=True)
        with pytest.raises(SnapshotError, match=r"version 1 != supported 2"):
            api.run(spec, seed=7, checkpoint=ckpt, resume=True, workers=2)


# ---------------------------------------------------------------------------
# One copy of each input per context; derived products per process
# ---------------------------------------------------------------------------

#: The kinds whose cells derive scaled tenant sets or trace matrices.
DERIVING_CASES = [
    ("fig13-dc9-sweep", {"utilization_levels": (0.25, 0.5)}),
    ("fig14-fleet-improvements", {"params": {"datacenters": ["DC-3", "DC-9"]}}),
    ("fig15-durability", {"max_tenants": 6, "servers_per_tenant_limit": 2,
                          "replication_levels": (3,)}),
    ("fig16-availability", FIG16_OVERRIDES),
    ("failure-storm", {"max_tenants": 6, "servers_per_tenant_limit": 2,
                       "params": {"storm_rates_per_day": (2.0,),
                                  "storm_fraction": 0.15}}),
]
DERIVING_IDS = [case[0] for case in DERIVING_CASES]

#: The context keys allowed to hold a tenant set: the one trimmed base set.
TENANT_SET_KEYS = ("trimmed", "tenants")


def reachable(value, path=()):
    """Every ``(path, object)`` reachable from a context, sub-runners included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from reachable(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for position, item in enumerate(value):
            yield from reachable(item, path + (position,))
    elif isinstance(value, ScenarioRunner):
        yield from reachable(value.ctx, path + ("ctx",))


def runners_in(runner: ScenarioRunner):
    """The runner and every sub-runner its context holds."""
    found = {id(runner): runner}
    for _, obj in reachable(runner.ctx):
        if isinstance(obj, ScenarioRunner):
            found[id(obj)] = obj
    return list(found.values())


class TestOneCopyContext:
    @pytest.mark.parametrize("name,overrides", DERIVING_CASES, ids=DERIVING_IDS)
    def test_context_holds_each_tenant_once_and_no_matrix(self, name, overrides):
        runner = RUNNERS[get_scenario(name).kind](
            tiny_spec(name, **overrides), RandomSource(7)
        )
        objects = dict(reachable(runner.ctx))
        assert not [path for path, obj in objects.items() if isinstance(obj, TraceMatrix)]
        tenant_paths = [
            path for path, obj in objects.items() if isinstance(obj, PrimaryTenant)
        ]
        assert tenant_paths, "no tenant reached: the walk proves nothing"
        # Every tenant sits directly in a runner's one base set ...
        assert all(path[-2] in TENANT_SET_KEYS for path in tenant_paths)
        for runner_ in runners_in(runner):
            assert sum(key in runner_.ctx for key in TENANT_SET_KEYS) <= 1
        # ... and in only one list (fig14 reaches each sub-runner twice,
        # through "subs" and "flat", but it is the same list).
        lists = {}
        for path in tenant_paths:
            lists.setdefault(id(objects[path]), set()).add(id(objects[path[:-1]]))
        assert all(len(ids) == 1 for ids in lists.values())

    @pytest.mark.parametrize("name,overrides", DERIVING_CASES, ids=DERIVING_IDS)
    def test_running_a_cell_leaves_the_snapshot_unchanged(self, name, overrides):
        runner = RUNNERS[get_scenario(name).kind](
            tiny_spec(name, **overrides), RandomSource(7)
        )
        before = serialize_snapshot(snapshot_runner(runner))
        runner.run_cell(runner.cells()[-1])
        assert serialize_snapshot(snapshot_runner(runner)) == before

    def test_a_pickled_runner_drops_its_derived_product(self):
        runner = RUNNERS["availability"](fig16_spec(), RandomSource(7))
        cell = runner.cells()[0]
        runner.run_cell(cell)
        tenants, _, matrix = runner.derived(
            cell.coord("target_utilization"), lambda: None
        )
        assert tenants and isinstance(matrix, TraceMatrix)
        clone = pickle.loads(pickle.dumps(runner))
        assert clone._derived is None
        assert clone.run_cell(cell) == runner.run_cell(cell)


def interleaved_halves(cells):
    """First half and second half alternating: the grid's leading loop
    (fig16's target, fig14's datacenter) changes on every cell."""
    half = (len(cells) + 1) // 2
    first, second = cells[:half], cells[half:]
    order = []
    for position, cell in enumerate(first):
        order.append(cell)
        if position < len(second):
            order.append(second[position])
    return order


class TestDerivedMemo:
    """The per-process memo gives the same partials in any cell order."""

    @pytest.mark.parametrize(
        "name,overrides",
        [("fig14-fleet-improvements", dict(DERIVING_CASES)["fig14-fleet-improvements"]),
         ("fig16-availability", FIG16_OVERRIDES)],
        ids=["fig14-fleet-improvements", "fig16-availability"],
    )
    def test_restored_runner_in_any_order_matches_a_cold_memo(self, name, overrides):
        spec = tiny_spec(name, **overrides)
        data = serialize_snapshot(
            snapshot_runner(RUNNERS[spec.kind](spec, RandomSource(7)))
        )
        cells = restore_runner(deserialize_snapshot(data)).cells()
        assert len(cells) >= 4
        # Each cell alone in a fresh process image: nothing memoized yet.
        expected = {
            cell.index: restore_runner(deserialize_snapshot(data)).run_cell(cell)
            for cell in cells
        }
        for order in (list(cells), cells[::-1], interleaved_halves(cells)):
            restored = restore_runner(deserialize_snapshot(data))
            got = {cell.index: restored.run_cell(cell) for cell in order}
            assert got == expected


class TestRestoredRunParity:
    """A runner restored from bytes must finish the run bit-identically."""

    @pytest.mark.parametrize("name,overrides", KIND_CASES, ids=KIND_IDS)
    def test_restore_then_run_matches_straight_line(self, name, overrides):
        spec = tiny_spec(name, **overrides)
        straight_result = ExperimentHarness(spec, seed=7).run()
        reference = result_to_jsonable(straight_result)

        runner = RUNNERS[spec.kind](spec, RandomSource(7))
        data = serialize_snapshot(snapshot_runner(runner))
        restored = restore_runner(deserialize_snapshot(data))
        cells = restored.cells()
        partials = [restored.run_cell(cell) for cell in cells]
        merged = restored.merge(cells, partials)
        assert result_to_jsonable(merged) == reference
        assert result_telemetry(merged) == result_telemetry(straight_result)


class TestCellsFromSpec:
    """Spec-only enumeration replays the full build's grid exactly."""

    @pytest.mark.parametrize("name,overrides", KIND_CASES, ids=KIND_IDS)
    def test_spec_only_cells_match_full_build(self, name, overrides):
        spec = tiny_spec(name, **overrides)
        fast = cells_from_spec(spec, seed=7)
        full = RUNNERS[spec.kind](spec, RandomSource(7)).cells()
        assert [(c.index, c.key, c.seeds, c.coords) for c in fast] == [
            (c.index, c.key, c.seeds, c.coords) for c in full
        ]

    def test_empty_sweep_grid_short_circuits(self):
        spec = tiny_spec("fig13-dc9-sweep", max_tenants=0)
        assert cells_from_spec(spec, seed=7) == []


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    SPEC_KW = dict(max_tenants=6, servers_per_tenant_limit=2)

    def spec(self):
        return tiny_spec("fig15-durability", **self.SPEC_KW)

    def test_pause_then_resume_is_bit_identical(self, tmp_path):
        spec = self.spec()
        reference = api.run(spec, seed=7)
        ckpt = tmp_path / "ckpt"

        with pytest.raises(CheckpointPause) as pause:
            api.run(spec, seed=7, checkpoint=ckpt, stop_after_cells=2)
        assert pause.value.completed == 2
        assert RunCheckpoint(ckpt).exists()
        assert len(RunCheckpoint(ckpt).completed_cells()) == 2

        resumed = api.run(spec, seed=7, checkpoint=ckpt, resume=True, workers=2)
        assert resumed.fingerprint() == reference.fingerprint()
        assert resumed.resumed_cells == 2
        assert (
            resumed.to_jsonable()["telemetry"] == reference.to_jsonable()["telemetry"]
        )
        # All cells report a timing, resumed ones included.
        assert len(resumed.cell_timings) == len(reference.cell_timings)

    def test_fully_cached_resume_re_merges_everything(self, tmp_path):
        spec = self.spec()
        ckpt = tmp_path / "ckpt"
        first = api.run(spec, seed=7, checkpoint=ckpt)
        again = api.run(spec, seed=7, checkpoint=ckpt, resume=True)
        assert again.fingerprint() == first.fingerprint()
        assert again.resumed_cells == len(first.cell_timings)

    def test_resume_with_missing_checkpoint_is_a_fresh_run(self, tmp_path):
        spec = self.spec()
        ckpt = tmp_path / "never-written"
        result = api.run(spec, seed=7, checkpoint=ckpt, resume=True)
        assert result.resumed_cells == 0
        assert RunCheckpoint(ckpt).exists()  # written for next time
        assert result.fingerprint() == api.run(spec, seed=7).fingerprint()

    def test_seed_or_spec_mismatch_rejected(self, tmp_path):
        spec = self.spec()
        ckpt = tmp_path / "ckpt"
        with pytest.raises(CheckpointPause):
            api.run(spec, seed=7, checkpoint=ckpt, stop_after_cells=1)
        with pytest.raises(SnapshotError):
            api.run(spec, seed=8, checkpoint=ckpt, resume=True)
        other = spec.with_overrides(replication_levels=(3,))
        with pytest.raises(SnapshotError):
            api.run(other, seed=7, checkpoint=ckpt, resume=True)

    def test_stop_after_cells_requires_checkpoint_dir(self):
        with pytest.raises(ValueError):
            ExperimentHarness(self.spec(), stop_after_cells=2)

    def test_torn_context_detected_by_digest(self, tmp_path):
        spec = self.spec()
        ckpt = tmp_path / "ckpt"
        with pytest.raises(CheckpointPause):
            api.run(spec, seed=7, checkpoint=ckpt, stop_after_cells=1)
        path = RunCheckpoint(ckpt).context_path
        path.write_bytes(path.read_bytes()[:-8])  # truncate the snapshot
        with pytest.raises(SnapshotError):
            api.run(spec, seed=7, checkpoint=ckpt, resume=True)


class TestTimingsSurface:
    def test_parallel_run_reports_snapshot_economics(self):
        spec = tiny_spec("fig15-durability", max_tenants=6,
                         servers_per_tenant_limit=2, replication_levels=(3,))
        result = api.run(spec, seed=7, workers=2)
        doc = json.loads(json.dumps(result.to_jsonable()))
        timings = doc["timings"]
        assert timings["ctx_seconds"] > 0
        assert timings["snapshot_seconds"] > 0
        assert timings["worker_restore_seconds"]  # each worker restored once
        assert all(s > 0 for s in timings["worker_restore_seconds"])
        # The timings section never participates in the fingerprint.
        serial = api.run(spec, seed=7)
        assert result.fingerprint() == serial.fingerprint()

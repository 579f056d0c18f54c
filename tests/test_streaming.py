"""Suite for the per-minute latency fold, one-shot and streamed per epoch.

Three contracts:

1. **Bit-exactness** — both uses of the fold equal a full-horizon post-hoc
   evaluation over a retain-all series (replicated here as the oracle):
   the testbed's terminal fold for every scheduling variant, and the
   streamed epoch stream for both traffic kinds, serially and on a process
   pool, including the explicit window-boundary semantics (last-epoch
   clamp, non-integer ``epoch_seconds``, a heartbeat landing exactly on a
   window edge).
2. **Bounded memory** — peak retained series bytes are flat as the horizon
   grows 4x (a retain-all recorder, by contrast, grows linearly).
3. **Run-forever** — ``epochs=0`` streams windows up to ``max_sim_seconds``,
   emits incrementally via ``on_epoch`` / ``--emit-epochs``, and a paused
   run resumes fingerprint-identically.
"""

from __future__ import annotations

import json
import tracemalloc
from typing import List

import numpy as np
import pytest

import repro.api as api
from repro.cli import build_parser, cmd_scenario
from repro.harness.continuous import _run_continuous_variant
from repro.harness.harness import _build_runner
from repro.harness.results import epoch_record
from repro.harness.runners import _SCHEDULING_VARIANT_MODES
from repro.harness.snapshot import CheckpointPause
from repro.harness.streaming import StreamingEpochAggregator
from repro.harness.traffic import EpochRecorder
from repro.jobs.scheduler_variants import (
    ClusterConfig,
    HarvestingCluster,
    SeriesRecorder,
)
from repro.jobs.tpcds import TpcdsWorkloadFactory
from repro.jobs.workload import WorkloadGenerator
from repro.harness.traffic import parse_traffic
from repro.services.latency_model import LatencyModel
from repro.simulation.random import RandomSource

from test_traffic import tiny_continuous

EPOCH_SECONDS = 300.0


# ---------------------------------------------------------------------------
# The oracle: a retain-all series evaluated in one post-hoc pass
# ---------------------------------------------------------------------------


class RetainAllRecorder(SeriesRecorder):
    """Keeps every heartbeat row — O(horizon x servers) memory."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.secondary: List[np.ndarray] = []
        self.primary: List[np.ndarray] = []

    def record(self, time, secondary_cpu, primary_cpu) -> None:
        self.times.append(time)
        self.secondary.append(secondary_cpu)
        self.primary.append(primary_cpu)

    def series(self):
        """``(times, secondary, primary)`` as ``(samples,)`` and
        ``(samples x servers)`` arrays."""
        return (
            np.asarray(self.times),
            np.vstack(self.secondary),
            np.vstack(self.primary),
        )


def _bucket_mean(times: np.ndarray, matrix: np.ndarray, interval: float) -> np.ndarray:
    """Bucket matrix rows into fixed ``interval`` windows and average each.

    Each bucket is reduced along the contiguous axis so the summation order
    (numpy's pairwise reduction) matches a per-series 1-D mean bit for bit.
    """
    buckets = np.floor(times / interval).astype(int)
    unique = np.unique(buckets)
    return np.vstack(
        [np.ascontiguousarray(matrix[buckets == b].T).mean(axis=1) for b in unique]
    )


def posthoc_minute_samples(
    recorder: RetainAllRecorder, latency_rng: RandomSource, reserve_fraction: float
):
    """``(minute starts, fleet-mean p99 per minute)`` over the whole series."""
    if not recorder.times:
        return np.zeros(0), []
    times, secondary_cpu, primary_cpu = recorder.series()
    latency_model = LatencyModel(rng=latency_rng, reserve_fraction=reserve_fraction)
    minute_starts = np.unique(np.floor(times / 60.0).astype(int)) * 60.0
    secondary = _bucket_mean(times, secondary_cpu, 60.0)
    primary = _bucket_mean(times, primary_cpu, 60.0)
    per_minute = latency_model.p99_latency_ms_array(
        np.minimum(1.0, primary), secondary
    )
    return minute_starts, [float(np.mean(row)) for row in per_minute]


def posthoc_epoch_p99(
    recorder: RetainAllRecorder,
    latency_rng: RandomSource,
    reserve_fraction: float,
    epochs: int,
    epoch_seconds: float,
) -> List[float]:
    """The per-epoch p99 of the post-hoc minute samples."""
    per_epoch: List[List[float]] = [[] for _ in range(epochs)]
    starts, samples = posthoc_minute_samples(recorder, latency_rng, reserve_fraction)
    for start, sample in zip(starts, samples):
        per_epoch[min(int(start // epoch_seconds), epochs - 1)].append(sample)
    return [
        float(np.percentile(np.asarray(samples), 99.0)) if samples else 0.0
        for samples in per_epoch
    ]


def retain_all_cluster(tenants, variant: str, cluster_rng: RandomSource):
    """A variant's cluster with a :class:`RetainAllRecorder` installed."""
    cluster = HarvestingCluster(
        tenants,
        config=ClusterConfig(mode=_SCHEDULING_VARIANT_MODES[variant]),
        rng=cluster_rng,
    )
    recorder = RetainAllRecorder()
    cluster.set_series_recorder(recorder)
    return cluster, recorder


def posthoc_variant_p99(spec, seed: int, variant: str) -> List[float]:
    """Replay one continuous cell with a retain-all recorder, post hoc."""
    runner = _build_runner(spec, seed)
    cell = next(c for c in runner.cells() if c.coord("variant") == variant)
    cluster_rng, tpcds_rng, traffic_rng, latency_rng = (
        RandomSource(s) for s in cell.seeds
    )
    epochs = int(spec.param("epochs"))
    epoch_seconds = float(spec.param("epoch_seconds"))
    horizon = epochs * epoch_seconds
    cluster, series = retain_all_cluster(runner.ctx["tenants"], variant, cluster_rng)
    factory = TpcdsWorkloadFactory(tpcds_rng, duration_scale=1.0, width_scale=0.35)
    driver = parse_traffic(str(spec.param("traffic")))
    driver.attach(cluster, factory, horizon, traffic_rng)
    recorder = EpochRecorder(cluster, driver, epoch_seconds, epochs)
    recorder.install()
    cluster.run(horizon)
    return posthoc_epoch_p99(
        series,
        latency_rng,
        cluster.config.reserve_cpu_fraction,
        epochs,
        epoch_seconds,
    )


def posthoc_testbed_samples(spec, seed: int, variant: str) -> List[float]:
    """Replay one scheduling-testbed cell with a retain-all recorder."""
    runner = _build_runner(spec, seed)
    cell = next(c for c in runner.cells() if c.coord("variant") == variant)
    cluster_rng, tpcds_rng, workload_rng, latency_rng = (
        RandomSource(s) for s in cell.seeds
    )
    duration = spec.scale.experiment_hours * 3600.0
    cluster, series = retain_all_cluster(runner.ctx["tenants"], variant, cluster_rng)
    factory = TpcdsWorkloadFactory(tpcds_rng, duration_scale=1.0, width_scale=0.35)
    generator = WorkloadGenerator(
        factory, spec.scale.mean_interarrival_seconds, workload_rng
    )
    cluster.submit_arrivals(generator.arrivals(duration * 0.8))
    cluster.run(duration)
    _, samples = posthoc_minute_samples(
        series, latency_rng, cluster.config.reserve_cpu_fraction
    )
    return samples


# ---------------------------------------------------------------------------
# Streaming == post-hoc, end to end
# ---------------------------------------------------------------------------


class TestTestbedFoldMatchesPostHoc:
    def test_scheduling_testbed_samples_equal_oracle(self):
        spec = api.resolve("fig10-11-scheduling-testbed", {"scale": "tiny"})
        result = api.run(spec, seed=11)
        for variant, outcome in result.payload.variants.items():
            oracle = posthoc_testbed_samples(spec, 11, variant)
            assert oracle, variant
            assert outcome.latency_samples == oracle, variant


STREAM_CASES = [
    ("continuous-open", "open:rate=0.005,profile=diurnal,period=1800", 300.0),
    ("continuous-closed", "closed:users=3,think=180", 300.0),
    # Windows not aligned to the minute grid: minutes straddle boundaries,
    # exercising the delayed finalization path.
    ("continuous-open", "open:rate=0.005", 90.0),
]


class TestStreamingMatchesPostHoc:
    @pytest.mark.parametrize("name,traffic,epoch_seconds", STREAM_CASES)
    def test_full_epoch_stream_equals_oracle(self, name, traffic, epoch_seconds):
        spec = tiny_continuous(
            name, traffic=traffic, epochs=3, epoch_seconds=epoch_seconds
        )
        result = api.run(spec, seed=11)
        for variant, outcome in result.payload.variants.items():
            oracle = posthoc_variant_p99(spec, 11, variant)
            streamed = [e.p99_primary_ms for e in outcome.epochs]
            assert streamed == oracle, variant

    @pytest.mark.parametrize(
        "name,traffic",
        [
            ("continuous-open", "open:rate=0.005,profile=diurnal,period=1800"),
            ("continuous-closed", "closed:users=3,think=180"),
        ],
    )
    def test_parallel_stream_is_bit_identical(self, name, traffic):
        spec = tiny_continuous(name, traffic=traffic)
        serial = api.run(spec, seed=11)
        parallel = api.run(spec, seed=11, workers=2)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.payload.headline() == parallel.payload.headline()

    def test_observability_counters_are_populated_but_unfingerprinted(self):
        spec = tiny_continuous()
        result = api.run(spec, seed=11)
        outcome = next(iter(result.payload.variants.values()))
        assert outcome.series_folds >= 3
        assert outcome.peak_tail_rows > 0
        assert outcome.peak_tail_bytes > 0
        jsonable = result.to_jsonable()
        variant = next(iter(jsonable["result"]["variants"].values()))
        assert "peak_tail_bytes" not in variant


# ---------------------------------------------------------------------------
# Window-boundary semantics, unit level
# ---------------------------------------------------------------------------


def synthetic_aggregator(epochs: int, epoch_seconds: float, seed: int = 5):
    return StreamingEpochAggregator(
        latency_rng=RandomSource(seed),
        reserve_fraction=0.1,
        epochs=epochs,
        epoch_seconds=epoch_seconds,
    )


def feed(agg, horizon: float, servers: int = 4, step: float = 15.0):
    """Deterministic synthetic heartbeat rows on the 15s grid up to horizon,
    with a boundary snapshot at every multiple of ``agg.epoch_seconds``
    (and a final partial snapshot at the horizon, like the recorder)."""
    rng = np.random.default_rng(99)
    count = 0
    next_boundary = agg.epoch_seconds
    t = step
    while t <= horizon:
        agg.record(
            t,
            rng.uniform(0.0, 0.5, size=servers),
            rng.uniform(0.0, 1.0, size=servers),
        )
        count += 1
        while next_boundary <= t and (
            not agg.epochs or next_boundary <= agg.epochs * agg.epoch_seconds
        ):
            agg.boundary(_snapshot(next_boundary, count))
            next_boundary += agg.epoch_seconds
        t += step
    if not agg.epochs and horizon > next_boundary - agg.epoch_seconds:
        agg.boundary(_snapshot(horizon, count))
    return agg.finalize()


def _snapshot(time: float, count: int):
    return {
        "time": time,
        "jobs_submitted": count,
        "jobs_completed": count,
        "tasks_completed": count,
        "tasks_killed": 0,
    }


class TestBoundarySemantics:
    def test_minute_past_horizon_clamps_into_last_epoch(self):
        # Horizon 3 x 300s; one heartbeat lands exactly at 900.0 — its
        # minute starts at 900, past the last boundary, and must clamp into
        # epoch 2 exactly as the post-hoc min(index, epochs - 1) did.
        agg = synthetic_aggregator(epochs=3, epoch_seconds=300.0)
        rng = np.random.default_rng(1)
        count = 0
        for t in np.arange(15.0, 900.0 + 1e-9, 15.0):
            agg.record(
                float(t), rng.uniform(0, 0.5, 4), rng.uniform(0, 1.0, 4)
            )
            count += 1
            if float(t) in (300.0, 600.0, 900.0):
                agg.boundary(_snapshot(float(t), count))
        metrics = agg.finalize()
        assert [m.index for m in metrics] == [0, 1, 2]
        # minute 900 contributed a sample: epochs 0-1 hold 5 minutes each
        # (minutes 0-4, 5-9), epoch 2 holds minutes 10-14 *plus* minute 15.
        assert len(agg._samples) == 0  # all consumed
        assert metrics[2].end_seconds == 900.0

    def test_edge_heartbeat_lands_in_next_window_sample_wise(self):
        # epoch_seconds a multiple of 60: a heartbeat at exactly 300.0
        # starts minute 5, whose epoch is int(300 // 300) = 1 — the sample
        # belongs to window 1 even though the window-0 counter snapshot at
        # t=300 already includes the heartbeat's side effects.
        agg = synthetic_aggregator(epochs=2, epoch_seconds=300.0)
        rng = np.random.default_rng(2)
        # Only two rows: one strictly inside window 0, one exactly on edge.
        agg.record(150.0, rng.uniform(0, 0.5, 4), rng.uniform(0, 1.0, 4))
        agg.boundary(_snapshot(300.0, 1))
        agg.record(300.0, rng.uniform(0, 0.5, 4), rng.uniform(0, 1.0, 4))
        agg.boundary(_snapshot(600.0, 2))
        metrics = agg.finalize()
        assert metrics[0].p99_primary_ms > 0.0
        assert metrics[1].p99_primary_ms > 0.0
        assert metrics[0].p99_primary_ms != metrics[1].p99_primary_ms

    def test_non_integer_epoch_seconds_assigns_by_minute_start(self):
        # 90-second windows: minute 1 (start 60.0) straddles the boundary
        # at 90 but belongs wholly to epoch int(60 // 90) = 0.
        agg = synthetic_aggregator(epochs=2, epoch_seconds=90.0)
        oracle = synthetic_aggregator(epochs=2, epoch_seconds=90.0)
        rng = np.random.default_rng(3)
        rows = [
            (float(t), rng.uniform(0, 0.5, 4), rng.uniform(0, 1.0, 4))
            for t in np.arange(15.0, 180.0 + 1e-9, 15.0)
        ]
        for t, sec, pri in rows:
            agg.record(t, sec, pri)
            if t in (90.0, 180.0):
                agg.boundary(_snapshot(t, 1))
        streamed = agg.finalize()
        # Oracle: everything folded in one terminal pass (same draw stream).
        for t, sec, pri in rows:
            oracle.record(t, sec, pri)
        oracle.boundary(_snapshot(90.0, 1))
        oracle.boundary(_snapshot(180.0, 1))
        posthoc = oracle.finalize()
        assert [m.p99_primary_ms for m in streamed] == [
            m.p99_primary_ms for m in posthoc
        ]

    def test_incremental_folds_match_single_terminal_fold(self):
        # The load-bearing jitter-stream property: folding at every
        # boundary consumes the identical normal-draw stream as one
        # terminal fold over the same rows.
        incremental = feed(synthetic_aggregator(0, 300.0), horizon=3600.0)
        terminal = synthetic_aggregator(0, 300.0)
        rng = np.random.default_rng(99)
        count = 0
        for t in np.arange(15.0, 3600.0 + 1e-9, 15.0):
            terminal.record(
                float(t), rng.uniform(0, 0.5, 4), rng.uniform(0, 1.0, 4)
            )
            count += 1
        for k in range(1, 13):
            terminal.boundary(_snapshot(k * 300.0, count))
        batch = terminal.finalize()
        assert [m.p99_primary_ms for m in incremental] == [
            m.p99_primary_ms for m in batch
        ]

    def test_rejects_invalid_window_parameters(self):
        with pytest.raises(ValueError):
            synthetic_aggregator(epochs=-1, epoch_seconds=300.0)
        with pytest.raises(ValueError):
            synthetic_aggregator(epochs=3, epoch_seconds=0.0)


class TestEpochRecorderValidation:
    def test_rejects_negative_epochs_and_zero_window(self):
        with pytest.raises(ValueError):
            EpochRecorder(None, None, 300.0, -1)
        with pytest.raises(ValueError):
            EpochRecorder(None, None, 0.0, 3)

    def test_epochs_zero_is_accepted_as_run_forever(self):
        # Constructing with epochs=0 must not raise (cluster unused here).
        recorder = EpochRecorder(None, None, 300.0, 0)
        assert recorder.epochs == 0


class TestVariantValidation:
    def test_run_forever_requires_horizon(self):
        with pytest.raises(ValueError, match="max_sim_seconds"):
            _run_continuous_variant(
                "YARN-H",
                None,
                (1, 2, 3, 4),
                traffic="open:rate=0.005",
                epochs=0,
                epoch_seconds=300.0,
            )

    def test_bounded_mode_rejects_horizon_override(self):
        with pytest.raises(ValueError, match="run-forever"):
            _run_continuous_variant(
                "YARN-H",
                None,
                (1, 2, 3, 4),
                traffic="open:rate=0.005",
                epochs=3,
                epoch_seconds=300.0,
                max_sim_seconds=1000.0,
            )


# ---------------------------------------------------------------------------
# Bounded memory
# ---------------------------------------------------------------------------


class TestBoundedMemory:
    SERVERS = 2048  # big rows so the series dwarfs per-epoch bookkeeping

    def _traced_peak(self, recorder_factory, horizon: float) -> int:
        rng = np.random.default_rng(7)
        rows = None
        tracemalloc.start()
        try:
            recorder = recorder_factory()
            count = 0
            next_boundary = 300.0
            t = 15.0
            while t <= horizon:
                recorder.record(
                    t,
                    rng.uniform(0.0, 0.5, self.SERVERS),
                    rng.uniform(0.0, 1.0, self.SERVERS),
                )
                count += 1
                if isinstance(recorder, StreamingEpochAggregator):
                    while next_boundary <= t:
                        recorder.boundary(_snapshot(next_boundary, count))
                        next_boundary += 300.0
                t += 15.0
            if isinstance(recorder, StreamingEpochAggregator):
                recorder.finalize()
            else:
                rows = recorder.series()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del rows
        return peak

    def test_streaming_peak_is_flat_across_4x_horizon(self):
        short = self._traced_peak(
            lambda: synthetic_aggregator(0, 300.0), horizon=4 * 300.0
        )
        long = self._traced_peak(
            lambda: synthetic_aggregator(0, 300.0), horizon=16 * 300.0
        )
        assert long <= short * 1.10, (short, long)

    def test_retain_all_grows_linearly_for_contrast(self):
        short = self._traced_peak(RetainAllRecorder, horizon=4 * 300.0)
        long = self._traced_peak(RetainAllRecorder, horizon=16 * 300.0)
        assert long >= short * 2.0, (short, long)

    def test_real_run_tail_is_flat_across_4x_horizon(self):
        # End-to-end: the aggregator's peak retained raw-series bytes in an
        # actual continuous run must not grow with the horizon.
        def peak_bytes(epochs: int) -> int:
            spec = tiny_continuous(epochs=epochs, epoch_seconds=300.0)
            result = api.run(spec, seed=11)
            return max(
                v.peak_tail_bytes for v in result.payload.variants.values()
            )

        assert peak_bytes(8) <= peak_bytes(2) * 1.10


# ---------------------------------------------------------------------------
# Run-forever: incremental emission + checkpoint/resume
# ---------------------------------------------------------------------------


class TestRunForever:
    KNOBS = dict(
        traffic="open:rate=0.005",
        epochs=0,
        epoch_seconds=300.0,
        max_sim_seconds=700.0,
        overrides={"scale": "tiny"},
    )

    def test_emits_partial_trailing_window(self):
        result = api.run_continuous("continuous-open", seed=11, **self.KNOBS)
        assert result.payload.num_epochs == 3
        for outcome in result.payload.variants.values():
            assert [e.index for e in outcome.epochs] == [0, 1, 2]
            assert outcome.epochs[-1].end_seconds == 700.0
            assert outcome.epochs[-1].start_seconds == 600.0

    def test_on_epoch_streams_exactly_once_and_matches_payload(self):
        streamed: List[tuple] = []
        result = api.run_continuous(
            "continuous-open",
            seed=11,
            on_epoch=lambda variant, m: streamed.append((variant, m)),
            **self.KNOBS,
        )
        assert len(streamed) == len(set((v, m.index) for v, m in streamed))
        for variant, outcome in result.payload.variants.items():
            mine = [m for v, m in streamed if v == variant]
            assert mine == outcome.epochs

    def test_pause_resume_is_fingerprint_identical(self, tmp_path):
        straight = api.run_continuous("continuous-open", seed=11, **self.KNOBS)
        ckpt = tmp_path / "ckpt"
        with pytest.raises(CheckpointPause):
            api.run_continuous(
                "continuous-open",
                seed=11,
                checkpoint=ckpt,
                stop_after_cells=1,
                **self.KNOBS,
            )
        streamed: List[tuple] = []
        resumed = api.run_continuous(
            "continuous-open",
            seed=11,
            checkpoint=ckpt,
            resume=True,
            workers=2,
            on_epoch=lambda variant, m: streamed.append((variant, m)),
            **self.KNOBS,
        )
        assert resumed.resumed_cells == 1
        assert resumed.fingerprint() == straight.fingerprint()
        # The resumed cell's epochs replay through on_epoch too: the stream
        # covers every (variant, epoch) exactly once.
        keys = [(v, m.index) for v, m in streamed]
        assert sorted(keys) == sorted(
            (v, e.index)
            for v, outcome in resumed.payload.variants.items()
            for e in outcome.epochs
        )

    def test_jsonl_records_roundtrip_the_payload(self):
        lines: List[str] = []
        result = api.run_continuous(
            "continuous-open",
            seed=11,
            on_epoch=lambda v, m: lines.append(
                json.dumps(epoch_record(v, m), sort_keys=True)
            ),
            **self.KNOBS,
        )
        records = [json.loads(line) for line in lines]
        by_variant: dict = {}
        for r in records:
            by_variant.setdefault(r["variant"], []).append(r)
        for variant, outcome in result.payload.variants.items():
            got = by_variant[variant]
            want = [epoch_record(variant, e) for e in outcome.epochs]
            assert got == want


# ---------------------------------------------------------------------------
# CLI validation
# ---------------------------------------------------------------------------


class TestCliValidation:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--epochs", "-1"], "--epochs must be >= 0"),
            (["--epoch-seconds", "0"], "--epoch-seconds must be a positive"),
            (
                ["--epochs", "0", "--max-sim-seconds", "-5"],
                "--max-sim-seconds must be a positive",
            ),
            (["--epochs", "0"], "requires --max-sim-seconds"),
            (["--max-sim-seconds", "100"], "requires --epochs 0"),
        ],
    )
    def test_rejects_bad_continuous_knobs(self, argv, message):
        parser = build_parser()
        args = parser.parse_args(
            ["run-scenario", "continuous-open", "--scale", "tiny"] + argv
        )
        with pytest.raises(SystemExit, match=message):
            cmd_scenario(args)

    def test_rejects_continuous_flags_on_figure_kinds(self, tmp_path):
        parser = build_parser()
        for flags in (
            ["--emit-epochs", str(tmp_path / "x.jsonl")],
            ["--traffic", "open:rate=0.005"],
            ["--epochs", "3"],
            ["--epoch-seconds", "300"],
        ):
            args = parser.parse_args(
                ["run-scenario", "fig12-storage-testbed", "--scale", "tiny"]
                + flags
            )
            with pytest.raises(SystemExit, match="continuous scenarios"):
                cmd_scenario(args)

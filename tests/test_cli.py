"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.api.result import UNFINGERPRINTED_KEYS
from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = [
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        ]
        commands = set(subactions[0].choices)
        assert commands == {"characterize", "microbench", "run-scenario"}

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_characterize_prints_table(self, capsys):
        exit_code = main(["characterize", "--scale", "0.02", "--months", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Fleet characterization" in out
        assert "DC-9" in out

    def test_microbench_prints_latencies(self, capsys):
        exit_code = main(["microbench"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "class selection" in out
        assert "ms" in out

    def test_durability_small(self, capsys):
        exit_code = main(["run-scenario", "fig15-durability", "--scale", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HDFS-Stock" in out and "HDFS-H" in out
        assert "Durability (DC-9)" in out

    def test_availability_small(self, capsys):
        exit_code = main(["run-scenario", "fig16-availability", "--scale", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HDFS-H R3" in out

    def test_run_scenario_list(self, capsys):
        exit_code = main(["run-scenario", "--list"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig15-durability" in out
        assert "fig16-availability" in out
        assert "scheduling_sweep" in out

    def test_run_scenario_without_name_lists(self, capsys):
        exit_code = main(["run-scenario"])
        assert exit_code == 0
        assert "Registered scenarios" in capsys.readouterr().out

    def test_run_scenario_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run-scenario", "no-such-scenario"])

    def test_run_scenario_json(self, capsys):
        import json

        from repro.harness import register_scenario
        from repro.harness.config import TINY_SCALE
        from repro.harness.spec import _REGISTRY, ScenarioSpec

        register_scenario(
            ScenarioSpec(
                name="cli-json-smoke",
                kind="scheduling_testbed",
                scale=TINY_SCALE,
                variants=("YARN-PT",),
            ),
            replace_existing=True,
        )
        try:
            exit_code = main(["run-scenario", "cli-json-smoke", "--json"])
            assert exit_code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["scenario"] == "cli-json-smoke"
            assert payload["wall_clock_seconds"] > 0
            assert "YARN-PT" in payload["result"]["variants"]
            assert payload["result"]["variants"]["YARN-PT"]["jobs_completed"] >= 0
        finally:
            _REGISTRY.pop("cli-json-smoke", None)

    def test_run_scenario_list_json(self, capsys):
        import json

        exit_code = main(["run-scenario", "--list", "--json"])
        assert exit_code == 0
        listed = json.loads(capsys.readouterr().out)
        assert any(entry["scenario"] == "fig15-durability" for entry in listed)
        assert all(
            {"scenario", "kind", "figure", "description"} <= set(e) for e in listed
        )


class TestRunScenarioValidation:
    """Bad executor flags exit with a one-line error before any build."""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(["run-scenario", "fig15-durability", "--workers", workers])

    def test_stop_after_cells_requires_checkpoint_dir(self):
        with pytest.raises(
            SystemExit, match="--stop-after-cells requires --checkpoint-dir"
        ):
            main(["run-scenario", "fig15-durability", "--stop-after-cells", "1"])

    @pytest.mark.parametrize("cells", ["0", "-2"])
    def test_nonpositive_stop_after_cells_rejected(self, cells, tmp_path):
        with pytest.raises(SystemExit, match="--stop-after-cells must be >= 1"):
            main(
                ["run-scenario", "fig15-durability", "--stop-after-cells", cells,
                 "--checkpoint-dir", str(tmp_path)]
            )


class TestWorkloadFlags:
    """The workload-substrate CLI surface: eager validation + record/replay."""

    def test_unknown_distribution_fails_before_running(self):
        with pytest.raises(SystemExit, match="unknown distribution 'bogus'"):
            main(
                ["run-scenario", "heterogeneous-fleet",
                 "--workload", "duration=bogus:mean=1"]
            )

    def test_negative_share_rejected(self):
        with pytest.raises(
            SystemExit, match="share for 'periodic' must be non-negative"
        ):
            main(
                ["run-scenario", "heterogeneous-fleet",
                 "--workload", "shares=periodic:-3"]
            )

    def test_negative_tenant_arrival_rate_rejected(self):
        with pytest.raises(
            SystemExit, match="tenant_arrivals_per_hour must be non-negative"
        ):
            main(
                ["run-scenario", "heterogeneous-fleet",
                 "--workload", "tenant_arrivals_per_hour=-1"]
            )

    def test_unknown_skew_rejected(self):
        with pytest.raises(SystemExit, match="unknown skew 'zorf'"):
            main(
                ["run-scenario", "failure-storm", "--skew", "zorf:alpha=1.2"]
            )

    def test_record_and_replay_conflict(self):
        with pytest.raises(
            SystemExit, match="cannot record and replay a trace in the same run"
        ):
            main(
                ["run-scenario", "failure-storm",
                 "--record-trace", "a.jsonl", "--replay-trace", "b.jsonl"]
            )

    def test_replay_file_missing(self):
        with pytest.raises(SystemExit, match="replay trace not found"):
            main(
                ["run-scenario", "failure-storm",
                 "--replay-trace", "does-not-exist.jsonl"]
            )

    def test_replay_version_mismatch(self, tmp_path):
        import json

        stale = tmp_path / "stale.jsonl"
        stale.write_text(
            json.dumps(
                {"record": "header", "version": 99, "kind": "failure_storm"}
            )
            + "\n"
        )
        with pytest.raises(
            SystemExit, match="trace version mismatch: found 99, expected 1"
        ):
            main(
                ["run-scenario", "failure-storm", "--replay-trace", str(stale)]
            )

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        import json

        from repro.harness import get_scenario, register_scenario
        from repro.harness.config import TINY_SCALE
        from repro.harness.spec import _REGISTRY

        register_scenario(
            get_scenario("failure-storm").with_overrides(
                name="cli-replay-smoke", scale=TINY_SCALE
            ),
            replace_existing=True,
        )
        trace = tmp_path / "storm.jsonl"

        def run(*extra):
            exit_code = main(
                ["run-scenario", "cli-replay-smoke", "--json", *extra]
            )
            assert exit_code == 0
            payload = json.loads(capsys.readouterr().out)
            # Timing and provenance fields legitimately differ per run.
            for key in UNFINGERPRINTED_KEYS:
                payload.pop(key, None)
            return payload

        try:
            recorded = run("--record-trace", str(trace))
            replayed = run("--replay-trace", str(trace))
        finally:
            _REGISTRY.pop("cli-replay-smoke", None)
        assert trace.exists()
        assert replayed == recorded

"""The benchmark itself, exercised at tiny scale: every metric is emitted,
tracing does not perturb the simulation, failures are counted, and the
comparison verdicts follow their rules."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from run import Measurement, metric_units, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONFIG = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def measurement():
    """One traced round of every workload at tiny scale, two workloads at a
    time (timings are not asserted, so sharing the cores is harmless)."""
    measurement = Measurement(1, scale="tiny", trace=True, timeouts={w: 60.0 for w in WORKLOADS})
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(measurement.run_round, WORKLOADS))
    return measurement


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(measurement, workload):
    assert measurement.failed(workload) == 0, measurement.rounds[workload][0]["errors"]
    for section, samples in (
        ("end_to_end", measurement.samples(workload)),
        ("per_layer", measurement.layer_samples(workload)),
    ):
        units = metric_units(CONFIG, section)
        summary = summarize(samples, units)
        assert set(summary) == set(units)
        assert all(summary[name]["unit"] == unit for name, unit in units.items())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_does_not_perturb_the_run(measurement, workload):
    runs = measurement.rounds[workload][0]["runs"]
    assert set(runs) == {"serial", "w2", "traced"}
    assert len({run["fingerprint"] for run in runs.values()}) == 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_spans_account_for_the_cell_time(measurement, workload):
    traced = measurement.rounds[workload][0]["runs"]["traced"]
    assert traced["attribution_residual"] <= 0.05
    assert traced["layers"]["harness.unattributed_frac"] <= 0.10


def test_fingerprint_mismatch_counts_as_failed(measurement):
    workload = "storage-place"
    round0 = measurement.rounds[workload][0]
    judged = Measurement(1, expected={workload: {"1": "0" * 64}})
    record = {"runs": dict(round0["runs"]), "errors": {}}
    judged.check_fingerprints(workload, record)
    judged.rounds[workload] = [record]
    assert judged.attempted(workload) == 3
    assert judged.failed(workload) == 3
    assert judged.samples(workload)["run_s"] == []


def test_compare_clear_win_is_improved():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    change = [x * 0.8 for x in parent]
    assert verdict(parent, change, 0.1, "lower")["verdict"] == "improved"


def test_compare_regression_beyond_bound_is_regressed():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    change = [x * 1.2 for x in parent]
    result = verdict(parent, change, 0.1, "lower")
    assert result["verdict"] == "regressed"
    assert result["change"] == pytest.approx(0.2)
    assert verdict(parent, change, 0.25, "lower")["verdict"] == "no-worse"


def test_compare_overlapping_wide_spreads_are_unresolved():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.5, 9.5, 11.5]
    change = [x * 1.05 for x in reversed(parent)]
    assert verdict(parent, change, 0.1, "lower")["verdict"] == "unresolved"


def test_compare_honours_higher_is_better():
    parent = [1.0, 1.01, 0.99, 1.0, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99]
    assert verdict(parent, [x * 0.8 for x in parent], 0.1, "higher")["verdict"] == "regressed"
    assert verdict(parent, [x * 1.2 for x in parent], 0.1, "higher")["verdict"] == "improved"

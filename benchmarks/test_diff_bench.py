"""The fingerprint gate: ``diff_bench.diff_payloads`` reports exactly the drift."""

from __future__ import annotations

import copy

from diff_bench import diff_payloads

REFERENCE = {
    "schema": 1,
    "scale": "TINY",
    "seed": 1,
    "scenarios": {
        "fig15_durability": {"headline": {"lost_blocks": 3, "rate": 0.25}},
        "failure_storm": {"headline": {"lost_blocks": 0}},
    },
}


def _fresh(**changes) -> dict:
    payload = copy.deepcopy(REFERENCE)
    payload.update(changes)
    return payload


def test_identical_payloads_report_nothing():
    assert diff_payloads(_fresh(), REFERENCE, "BENCH_storage.json") == []


def test_workers_metadata_is_ignored():
    assert diff_payloads(_fresh(workers=2), REFERENCE, "BENCH_storage.json") == []


def test_changed_headline_value_is_reported():
    fresh = _fresh()
    fresh["scenarios"]["fig15_durability"]["headline"]["rate"] = 0.26
    problems = diff_payloads(fresh, REFERENCE, "BENCH_storage.json")
    assert len(problems) == 1
    assert "headline drift in fig15_durability" in problems[0]
    assert "0.26" in problems[0] and "0.25" in problems[0]


def test_missing_scenario_is_reported():
    fresh = _fresh()
    del fresh["scenarios"]["failure_storm"]
    assert diff_payloads(fresh, REFERENCE, "BENCH_storage.json") == [
        "BENCH_storage.json: scenario failure_storm missing on one side"
    ]


def test_changed_scale_and_seed_are_reported():
    problems = diff_payloads(
        _fresh(scale="BENCH", seed=2), REFERENCE, "BENCH_storage.json"
    )
    assert problems == [
        "BENCH_storage.json: scale differs ('BENCH' != 'TINY')",
        "BENCH_storage.json: seed differs (2 != 1)",
    ]

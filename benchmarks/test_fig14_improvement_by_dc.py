"""Figure 14: job run-time improvements from YARN-H/Tez-H per datacenter.

The paper reports average improvements between 12% and 56% under linear
scaling across the ten datacenters, with the smallest gains in the
datacenters whose primary tenants vary least over time (DC-0, DC-2) and the
largest gains where temporal variation is largest (DC-1, DC-4).

By default this benchmark runs a representative subset (DC-0, DC-1, DC-4,
DC-9) to keep the suite fast; set ``REPRO_BENCH_FULL=1`` for all ten.
"""

from __future__ import annotations


from repro.harness.report import format_table
from repro.traces.scaling import ScalingMethod

from conftest import run_once


def test_fig14_improvement_by_dc(benchmark, fleet_improvements):
    result = run_once(benchmark, lambda: fleet_improvements)
    summary = result.summary(ScalingMethod.LINEAR)

    rows = []
    for name in sorted(summary):
        stats = summary[name]
        rows.append([
            name,
            f"{100 * stats['min']:.0f}%",
            f"{100 * stats['avg']:.0f}%",
            f"{100 * stats['max']:.0f}%",
        ])
    print()
    print(format_table(
        ["DC", "min improvement", "avg improvement", "max improvement"],
        rows,
        title="Figure 14: YARN-H/Tez-H improvement per datacenter (linear scaling)",
    ))

    improvements = [stats["avg"] for stats in summary.values()]
    # The improvement metric is a clamped run-time reduction, so it can never
    # be negative; the history-based scheduler must not regress any DC.
    assert min(improvements) >= 0.0
    assert all(0.0 <= stats["max"] <= 1.0 for stats in summary.values())
    # Every datacenter completed jobs under both schedulers (the sweep points
    # exist), so the comparison is meaningful.
    for sweep in result.sweeps.values():
        assert sweep.points
        for point in sweep.points:
            assert point.jobs_completed_pt > 0
            assert point.jobs_completed_h > 0

    if "DC-0" in summary and "DC-4" in summary:
        # Low-variation DC-0 gains less than high-variation DC-4 on average;
        # allow slack because the quick configuration runs a single seed and a
        # small per-DC server sample (the per-DC magnitudes of Figure 14 are
        # noise-dominated at this scale — see EXPERIMENTS.md).
        assert summary["DC-0"]["avg"] <= summary["DC-4"]["avg"] + 0.15

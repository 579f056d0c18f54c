"""Figure 11: batch job execution times under the YARN variants.

YARN-Stock achieves the lowest job times but only by ruining the primary
tenant; YARN-PT pays for its protection with task kills and re-executions;
YARN-H/Tez-H recovers a large part of that cost by scheduling tasks where
they are less likely to be killed (938 s vs 1181 s on average in the paper,
and the cluster's average CPU utilization rises from 33% to 54%).
"""

from __future__ import annotations

from repro.harness.report import format_table

from conftest import run_once


def test_fig11_job_runtimes(benchmark, scheduling_testbed):
    result = run_once(benchmark, lambda: scheduling_testbed)

    rows = []
    for name in ("YARN-Stock", "YARN-PT", "YARN-H"):
        variant = result.variant(name)
        rows.append([
            name,
            f"{variant.average_job_seconds:.0f}",
            variant.jobs_completed,
            variant.tasks_killed,
            f"{100 * variant.average_cpu_utilization:.0f}%",
        ])
    print()
    print(format_table(
        ["variant", "avg job time (s)", "jobs", "tasks killed", "cpu util"],
        rows,
        title="Figure 11: secondary tenants' run times (scheduling testbed)",
    ))

    stock = result.variant("YARN-Stock")
    pt = result.variant("YARN-PT")
    h = result.variant("YARN-H")

    # All variants complete a meaningful number of jobs.
    for variant in (stock, pt, h):
        assert variant.jobs_completed > 5
    # YARN-Stock is fastest for the batch jobs (it steals the primary's CPU).
    assert stock.average_job_seconds <= pt.average_job_seconds
    # YARN-H stays competitive with YARN-PT at the scaled-down testbed load
    # (the clear separation the paper reports appears once task kills
    # dominate, which the Figure 13 sweep exercises at higher utilization;
    # see EXPERIMENTS.md, known deviations).
    assert h.average_job_seconds < pt.average_job_seconds * 1.15
    # Harvesting lifts cluster utilization above the primary-only level.
    assert h.average_cpu_utilization > 0.3

"""Figure 13: DC-9 job run-time improvements across the utilization spectrum.

The datacenter-scale simulation scales DC-9's utilization up and down (linear
and root scalings), runs the same workload under YARN-PT and YARN-H/Tez-H,
and compares average job execution times.  YARN-H improves job times across
most of the spectrum, the advantage is larger under linear scaling (which
preserves more temporal variation), and YARN-PT kills more tasks.
"""

from __future__ import annotations


from repro.harness.report import format_table
from repro.traces.scaling import ScalingMethod

from conftest import run_once


def test_fig13_dc9_runtime_vs_util(benchmark, dc9_sweep):
    sweep = run_once(benchmark, lambda: dc9_sweep)

    rows = []
    for point in sorted(
        sweep.points, key=lambda p: (p.scaling.value, p.target_utilization)
    ):
        rows.append([
            point.scaling.value,
            f"{point.target_utilization:.2f}",
            f"{point.yarn_pt_seconds:.0f}",
            f"{point.yarn_h_seconds:.0f}",
            f"{100 * point.improvement:.0f}%",
            point.yarn_pt_tasks_killed,
            point.yarn_h_tasks_killed,
        ])
    print()
    print(format_table(
        ["scaling", "target util", "YARN-PT (s)", "YARN-H (s)", "improvement",
         "kills PT", "kills H"],
        rows,
        title="Figure 13: DC-9 average job execution time vs utilization",
    ))

    linear = sweep.points_for(ScalingMethod.LINEAR)
    root = sweep.points_for(ScalingMethod.ROOT)
    assert linear and root

    # YARN-H improves (or at worst matches) YARN-PT on average over the sweep.
    assert sweep.average_improvement(ScalingMethod.LINEAR) >= 0.0
    assert sweep.max_improvement(ScalingMethod.LINEAR) > 0.05

    # At the higher-utilization end of the sweep, where kills dominate, the
    # improvement is substantial and YARN-H kills fewer tasks than YARN-PT.
    busiest = max(linear, key=lambda p: p.target_utilization)
    assert busiest.improvement > 0.1
    assert busiest.yarn_h_tasks_killed < busiest.yarn_pt_tasks_killed

    # Queueing grows with utilization for both systems.
    assert busiest.yarn_pt_seconds > min(p.yarn_pt_seconds for p in linear)

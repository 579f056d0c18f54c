"""Figure 10: primary tenant tail latency under the YARN variants.

YARN-Stock hurts the primary tenant's p99 latency significantly because it
disregards the primary; YARN-PT and YARN-H/Tez-H keep the tail latency close
to the no-harvesting baseline (within tens of milliseconds in the paper).
"""

from __future__ import annotations

from repro.harness.report import format_table


def test_fig10_primary_latency_yarn(scheduling_testbed):
    result = scheduling_testbed

    rows = [["No-Harvesting", f"{result.no_harvesting_p99_ms:.0f}", "-"]]
    for name in ("YARN-Stock", "YARN-PT", "YARN-H"):
        variant = result.variant(name)
        rows.append(
            [name, f"{variant.average_p99_ms:.0f}", f"{variant.max_p99_ms:.0f}"]
        )
    print()
    print(format_table(
        ["configuration", "avg p99 (ms)", "max p99 (ms)"],
        rows,
        title="Figure 10: primary tenant p99 latency (scheduling testbed)",
    ))

    baseline = result.no_harvesting_p99_ms
    stock = result.variant("YARN-Stock")
    pt = result.variant("YARN-PT")
    h = result.variant("YARN-H")

    # YARN-Stock degrades the tail latency well beyond the baseline.
    assert stock.average_p99_ms > baseline + 30.0
    # YARN-PT and YARN-H stay close to the no-harvesting baseline.
    assert abs(pt.average_p99_ms - baseline) < 50.0
    assert abs(h.average_p99_ms - baseline) < 50.0
    # And both primary-aware variants beat YARN-Stock by a wide margin.
    assert stock.average_p99_ms > pt.average_p99_ms
    assert stock.average_p99_ms > h.average_p99_ms

"""Section 6.2 microbenchmarks: clustering, class selection, placement cost.

The paper reports that clustering DC-9's tenants takes about two minutes
single-threaded (once per day, off the critical path), that class selection
takes under a millisecond per job, and that history-based placement costs
2.55 ms per new block versus 0.81 ms for stock placement.  The absolute
numbers here differ (different hardware, different language, smaller fleet),
but the orderings — selection far cheaper than clustering, history placement
more expensive than stock but still milliseconds — must hold.
"""

from __future__ import annotations

from repro.experiments.microbench import run_microbenchmarks
from repro.harness.config import QUICK_SCALE
from repro.harness.report import format_table

from conftest import run_once


def test_tab01_microbenchmarks(benchmark):
    result = run_once(
        benchmark,
        run_microbenchmarks,
        "DC-9",
        QUICK_SCALE,
        0,
        200,
        200,
    )

    print()
    print(format_table(
        ["operation", "measured", "paper"],
        [
            ["clustering (per run)", f"{result.clustering_seconds:.3f} s", "~120 s"],
            ["utilization classes", result.num_classes, "23"],
            [
                "class selection (per job)",
                f"{result.class_selection_ms:.3f} ms",
                "<1 ms",
            ],
            [
                "history placement (per block)",
                f"{result.placement_ms:.3f} ms",
                "2.55 ms",
            ],
            [
                "stock placement (per block)",
                f"{result.stock_placement_ms:.3f} ms",
                "0.81 ms",
            ],
        ],
        title="Section 6.2 microbenchmarks",
    ))

    # Class selection is orders of magnitude cheaper than a clustering run.
    assert result.class_selection_ms / 1000.0 < result.clustering_seconds
    # Selection stays in the sub-10ms regime even in Python.
    assert result.class_selection_ms < 10.0
    # Both placement policies are millisecond-scale per block.
    assert result.placement_ms < 50.0
    assert result.stock_placement_ms < 50.0
    # The clustering produces a sensible number of classes.
    assert 3 <= result.num_classes <= 23

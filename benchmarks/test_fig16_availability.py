"""Figure 16: failed accesses across the utilization spectrum.

With linear utilization scaling, HDFS-H shows no data unavailability up to
roughly 40-50% average utilization and low unavailability beyond, whereas
HDFS-Stock starts failing accesses earlier and harder; unavailability grows
quickly for everyone as utilization approaches the access threshold (about
two thirds).  HDFS-H at three-way replication is competitive with HDFS-Stock
at four-way replication for most utilization levels.
"""

from __future__ import annotations

from repro.harness.report import format_table

from conftest import run_figure

#: The registered scenario's utilization levels (R=3 and R=4 at each).
UTILIZATION_LEVELS = (0.3, 0.4, 0.5, 0.66, 0.75)


def test_fig16_availability():
    result = run_figure("fig16-availability")

    rows = []
    for util in UTILIZATION_LEVELS:
        rows.append([
            f"{util:.2f}",
            f"{100 * result.failed_fraction('HDFS-Stock', 3, util):.2f}%",
            f"{100 * result.failed_fraction('HDFS-H', 3, util):.2f}%",
            f"{100 * result.failed_fraction('HDFS-Stock', 4, util):.2f}%",
            f"{100 * result.failed_fraction('HDFS-H', 4, util):.2f}%",
        ])
    print()
    print(format_table(
        ["avg util", "Stock R3", "HDFS-H R3", "Stock R4", "HDFS-H R4"],
        rows,
        title="Figure 16: failed accesses vs utilization (linear scaling)",
    ))

    # No unavailability for HDFS-H at low-to-moderate utilization.
    assert result.failed_fraction("HDFS-H", 3, 0.3) == 0.0
    assert result.failed_fraction("HDFS-H", 3, 0.4) == 0.0
    # HDFS-H never does worse than HDFS-Stock at the same replication level.
    for util in UTILIZATION_LEVELS:
        assert (
            result.failed_fraction("HDFS-H", 3, util)
            <= result.failed_fraction("HDFS-Stock", 3, util) + 0.005
        )
        assert (
            result.failed_fraction("HDFS-H", 4, util)
            <= result.failed_fraction("HDFS-Stock", 4, util) + 0.005
        )
    # Unavailability grows with utilization for the stock placement.
    assert (
        result.failed_fraction("HDFS-Stock", 3, 0.75)
        >= result.failed_fraction("HDFS-Stock", 3, 0.4)
    )
    # Four-way replication helps the stock placement but HDFS-H at R=3 stays
    # competitive with it over the low-to-moderate part of the spectrum.
    assert (
        result.failed_fraction("HDFS-H", 3, 0.5)
        <= result.failed_fraction("HDFS-Stock", 4, 0.5) + 0.005
    )

"""Figure 15: lost blocks under three- and four-way replication.

The paper's year-long durability simulation shows that HDFS-H reduces data
loss by more than two orders of magnitude at three-way replication compared
with HDFS-Stock, and eliminates loss entirely at four-way replication; the
HDFS-H losses at R=3 are lower than HDFS-Stock's at R=4 for almost all
datacenters.
"""

from __future__ import annotations

from repro.harness.report import format_float, format_table

from conftest import run_figure


def test_fig15_durability():
    result = run_figure("fig15-durability")

    rows = []
    for replication in (3, 4):
        for variant in ("HDFS-Stock", "HDFS-H"):
            r = result.result(variant, replication)
            rows.append([
                variant,
                replication,
                r.blocks_created,
                r.blocks_lost,
                f"{100 * r.lost_fraction:.4f}%",
            ])
    print()
    print(format_table(
        ["system", "replication", "blocks created", "blocks lost", "lost fraction"],
        rows,
        title="Figure 15: lost blocks (DC-9, simulated reimage history)",
    ))
    print(f"Loss reduction factor at R=3: {format_float(result.loss_reduction_factor(3))}")

    stock3 = result.result("HDFS-Stock", 3)
    history3 = result.result("HDFS-H", 3)
    stock4 = result.result("HDFS-Stock", 4)
    history4 = result.result("HDFS-H", 4)

    # The reimage history must actually contain loss-threatening events.
    assert stock3.reimage_events > 0
    # HDFS-Stock loses blocks at three-way replication; HDFS-H loses far
    # fewer (usually none) at the same replication level.
    assert stock3.blocks_lost > 0
    assert history3.blocks_lost < stock3.blocks_lost
    # Four-way replication with history-based placement loses nothing.
    assert history4.blocks_lost == 0
    # HDFS-H's residual losses at R=3 stay tiny (the paper caps at 81 blocks
    # out of 4M; here the population is 4k blocks).  The paper notes that
    # HDFS-H at R=3 beats HDFS-Stock at R=4 for all but one datacenter, so a
    # small overlap between those two configurations is within expectations.
    assert history3.lost_fraction < 0.002
    assert history3.blocks_lost <= stock4.blocks_lost + 3

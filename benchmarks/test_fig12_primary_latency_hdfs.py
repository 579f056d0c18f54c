"""Figure 12: primary tenant tail latency under the HDFS variants.

HDFS-Stock degrades the primary tenant's p99 latency significantly because
its DataNodes serve batch I/O regardless of primary load; HDFS-PT and HDFS-H
avoid accessing busy servers and keep the degradation to tens of
milliseconds.  HDFS-H additionally eliminates the failed accesses that
HDFS-PT's placement occasionally suffers.
"""

from __future__ import annotations

from repro.harness.report import format_table


def test_fig12_primary_latency_hdfs(storage_testbed):
    result = storage_testbed

    rows = [["No-Harvesting", f"{result.no_harvesting_p99_ms:.0f}", "-", "-"]]
    for name in ("HDFS-Stock", "HDFS-PT", "HDFS-H"):
        variant = result.variant(name)
        rows.append([
            name,
            f"{variant.average_p99_ms:.0f}",
            f"{variant.max_p99_ms:.0f}",
            variant.failed_accesses,
        ])
    print()
    print(format_table(
        ["configuration", "avg p99 (ms)", "max p99 (ms)", "failed accesses"],
        rows,
        title="Figure 12: primary tenant p99 latency (storage testbed)",
    ))

    baseline = result.no_harvesting_p99_ms
    stock = result.variant("HDFS-Stock")
    pt = result.variant("HDFS-PT")
    h = result.variant("HDFS-H")

    # HDFS-Stock degrades tail latency; PT and H keep it near the baseline.
    assert stock.average_p99_ms > pt.average_p99_ms
    assert stock.average_p99_ms > h.average_p99_ms
    assert abs(pt.average_p99_ms - baseline) < 60.0
    assert abs(h.average_p99_ms - baseline) < 60.0
    # History-based placement never has more failed accesses than PT.
    assert h.failed_accesses <= pt.failed_accesses
    # The workload actually exercised the data path.
    assert h.served_accesses > 1000

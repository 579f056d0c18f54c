"""Figure 7: maximum concurrent-container estimate from the job DAG.

Algorithm 1 estimates a job's maximum concurrent resource demand with a
breadth-first traversal of its DAG; for TPC-DS query 19 the paper's example
estimate is 469 concurrent containers.
"""

from __future__ import annotations

from repro.harness.report import format_table
from repro.jobs.tpcds import TpcdsWorkloadFactory, tpcds_query_dag
from repro.simulation.random import RandomSource


def estimate_all():
    factory = TpcdsWorkloadFactory(RandomSource(7))
    return {dag.name: dag.max_concurrent_containers() for dag in factory.all_queries()}


def test_fig07_dag_concurrency():
    estimates = estimate_all()

    q19 = tpcds_query_dag(19)
    print()
    print(format_table(
        ["vertex", "tasks"],
        [[name, vertex.num_tasks] for name, vertex in q19.vertices.items()],
        title="Figure 7: TPC-DS query 19 DAG",
    ))
    print(f"\nEstimated maximum concurrent containers for q19: "
          f"{estimates['tpcds-q19']}")

    # The published example: 469 concurrent containers for query 19.
    assert estimates["tpcds-q19"] == 469
    # The workload spans narrow and wide queries.
    assert min(estimates.values()) < 50
    assert max(estimates.values()) >= 469
    assert len(estimates) == 52

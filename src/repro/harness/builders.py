"""Shared fleet/tenant/NameNode construction used by every scenario runner.

Before the harness existed, each experiment driver re-implemented these
steps: look up the datacenter preset, build the synthetic fleet, trim it to
the experiment's tenant/server budget, scale the traces to a target fleet
utilization, derive grid-clustering inputs, and assemble the NameNode for a
storage variant.  They live here once, with the exact semantics (including
random-stream fork order) the drivers pinned down.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.grid import TenantPlacementStats
from repro.harness.config import ExperimentScale
from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode
from repro.storage.namenode import NameNode
from repro.storage.placement_policies import (
    HistoryPlacementPolicy,
    StockPlacementPolicy,
)
from repro.traces.datacenter import Datacenter, PrimaryTenant, Server
from repro.traces.fleet import DatacenterSpec, build_datacenter, fleet_specs
from repro.traces.matrix import TraceMatrix
from repro.traces.scaling import ScalingMethod, fleet_scaling_factor, scale_into
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def find_datacenter_spec(name: str) -> DatacenterSpec:
    """The fleet preset for ``name``; raises ``ValueError`` when unknown."""
    for spec in fleet_specs():
        if spec.name == name:
            return spec
    raise ValueError(f"unknown datacenter {name}")


def copy_tenant(
    tenant: PrimaryTenant,
    servers: Optional[Sequence[Server]] = None,
    trace=None,
    keep_trace: bool = True,
) -> PrimaryTenant:
    """A shallow tenant copy, optionally with replaced servers or trace."""
    return PrimaryTenant(
        tenant_id=tenant.tenant_id,
        environment=tenant.environment,
        machine_function=tenant.machine_function,
        servers=list(tenant.servers if servers is None else servers),
        trace=(tenant.trace if keep_trace else None) if trace is None else trace,
        reimage_profile=tenant.reimage_profile,
        pattern=tenant.pattern,
    )


def trimmed_tenants(
    datacenter: Datacenter,
    max_tenants: Optional[int],
    servers_per_tenant_limit: Optional[int],
) -> List[PrimaryTenant]:
    """The datacenter's tenants, sorted by id and cut to the scenario budget."""
    tenants = sorted(datacenter.tenants.values(), key=lambda t: t.tenant_id)
    if max_tenants is not None:
        tenants = tenants[:max_tenants]
    trimmed: List[PrimaryTenant] = []
    for tenant in tenants:
        servers = tenant.servers
        if servers_per_tenant_limit is not None:
            servers = servers[:servers_per_tenant_limit]
        trimmed.append(copy_tenant(tenant, servers=servers))
    return trimmed


def fleet_factor(
    tenants: Sequence[PrimaryTenant],
    target_utilization: float,
    scaling: ScalingMethod,
) -> Optional[float]:
    """The common factor :func:`scaled_tenants` applies; ``None`` untraced.

    The factor is chosen so the server-weighted fleet mean of the traced
    tenants reaches the target, preserving the cross-tenant diversity the
    history-based policies exploit.
    """
    traced = [t for t in tenants if t.trace is not None]
    if not traced:
        return None
    return fleet_scaling_factor(
        [t.trace for t in traced],
        target_utilization,
        scaling,
        weights=[float(max(1, t.num_servers)) for t in traced],
    )


def scaled_tenants(
    tenants: Sequence[PrimaryTenant],
    target_utilization: float,
    scaling: ScalingMethod,
    factor: Optional[float] = None,
) -> Tuple[List[PrimaryTenant], Optional[TraceMatrix]]:
    """Copies of the traced tenants scaled by one common factor, and their matrix.

    Each trace is scaled straight into its row of one
    :class:`~repro.traces.matrix.TraceMatrix`, and the scaled traces are
    views of those rows, so the set holds its samples once.  ``factor`` is
    :func:`fleet_factor`'s result for the same arguments, when the caller
    already has it (its search is a bisection over every trace).  No traced
    tenant gives ``([], None)``.
    """
    if factor is None:
        factor = fleet_factor(tenants, target_utilization, scaling)
    traced = [t for t in tenants if t.trace is not None]
    if not traced:
        return [], None
    matrix = TraceMatrix(
        traced,
        transform=lambda values, out: scale_into(values, factor, scaling, out),
    )
    scaled = [
        copy_tenant(
            t,
            trace=UtilizationTrace.adopt(
                matrix.row(row), t.trace.pattern, t.trace.spec
            ),
        )
        for row, t in enumerate(traced)
    ]
    return scaled, matrix


def placement_stats(tenants: Sequence[PrimaryTenant]) -> List[TenantPlacementStats]:
    """Grid-clustering inputs derived from the tenants' histories."""
    return [
        TenantPlacementStats(
            tenant_id=t.tenant_id,
            environment=t.environment,
            reimage_rate=t.reimage_profile.rate_per_server_month,
            peak_utilization=t.peak_utilization(),
            available_space_gb=t.harvestable_disk_gb,
            server_ids=[s.server_id for s in t.servers],
            racks_by_server={s.server_id: s.rack for s in t.servers},
        )
        for t in tenants
    ]


def build_namenode(
    variant: str,
    tenants: Sequence[PrimaryTenant],
    replication: int,
    rng: RandomSource,
    primary_aware: Optional[bool] = None,
    trace_matrix: Optional[TraceMatrix] = None,
) -> NameNode:
    """Assemble the NameNode + DataNodes for one HDFS variant.

    ``primary_aware`` defaults to the paper's variant semantics (everything
    except ``HDFS-Stock`` is aware); the availability experiment overrides it
    to ``True`` because Figure 16 measures placement diversity, not DataNode
    throttling.
    """
    if primary_aware is None:
        primary_aware = variant != "HDFS-Stock"
    datanodes = [
        DataNode(server=s, tenant=t, primary_aware=primary_aware)
        for t in tenants
        for s in t.servers
    ]
    if variant == "HDFS-H":
        policy = HistoryPlacementPolicy(rng=rng.fork("policy"))
        policy.update_clustering(placement_stats(tenants))
    else:
        policy = StockPlacementPolicy(rng=rng.fork("policy"))
    return NameNode(
        datanodes,
        policy,
        primary_aware=primary_aware,
        default_replication=replication,
        rng=rng.fork("namenode"),
        trace_matrix=trace_matrix,
    )


def build_testbed_tenants(
    scale: ExperimentScale, rng: RandomSource
) -> List[PrimaryTenant]:
    """Scale DC-9 down to the testbed: N tenants sharing ``num_servers`` servers.

    The paper reproduces 21 DC-9 primary tenants (13 periodic, 3 constant,
    5 unpredictable) on 102 servers.  We sample tenants from the synthetic
    DC-9 with the same pattern mix and re-assign them the testbed's servers.
    """
    dc9_spec = find_datacenter_spec("DC-9")
    datacenter = build_datacenter(dc9_spec, rng.fork("testbed-dc9"), scale=0.3)

    desired_mix = {
        UtilizationPattern.PERIODIC: 13,
        UtilizationPattern.CONSTANT: 3,
        UtilizationPattern.UNPREDICTABLE: 5,
    }
    total_desired = sum(desired_mix.values())
    scale_factor = scale.num_tenants / total_desired
    desired = {
        pattern: max(1, int(round(count * scale_factor)))
        for pattern, count in desired_mix.items()
    }

    by_pattern = datacenter.tenants_by_pattern()
    selected: List[PrimaryTenant] = []
    for pattern, count in desired.items():
        pool = sorted(by_pattern.get(pattern, []), key=lambda t: t.tenant_id)
        selected.extend(pool[:count])

    if not selected:
        raise RuntimeError("failed to sample testbed tenants from DC-9")

    # Re-home the tenants onto exactly num_servers testbed servers (12 cores
    # and 32 GB each as in the paper), dealing the servers out round-robin so
    # every testbed server is used and tenant sizes stay balanced.
    testbed_tenants: List[PrimaryTenant] = [
        copy_tenant(tenant, servers=()) for tenant in selected
    ]
    for server_index in range(scale.num_servers):
        owner = testbed_tenants[server_index % len(testbed_tenants)]
        owner.servers.append(
            Server(
                server_id=f"testbed-srv-{server_index}",
                tenant_id=owner.tenant_id,
                rack=f"rack-{server_index % 8}",
                cores=12,
                memory_gb=32.0,
            )
        )
    return [tenant for tenant in testbed_tenants if tenant.servers]

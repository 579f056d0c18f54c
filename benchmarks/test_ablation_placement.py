"""Ablation: Algorithm 2's diversity constraints versus naive placements.

DESIGN.md calls out the row/column and environment constraints as the design
choices to ablate.  This benchmark places the same block population three
ways — full Algorithm 2, Algorithm 2 with soft (relaxable) constraints, and
a greedy best-first policy that always picks the least-reimaged, least-busy
tenants — and replays the same environment-burst reimage schedule over each,
comparing blocks lost and the spread of replicas across tenants.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.grid import TenantPlacementStats, build_grid
from repro.core.placement import PlacementConstraints, ReplicaPlacer
from repro.harness.report import format_table
from repro.simulation.random import RandomSource
from repro.traces import build_datacenter, fleet_specs
from repro.traces.reimage import ReimageProfile, generate_reimage_events

NUM_BLOCKS = 1500
MONTHS = 12


def build_inputs():
    rng = RandomSource(3)
    spec = [s for s in fleet_specs() if s.name == "DC-9"][0]
    datacenter = build_datacenter(spec, rng, scale=0.1)
    tenants = sorted(datacenter.tenants.values(), key=lambda t: t.tenant_id)[:40]
    stats = [
        TenantPlacementStats(
            tenant_id=t.tenant_id,
            environment=t.environment,
            reimage_rate=t.reimage_profile.rate_per_server_month,
            peak_utilization=t.peak_utilization(),
            available_space_gb=t.harvestable_disk_gb,
            server_ids=[s.server_id for s in t.servers[:4]],
            racks_by_server={s.server_id: s.rack for s in t.servers[:4]},
        )
        for t in tenants
    ]
    # Environment-wide reimage bursts, the loss scenario Algorithm 2 defends
    # against; every policy sees the same schedule.
    environments: Dict[str, List[str]] = {}
    for s in stats:
        environments.setdefault(s.environment, []).extend(s.server_ids)
    burst_profile = ReimageProfile(
        rate_per_server_month=0.0, burst_rate_per_month=0.25,
        burst_fraction=1.0, monthly_variation=0.0,
    )
    reimaged_groups = []
    for environment, servers in environments.items():
        events = generate_reimage_events(
            servers, burst_profile, MONTHS, RandomSource(17).fork(environment)
        )
        by_time: Dict[float, set] = {}
        for event in events:
            by_time.setdefault(event.time, set()).add(event.server_id)
        reimaged_groups.extend(by_time.values())
    return stats, reimaged_groups


def greedy_policy(stats, rng, num_blocks):
    """Best-first: always the least-reimaged tenants, ignoring diversity."""
    ordered = sorted(stats, key=lambda s: (s.reimage_rate, s.peak_utilization))
    placements = []
    for _ in range(num_blocks):
        chosen = []
        for tenant in ordered:
            for server in tenant.server_ids:
                chosen.append((tenant.tenant_id, tenant.environment, server))
                if len(chosen) == 3:
                    break
            if len(chosen) == 3:
                break
        placements.append(chosen)
    return placements


def algorithm2_policy(stats, rng, num_blocks, hard=True):
    grid = build_grid(stats)
    placer = ReplicaPlacer(
        grid, rng=rng, constraints=PlacementConstraints(hard=hard)
    )
    placements = []
    for _ in range(num_blocks):
        decision = placer.place_block(3)
        placements.append(
            [
                (t, grid.stats_by_tenant[t].environment, s)
                for t, s in zip(decision.tenant_ids, decision.server_ids)
            ]
        )
    return placements


def evaluate(placements, reimaged_groups):
    """Blocks lost when a correlated burst wipes every replica at once."""
    lost = 0
    for replicas in placements:
        servers = {server for _, _, server in replicas}
        if not servers:
            continue
        if any(servers <= group for group in reimaged_groups):
            lost += 1
    tenants_used = {t for replicas in placements for t, _, _ in replicas}
    return lost, len(tenants_used)


def run_ablation():
    stats, reimaged_groups = build_inputs()
    results = {}
    for name, factory in (
        (
            "Algorithm 2 (hard)",
            lambda: algorithm2_policy(stats, RandomSource(5), NUM_BLOCKS, True),
        ),
        (
            "Algorithm 2 (soft)",
            lambda: algorithm2_policy(stats, RandomSource(5), NUM_BLOCKS, False),
        ),
        (
            "Greedy best-first",
            lambda: greedy_policy(stats, RandomSource(5), NUM_BLOCKS),
        ),
    ):
        placements = factory()
        lost, spread = evaluate(placements, reimaged_groups)
        results[name] = (lost, spread)
    return results


def test_ablation_placement():
    results = run_ablation()

    print()
    print(format_table(
        ["policy", "blocks lost to correlated bursts", "distinct tenants used"],
        [[name, lost, spread] for name, (lost, spread) in results.items()],
        title="Ablation: placement diversity constraints",
    ))

    hard_lost, hard_spread = results["Algorithm 2 (hard)"]
    greedy_lost, greedy_spread = results["Greedy best-first"]
    # The greedy best-first policy concentrates replicas on the "good"
    # tenants, so a single environment burst can destroy whole blocks.
    assert hard_lost <= greedy_lost
    # Algorithm 2 spreads replicas across many more tenants.
    assert hard_spread > greedy_spread
    # Hard constraints never lose to soft constraints on durability.
    assert hard_lost <= results["Algorithm 2 (soft)"][0]

"""Tests for the NodeManager heartbeat and reserve enforcement.

The heartbeat is the fleet's batch :meth:`FleetState.refresh`; these drive
it on a one-server fleet.  The trace holds one sample per 120 s, so a
second sample models a primary-tenant spike.
"""

from __future__ import annotations

import pytest
from scalar_cluster import build_fleet, make_row

from repro.cluster.resource_manager import SchedulerMode
from repro.cluster.resources import Resource
from repro.cluster.server import ContainerState

SPIKE = 120.0  # time of the trace's second sample


def make_fleet(*utilization: float, mode=SchedulerMode.PRIMARY_AWARE):
    return build_fleet([make_row("s0", list(utilization))], mode=mode)


class TestPrimaryAwareHeartbeat:
    def test_heartbeat_reports_rounded_primary_plus_allocations(self):
        fleet = make_fleet(0.21)  # 2.52 cores -> rounds to 3
        fleet.launch(0, "task", "job", Resource(2.0, 4.0), 0.0)
        fleet.refresh(0.0)
        assert fleet.primary_utilization(0.0)[0] == pytest.approx(0.21)
        # Available = 12 - 3 (primary) - 4 (reserve) - 2 (allocated) = 3.
        assert fleet.available_cores[0] == pytest.approx(3.0)

    def test_heartbeat_kills_on_primary_spike(self):
        fleet = make_fleet(0.25, 0.6)
        container = fleet.launch(0, "task", "job", Resource(5.0, 8.0), 0.0)
        killed = fleet.refresh(SPIKE)
        assert container in killed
        assert container.state is ContainerState.KILLED

    def test_kill_callback_invoked(self):
        """Every kill is reported to the caller, in kill order."""
        fleet = make_fleet(0.25, 0.6)
        fleet.launch(0, "task", "job", Resource(5.0, 8.0), 0.0)
        killed = fleet.refresh(SPIKE)
        assert len(killed) == 1
        assert int(fleet.running_containers[0]) == 0
        assert fleet.allocated_cores[0] == 0.0

    def test_available_never_negative(self):
        fleet = make_fleet(0.95)
        fleet.refresh(0.0)
        assert fleet.available_cores[0] >= 0.0
        assert fleet.available_memory[0] >= 0.0


class TestStockHeartbeat:
    def test_stock_ignores_primary(self):
        fleet = make_fleet(0.5, mode=SchedulerMode.STOCK)
        fleet.launch(0, "task", "job", Resource(2.0, 4.0), 0.0)
        fleet.refresh(0.0)
        assert fleet.allocated_cores[0] == pytest.approx(2.0)
        assert fleet.available_cores[0] == pytest.approx(10.0)

    def test_stock_never_kills(self):
        fleet = make_fleet(0.25, 0.9, mode=SchedulerMode.STOCK)
        container = fleet.launch(0, "task", "job", Resource(8.0, 16.0), 0.0)
        assert fleet.refresh(SPIKE) == []
        assert container.state is ContainerState.RUNNING

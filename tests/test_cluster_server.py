"""Tests for one server's row: primary tracking and the container lifecycle.

A server is one :class:`~repro.cluster.fleet_state.FleetState` row; these
drive a one-server fleet.  The trace holds one sample per 120 s, so a
second sample models a primary-tenant spike.
"""

from __future__ import annotations

import pytest
from scalar_cluster import build_fleet, make_row

from repro.cluster.resources import Resource
from repro.cluster.server import ContainerState

SPIKE = 120.0  # time of the trace's second sample


def make_fleet(*utilization: float):
    return build_fleet([make_row("s0", list(utilization))])


class TestPrimaryTracking:
    def test_primary_usage_follows_trace(self):
        fleet = make_fleet(0.5, 0.25)
        assert fleet.primary_utilization(0.0)[0] * fleet.capacity_cores[0] == 6.0
        assert fleet.primary_utilization(SPIKE)[0] == 0.25


class TestContainers:
    def test_available_respects_primary_and_reserve(self):
        fleet = make_fleet(0.25)  # 3 cores
        fleet.refresh(0.0)
        # 12 - 3 (primary) - 4 (reserve) = 5 cores.
        assert fleet.available_cores[0] == pytest.approx(5.0)

    def test_launch_and_complete(self):
        fleet = make_fleet(0.25)
        fleet.refresh(0.0)
        assert fleet.fits_mask(2.0, 4.0)[0]
        container = fleet.launch(0, "task", "job", Resource(2.0, 4.0), 0.0)
        assert container.state is ContainerState.RUNNING
        assert container.server_id == "s0"
        assert fleet.allocated_cores[0] == pytest.approx(2.0)
        assert fleet.available_cores[0] == pytest.approx(3.0)
        fleet.complete(container, 10.0)
        assert container.state is ContainerState.COMPLETED
        assert fleet.allocated_cores[0] == 0.0
        assert fleet.available_cores[0] == pytest.approx(5.0)

    def test_cannot_host_more_than_available(self):
        fleet = make_fleet(0.25)
        fleet.refresh(0.0)
        assert not fleet.fits_mask(6.0, 4.0)[0]

    def test_double_finish_rejected(self):
        fleet = make_fleet(0.25)
        container = fleet.launch(0, "task", "job", Resource(1.0, 1.0), 0.0)
        fleet.complete(container, 5.0)
        with pytest.raises(ValueError):
            fleet.complete(container, 6.0)

    def test_total_utilization_combines_primary_and_secondary(self):
        fleet = make_fleet(0.25)
        fleet.launch(0, "task", "job", Resource(3.0, 4.0), 0.0)
        assert fleet.total_utilization(0.0)[0] == pytest.approx(0.5)


class TestReserveReclaim:
    def test_no_kills_when_reserve_intact(self):
        fleet = make_fleet(0.25)
        fleet.launch(0, "t1", "j", Resource(2.0, 2.0), 0.0)
        assert fleet.refresh(1.0) == []

    def test_kills_youngest_first_when_primary_spikes(self):
        fleet = make_fleet(0.25, 0.6)
        fleet.launch(0, "old", "j", Resource(3.0, 4.0), 0.0)
        young = fleet.launch(0, "young", "j", Resource(2.0, 2.0), 100.0)
        # Primary spikes to 60% (8 cores rounded up): 12 - 8 - 4 = 0 harvestable.
        killed = fleet.refresh(SPIKE)
        assert killed, "expected kills after the primary spike"
        assert killed[0].task_id == "young"
        assert young.state is ContainerState.KILLED

    def test_kills_stop_once_reserve_restored(self):
        fleet = make_fleet(0.25, 0.42)  # 5.04 -> 6 cores
        fleet.launch(0, "a", "j", Resource(2.0, 2.0), 0.0)
        fleet.launch(0, "b", "j", Resource(2.0, 2.0), 10.0)
        # Mild spike: only one container's worth of violation.
        killed = fleet.refresh(SPIKE)
        assert len(killed) == 1

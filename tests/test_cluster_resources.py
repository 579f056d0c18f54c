"""Tests for resource vectors and the primary-tenant reserve.

The reserve is a pair of FleetState columns (``capacity * fraction``); the
reserve tests drive a fleet of 12-core / 32 GB servers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_cluster import build_fleet, make_row

from repro.cluster.resources import Resource
from repro.jobs.scheduler_variants import ClusterConfig
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


class TestResource:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Resource(-1.0, 0.0)

    def test_arithmetic(self):
        a = Resource(4.0, 8.0)
        b = Resource(1.0, 2.0)
        assert a + b == Resource(5.0, 10.0)
        assert a - b == Resource(3.0, 6.0)
        assert b * 3 == Resource(3.0, 6.0)

    def test_subtraction_floors_at_zero(self):
        assert Resource(1.0, 1.0) - Resource(5.0, 5.0) == Resource(0.0, 0.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            Resource(1.0, 1.0) * -1.0

    def test_fits_within(self):
        assert Resource(2.0, 4.0).fits_within(Resource(2.0, 4.0))
        assert not Resource(2.1, 4.0).fits_within(Resource(2.0, 4.0))
        assert not Resource(2.0, 4.1).fits_within(Resource(2.0, 4.0))

    def test_rounded_up(self):
        assert Resource(2.3, 7.01).rounded_up() == Resource(3.0, 8.0)
        assert Resource(2.0, 7.0).rounded_up() == Resource(2.0, 7.0)

    def test_is_zero(self):
        assert Resource.zero().is_zero()
        assert not Resource(0.1, 0.0).is_zero()

    def test_dominant_share(self):
        capacity = Resource(10.0, 100.0)
        assert Resource(5.0, 10.0).dominant_share(capacity) == pytest.approx(0.5)
        assert Resource(1.0, 90.0).dominant_share(capacity) == pytest.approx(0.9)
        assert Resource(1.0, 1.0).dominant_share(Resource(0.0, 0.0)) == 0.0

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_add_then_subtract_recovers_original(self, c1, m1, c2, m2):
        a = Resource(c1, m1)
        b = Resource(c2, m2)
        recovered = (a + b) - b
        assert recovered.cores == pytest.approx(a.cores, abs=1e-9)
        assert recovered.memory_gb == pytest.approx(a.memory_gb, abs=1e-9)


class TestResourceReserve:
    def test_paper_default_reserve(self):
        config = ClusterConfig()
        fleet = build_fleet(
            [make_row("s0", 0.1)],
            cpu_fraction=config.reserve_cpu_fraction,
            memory_fraction=config.reserve_memory_fraction,
        )
        # The testbed reserves 4 of 12 cores and 31% (~10) of 32 GB.
        assert fleet.reserve_cores[0] == pytest.approx(4.0)
        assert fleet.reserve_memory[0] == pytest.approx(32.0 * 0.31)

    def test_from_fractions_matches_paper_testbed(self):
        tenant = PrimaryTenant(
            "t", "env", "mf",
            trace=UtilizationTrace([0.1], UtilizationPattern.CONSTANT),
        )
        shapes = [(12, 32.0), (16, 64.0), (24, 96.0), (7, 13.5)]
        rows = [
            (Server(f"s{i}", "t", cores=cores, memory_gb=memory), tenant)
            for i, (cores, memory) in enumerate(shapes)
        ]
        fleet = build_fleet(rows, cpu_fraction=1.0 / 3.0, memory_fraction=0.31)
        # Bit for bit the scalar per-server arithmetic.
        assert fleet.reserve_cores.tolist() == [
            float(cores) * (1.0 / 3.0) for cores, _ in shapes
        ]
        assert fleet.reserve_memory.tolist() == [
            memory * 0.31 for _, memory in shapes
        ]

    def test_from_fractions_validation(self):
        with pytest.raises(ValueError, match="cpu_fraction"):
            build_fleet([make_row("s0", 0.1)], cpu_fraction=1.0)
        with pytest.raises(ValueError, match="memory_fraction"):
            build_fleet([make_row("s0", 0.1)], memory_fraction=-0.1)

    def test_harvestable_subtracts_primary_and_reserve(self):
        # 20% primary: 2.4 cores and 3.2 GB, rounded up to 3 cores and 4 GB.
        fleet = build_fleet(
            [make_row("s0", 0.2)], cpu_fraction=4.0 / 12.0, memory_fraction=10.0 / 32.0
        )
        fleet.refresh(0.0)
        assert fleet.available_cores[0] == pytest.approx(12 - 3 - 4)
        assert fleet.available_memory[0] == pytest.approx(32 - 4 - 10)

    def test_violation_zero_when_within_budget(self):
        # 15% primary rounds up to 2 cores: 12 - 2 - 4 = 6 harvestable.
        fleet = build_fleet(
            [make_row("s0", 0.15)], cpu_fraction=4.0 / 12.0, memory_fraction=10.0 / 32.0
        )
        fleet.launch(0, "t", "j", Resource(5.0, 10.0), 0.0)
        assert fleet.refresh(0.0) == []

    def test_violation_positive_when_primary_spikes(self):
        # Primary now needs 6 cores: only 2 harvestable, but 5 are allocated.
        fleet = build_fleet(
            [make_row("s0", 0.5)], cpu_fraction=4.0 / 12.0, memory_fraction=10.0 / 32.0
        )
        for i in range(5):
            fleet.launch(0, f"t{i}", "j", Resource(1.0, 2.0), float(i))
        killed = fleet.refresh(0.0)
        assert len(killed) == 3
        assert fleet.allocated_cores[0] == 2.0

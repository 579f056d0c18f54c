"""Tests for the reporting helpers and the package's public API surface."""

from __future__ import annotations


import repro
from repro.harness.report import format_float, format_percentages, format_table


class TestFormatTable:
    def test_columns_aligned_and_rows_present(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 22]],
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # All data rows align to the same column start for the second field.
        assert lines[3].index("1") == lines[4].index("2")

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestFormatHelpers:
    def test_format_percentages(self):
        text = format_percentages({"periodic": 0.4, "constant": 0.45})
        assert "40.0%" in text
        assert "45.0%" in text

    def test_format_float_handles_infinity(self):
        assert format_float(float("inf")) == "inf"
        assert format_float(1.23456, digits=3) == "1.235"


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_core_entry_points_importable(self):
        assert callable(repro.build_fleet)
        assert callable(repro.build_grid)
        service = repro.ClusteringService()
        assert service.num_classes == 0
        selector = repro.ClassSelector()
        assert selector is not None

    def test_quickstart_flow(self):
        """The README quickstart must keep working."""
        fleet = repro.build_fleet(scale=0.02)
        assert "DC-9" in fleet
        service = repro.ClusteringService()
        classes = service.update(fleet["DC-9"].tenants.values())
        assert classes

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

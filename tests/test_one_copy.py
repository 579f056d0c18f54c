"""One copy of every trace per process.

A scaled set lives in its :class:`TraceMatrix` (its traces are row views),
a matrix over a context's unscaled traces takes their storage over, the
derived slot lets go of its product before it builds the next, and a sweep
cell's two clusters read one matrix.  The lifetime checks run with the
cyclic collector off, so what they see freed is freed by reference counting.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.harness.runners as runners_module
from repro.harness.builders import copy_tenant, scaled_tenants
from repro.harness.runners import RUNNERS
from repro.simulation.random import RandomSource
from repro.traces.matrix import TraceMatrix
from repro.traces.scaling import scale_trace
from test_snapshot import DERIVING_CASES, FIG16_OVERRIDES, tiny_spec

#: The kinds whose cells build a matrix over the context's own traces.
TAKE_OVER_CASES = [
    case for case in DERIVING_CASES if case[0] in ("fig15-durability", "failure-storm")
]


def tiny_runner(name: str, **overrides):
    spec = tiny_spec(name, **overrides)
    return RUNNERS[spec.kind](spec, RandomSource(7))


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestScaledSets:
    def test_a_scaled_set_lives_in_its_matrix(self):
        runner = tiny_runner("fig16-availability", **FIG16_OVERRIDES)
        ctx = runner.ctx
        base = [t for t in ctx["trimmed"] if t.trace is not None]
        for target, factor in ctx["factors"].items():
            tenants, matrix = scaled_tenants(
                ctx["trimmed"], target, ctx["scaling"], factor
            )
            assert [t.tenant_id for t in tenants] == matrix.tenant_ids
            for scaled, original in zip(tenants, base):
                assert np.shares_memory(scaled.trace.values, matrix.values)
                expected = scale_trace(original.trace, factor, ctx["scaling"])
                assert scaled.trace.values.tobytes() == expected.values.tobytes()
                assert scaled.trace.pattern is original.trace.pattern
                with pytest.raises(ValueError, match="read-only"):
                    scaled.trace.values[0] = 0.0

    def test_no_traced_tenant_gives_no_matrix(self):
        runner = tiny_runner("fig16-availability", **FIG16_OVERRIDES)
        ctx = runner.ctx
        untraced = [copy_tenant(t, keep_trace=False) for t in ctx["trimmed"]]
        assert scaled_tenants(untraced, 0.5, ctx["scaling"], 1.0) == ([], None)

    def test_fig16_cell_traces_are_rows_of_the_cell_matrix(self):
        runner = tiny_runner("fig16-availability", **FIG16_OVERRIDES)
        cell = runner.cells()[0]
        runner.run_cell(cell)
        tenants, _, matrix = runner.derived(
            cell.coord("target_utilization"), lambda: None
        )
        assert tenants
        assert all(np.shares_memory(t.trace.values, matrix.values) for t in tenants)

    def test_derived_lets_go_of_the_previous_product_before_building(
        self, no_cyclic_gc
    ):
        runner = tiny_runner("fig16-availability", **FIG16_OVERRIDES)
        cells = runner.cells()
        first = cells[0].coord("target_utilization")
        later = next(c for c in cells if c.coord("target_utilization") != first)
        runner.run_cell(cells[0])
        matrix = runner.derived(first, lambda: None)[2]
        previous = weakref.ref(matrix)
        del matrix

        seen = []
        scaled_point = runner._scaled_point

        def probing(target):
            seen.append(previous())
            return scaled_point(target)

        runner._scaled_point = probing
        runner.run_cell(later)
        assert seen == [None]


class TestTakeOver:
    @pytest.mark.parametrize(
        "name,overrides", TAKE_OVER_CASES, ids=[c[0] for c in TAKE_OVER_CASES]
    )
    def test_context_traces_become_rows_of_the_derived_matrix(self, name, overrides):
        runner = tiny_runner(name, **overrides)
        before = [t.trace.values.tobytes() for t in runner.ctx["tenants"]]
        runner.run_cell(runner.cells()[0])
        matrix = runner.derived("matrix", lambda: None)
        assert isinstance(matrix, TraceMatrix)
        tenants = runner.ctx["tenants"]
        assert [t.trace.values.tobytes() for t in tenants] == before
        for row, tenant in enumerate(tenants):
            assert np.shares_memory(tenant.trace.values, matrix.values)
            assert matrix.row_of_tenant(tenant.tenant_id) == row


class TestSweepCell:
    def test_both_clusters_read_one_matrix_and_pt_is_freed_first(
        self, monkeypatch, no_cyclic_gc
    ):
        runner = tiny_runner("fig13-dc9-sweep", utilization_levels=(0.5,))
        clusters = []
        alive_at_build = []
        matrices = []

        class Recording(runners_module.HarvestingCluster):
            def __init__(self, tenants, **kwargs):
                alive_at_build.append([ref() is not None for ref in clusters])
                super().__init__(tenants, **kwargs)
                clusters.append(weakref.ref(self))
                matrix = self.fleet._traces
                matrices.append(matrix)
                assert all(
                    np.shares_memory(t.trace.values, matrix.values) for t in tenants
                )

        monkeypatch.setattr(runners_module, "HarvestingCluster", Recording)
        runner.run_cell(runner.cells()[0])
        assert len(matrices) == 2 and matrices[0] is matrices[1]
        # YARN-H's cluster is built after YARN-PT's was freed.
        assert alive_at_build == [[], [False]]

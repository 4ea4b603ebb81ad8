"""The cost-ordered evaluation block of the figure6 report.

``run_cost_block`` prices the DL5xx planner end to end on one corpus
entry: source-order engine vs cost-ordered engine vs cost-ordered
kernels, and the closure certificate.  The tests pin the block's shape, its parity discipline
(``certified`` requires bit-identical results on every surface plus a
clean certificate), and the text rendering.
"""

import pytest

from repro.bench.costbench import (
    DEFAULT_BENCHMARK,
    format_cost,
    run_cost_block,
)


@pytest.fixture(scope="module")
def block():
    return run_cost_block(scale=1)


class TestRunCostBlock:
    def test_certified_at_tiny_scale(self, block):
        assert block["certified"] is True
        assert block["benchmark"] == DEFAULT_BENCHMARK
        assert block["scale"] == 1

    def test_every_surface_has_parity(self, block):
        assert block["cost_ordered"]["parity"] is True
        assert block["cost_ordered_kernel"]["parity"] is True

    def test_plan_summary_shape(self, block):
        plan = block["plan"]
        assert plan["rules"] > 0
        assert 0 <= plan["reordered"] <= plan["rules"]
        assert plan["digest"].startswith("sha256:")
        assert all(
            code.startswith("DL5") for code in plan["diagnostics"]
        )

    def test_kernel_split_reconciles(self, block):
        kernel = block["cost_ordered_kernel"]
        assert kernel["seconds"] == pytest.approx(
            kernel["compile_seconds"] + kernel["solve_seconds"]
        )

    def test_closure_certificate_clean(self, block):
        closure = block["closure"]
        assert closure["certified"] is True
        assert closure["violations"] == 0
        assert closure["variants_missing"] == 0
        assert closure["obligations"] > 0


class TestFormatCost:
    def test_renders_every_section(self, block):
        text = format_cost(block)
        assert "cost-ordered evaluation" in text
        assert "source-order engine" in text
        assert "cost-ordered kernels" in text
        assert "closure:" in text
        assert "certificate: ok" in text

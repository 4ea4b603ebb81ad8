"""The cost-order acceptance sweep.

Cost-ordered evaluation must be bit-identical to left-to-right source
order on the full grid: both paper programs (Figure 1, Figure 5), both
abstractions (transformer-string and context-string), the eight paper
configurations, and every backend (interpreting engine, fused
kernels).  The plan is computed once per cell and its rewrite shared
by the backends, exactly as the CLI and the bench harness consume
it.
"""

import pytest

from repro.compile.emit import (
    compile_context_string_analysis,
    compile_transformer_analysis,
)
from repro.core.config import config_by_name
from repro.datalog.cost import analyze_cost
from repro.datalog.engine import Engine
from repro.datalog.kernel import KernelEngine
from repro.frontend.factgen import facts_from_source
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5

CONFIGURATIONS = (
    "1-call", "1-call+H", "2-call", "2-call+H",
    "1-object", "2-object+H", "1-type", "2-type+H",
)

COMPILERS = {
    "transformer-string": compile_transformer_analysis,
    "context-string": compile_context_string_analysis,
}

_FACTS = {}


def _facts(name):
    if name not in _FACTS:
        _FACTS[name] = facts_from_source(
            FIGURE_1 if name == "figure1" else FIGURE_5
        )
    return _FACTS[name]


@pytest.mark.parametrize("abstraction", sorted(COMPILERS))
@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize("source", ("figure1", "figure5"))
def test_cost_order_is_bit_identical(source, configuration, abstraction):
    config = config_by_name(configuration)
    compiled = COMPILERS[abstraction](
        _facts(source), config.flavour, config.m, config.h
    )
    program, builtins = compiled.program, compiled.builtins

    baseline = Engine(program, builtins).run()
    ordered = analyze_cost(program, builtins=builtins).apply()

    assert Engine(ordered, builtins).run() == baseline
    assert KernelEngine(ordered, builtins).run() == baseline

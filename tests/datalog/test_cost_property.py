"""Property tests: cost-chosen join orders are invisible to results.

Random safe Datalog programs (recursion, constants, repeated
variables, comparison builtins, stratified negation) are planned by
the DL5xx cost analyzer and the reordered program is evaluated on the
interpreting engine and the fused kernels — every fixpoint must be
bit-identical to the source-order program.  A second property pins the safety claim DL503 makes: a reorder never
introduces a DL001–DL004 safety error, because every chosen order is
legal under the same binding discipline the safety pass checks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.cost import analyze_cost
from repro.datalog.engine import Engine
from repro.datalog.kernel import evaluate_kernel
from repro.datalog.stratify import StratificationError
from repro.lint.passes import lint_program

from tests.datalog.test_engine_fuzz import random_datalog

SAFETY_CODES = {"DL001", "DL002", "DL003", "DL004"}


def _planned(seed):
    """(program, plan) for a valid random program, else None."""
    program = random_datalog(seed)
    if not program.rules:
        return None
    try:
        program.validate()
        plan = analyze_cost(program)
    except (ValueError, StratificationError):
        return None
    return program, plan


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cost_plan_bit_identical_on_every_backend(seed):
    planned = _planned(seed)
    if planned is None:
        return
    program, plan = planned
    ordered = plan.apply()
    baseline = Engine(program).run()
    assert Engine(ordered).run() == baseline, seed
    assert evaluate_kernel(ordered) == baseline, seed


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_reorders_preserve_safety(seed):
    planned = _planned(seed)
    if planned is None:
        return
    program, plan = planned
    before = {
        d.code for d in lint_program(program).diagnostics
        if d.code in SAFETY_CODES
    }
    after = {
        d.code for d in lint_program(plan.apply()).diagnostics
        if d.code in SAFETY_CODES
    }
    # A legal permutation can only remove binding-order complaints
    # (e.g. a DL002 suggestion the reorder implements), never add one.
    assert after <= before, seed

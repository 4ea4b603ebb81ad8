"""Property tests: the kernel backend is invisible to the result.

Two layers of the same claim.  At the Datalog layer, random safe
programs (recursion, constants, repeated variables, comparison
builtins, stratified negation) evaluate bit-identically on the fused
columnar kernels and the interpreting engine.  At the analysis layer,
random Java-subset programs under randomly sampled context-sensitivity
configurations produce the same points-to relations from the kernel
backend, the generic engine, and the worklist solver — the executable
statement of the acceptance criterion "bit-identical across backends".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analyze
from repro.bench.fuzz import random_program
from repro.compile.emit import compile_transformer_analysis
from repro.core.config import config_by_name
from repro.datalog.engine import Engine
from repro.datalog.kernel import evaluate_kernel
from repro.frontend.factgen import generate_facts

from tests.datalog.test_engine_fuzz import random_datalog

_CONFIGS = (
    "insensitive", "1-call", "1-call+H", "2-call+H",
    "1-object", "2-object+H", "2-type+H",
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_kernel_matches_both_engines_on_random_datalog(seed):
    program = random_datalog(seed)
    if not program.rules:
        return
    try:
        program.validate()
    except ValueError:
        return
    interpreted = Engine(program).run()
    assert evaluate_kernel(program) == interpreted


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from(_CONFIGS),
)
def test_kernel_backend_matches_solver_on_random_programs(seed, name):
    facts = generate_facts(random_program(seed, size=3))
    config = config_by_name(name)
    compiled = compile_transformer_analysis(
        facts, config.flavour, config.m, config.h
    )
    solver = analyze(facts, config)
    kernel = compiled.run(backend="kernel")
    engine = compiled.run(backend="interpreted")
    for relation in ("pts", "hpts", "call", "reach", "spts", "texc"):
        assert getattr(kernel, relation) == getattr(solver, relation), (
            seed, name, relation,
        )
        assert getattr(kernel, relation) == getattr(engine, relation), (
            seed, name, relation,
        )

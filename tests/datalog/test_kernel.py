"""Tests for the columnar kernel backend (`repro.datalog.kernel`).

The acceptance criterion for the kernel compiler: the fused integer
kernels are bit-identical to the worklist solver across Figure 1 and
Figure 5, both abstractions, and the full (flavour, m, h) grid, on every
cell of the Figure 6 table (the seven DaCapo analogues at scale 1), and
to the interpreting engine on every program shape the repository uses —
classic recursion, negation, builtins, the pointer-analysis
instantiations, magic-set transforms and random fuzz programs — plus
engine-level behaviour (stats, reruns, strict lint).
"""

import pytest

from repro import analyze
from repro.bench.fuzz import random_program
from repro.bench.workloads import DACAPO_NAMES, dacapo_program
from repro.compile.emit import (
    compile_context_string_analysis,
    compile_transformer_analysis,
    compile_transformer_analysis_naive,
)
from repro.core.config import PAPER_CONFIGURATIONS, config_by_name
from repro.core.sensitivity import Flavour
from repro.datalog.ast import Literal, Program, Rule, Var, atom, negated
from repro.datalog.builtins import function_builtin
from repro.datalog.engine import Engine
from repro.datalog.kernel import KernelEngine, evaluate_kernel, intern_program
from repro.datalog.magic import magic_transform
from repro.datalog.parser import parse_datalog
from repro.frontend.factgen import facts_from_source, generate_facts
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5
from repro.store import Interner

_GRID = (
    "1-call", "1-call+H", "2-call", "2-call+H",
    "1-object", "2-object+H", "1-type", "2-type+H",
)


@pytest.mark.parametrize("source", [FIGURE_1, FIGURE_5], ids=["fig1", "fig5"])
@pytest.mark.parametrize("abstraction", ["ts", "cs"])
@pytest.mark.parametrize("name", _GRID)
def test_kernel_backend_matches_worklist_solver(source, abstraction, name):
    facts = facts_from_source(source)
    config = config_by_name(
        name,
        "transformer-string" if abstraction == "ts" else "context-string",
    )
    compiler = (
        compile_transformer_analysis
        if abstraction == "ts"
        else compile_context_string_analysis
    )
    compiled = compiler(facts, config.flavour, config.m, config.h)
    solver = analyze(facts, config)
    result = compiled.run(backend="kernel")
    for relation in ("pts", "hpts", "call", "reach", "spts", "texc"):
        assert getattr(result, relation) == getattr(solver, relation), (
            abstraction, name, relation,
        )


_DACAPO_FACTS = {}


def _dacapo_facts(workload):
    if workload not in _DACAPO_FACTS:
        _DACAPO_FACTS[workload] = generate_facts(dacapo_program(workload, 1))
    return _DACAPO_FACTS[workload]


# The workload varies fastest, so the live rule sets of one cell's
# seven programs share the process compile cache.
@pytest.mark.parametrize("workload", DACAPO_NAMES)
@pytest.mark.parametrize("abstraction", ["ts", "cs"])
@pytest.mark.parametrize("name", PAPER_CONFIGURATIONS)
def test_kernel_backend_matches_worklist_on_figure6_table(
    name, abstraction, workload,
):
    facts = _dacapo_facts(workload)
    config = config_by_name(
        name,
        "transformer-string" if abstraction == "ts" else "context-string",
    )
    compiler = (
        compile_transformer_analysis
        if abstraction == "ts"
        else compile_context_string_analysis
    )
    compiled = compiler(facts, config.flavour, config.m, config.h)
    solver = analyze(facts, config)
    result = compiled.run(backend="kernel")
    for relation in ("pts", "hpts", "call", "reach", "spts", "texc"):
        assert getattr(result, relation) == getattr(solver, relation), (
            workload, abstraction, name, relation,
        )


@pytest.mark.parametrize("source", [FIGURE_1, FIGURE_5], ids=["fig1", "fig5"])
def test_kernel_engine_matches_interpreter_on_emitted_program(source):
    facts = facts_from_source(source)
    config = config_by_name("2-object+H")
    compiled = compile_transformer_analysis(
        facts, config.flavour, config.m, config.h
    )
    interpreted = Engine(compiled.program, compiled.builtins).run()
    assert evaluate_kernel(compiled.program, compiled.builtins) == interpreted


class TestEngineBehaviour:
    def test_recursion_negation_and_builtins(self):
        program = parse_datalog(
            """
            edge(1, 2). edge(2, 3). edge(3, 4). edge(1, 4).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            noloop(X, Y) :- path(X, Y), !path(Y, X).
            big(X, Y) :- path(X, Y), lt(X, Y).
            """
        )
        assert evaluate_kernel(program) == Engine(program).run()

    def test_generative_builtin_binds_fresh_values(self):
        program = parse_datalog(
            "n(1). n(2).\n"
            "next(X, Y) :- n(X), succ(X, Y).\n"
        )
        results = evaluate_kernel(program)
        assert results["next"] == {(1, 2), (2, 3)}

    def test_constants_in_heads_and_bodies(self):
        program = parse_datalog(
            "e(1, 2). e(2, 2).\n"
            "p(X, 7) :- e(X, 2).\n"
            "q(X) :- e(1, X).\n"
        )
        results = evaluate_kernel(program)
        assert results["p"] == {(1, 7), (2, 7)}
        assert results["q"] == {(2,)}

    def test_fact_rules_load(self):
        program = parse_datalog("p(1).\nq(X) :- p(X).\n")
        assert evaluate_kernel(program)["q"] == {(1,)}

    def test_stats_and_store_counters(self):
        program = parse_datalog(
            "e(1, 2). e(2, 3).\n"
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Z) :- p(X, Y), p(Y, Z).\n"
        )
        engine = KernelEngine(program)
        engine.run()
        assert engine.stats.rule_evaluations > 0
        assert engine.stats.facts_derived >= 3
        assert engine.stats.seconds > 0
        described = engine.store_stats()
        assert described["p"]["rows"] == 3
        assert described["p"]["inserts"] == 3

    def test_query_decodes_and_tolerates_unknowns(self):
        program = parse_datalog("e(1).\np(X) :- e(X).\n")
        engine = KernelEngine(program)
        assert engine.query("p") == set()  # before run: no storage yet
        engine.run()
        assert engine.query("p") == {(1,)}
        assert engine.query("absent") == set()

    def test_builtin_name_overlap_rejected(self):
        program = parse_datalog("le(1, 2).\np(X, Y) :- le(X, Y).\n")
        with pytest.raises(ValueError, match="builtins"):
            KernelEngine(program)

    def test_strict_mode_lints(self):
        from repro.datalog.ast import Program
        from repro.datalog.lint import LintError

        # Passes Rule.validate() but is unsafe: negation before binding.
        program = Program()
        program.rule(
            Literal("p", (Var("X"),)),
            Literal("q", (Var("X"),), negated=True),
            Literal("r", (Var("X"),)),
        )
        program.add_facts("r", [(1,), (2,)])
        program.add_facts("q", [(1,)])
        with pytest.raises(LintError, match="DL002"):
            KernelEngine(program, strict=True)

    def test_results_hide_body_only_edb(self):
        program = parse_datalog("e(1).\np(X) :- e(X), f(X).\n")
        program.add_facts("f", {(1,)})
        results = evaluate_kernel(program)
        assert set(results) == {"e", "f", "p"}


def assert_same(program, builtins=None):
    """Kernel result == interpreter result; returns the kernel's."""
    interpreted = Engine(program, builtins).run()
    kernel = KernelEngine(program, builtins).run()
    assert kernel == interpreted
    return kernel


def _tc_program(edges):
    program = Program()
    program.rule(atom("path", "X", "Y"), atom("edge", "X", "Y"))
    program.rule(
        atom("path", "X", "Z"), atom("edge", "X", "Y"), atom("path", "Y", "Z")
    )
    program.add_facts("edge", edges)
    return program


class TestClassicPrograms:
    def test_transitive_closure(self):
        result = assert_same(_tc_program([(i, i + 1) for i in range(25)]))
        assert len(result["path"]) == 25 * 26 // 2

    def test_nonlinear_recursion(self):
        program = Program()
        program.rule(atom("path", "X", "Y"), atom("edge", "X", "Y"))
        program.rule(
            atom("path", "X", "Z"), atom("path", "X", "Y"), atom("path", "Y", "Z")
        )
        program.add_facts("edge", [(i, i + 1) for i in range(12)])
        assert_same(program)

    def test_same_generation(self):
        program = Program()
        program.rule(atom("sg", "X", "X"), atom("person", "X"))
        program.rule(
            atom("sg", "X", "Y"),
            atom("parent", "X", "XP"),
            atom("sg", "XP", "YP"),
            atom("parent", "Y", "YP"),
        )
        program.add_facts("person", [("a",), ("c1",), ("c2",), ("d",)])
        program.add_facts("parent", [("c1", "a"), ("c2", "a"), ("d", "c1")])
        assert_same(program)

    def test_stratified_negation(self):
        program = Program()
        program.rule(atom("node", "X"), atom("edge", "X", "_A"))
        program.rule(atom("node", "Y"), atom("edge", "_B", "Y"))
        program.rule(atom("reach", "a"))
        program.rule(atom("reach", "Y"), atom("reach", "X"), atom("edge", "X", "Y"))
        program.rule(
            atom("unreachable", "X"), atom("node", "X"), negated("reach", "X")
        )
        program.add_facts("edge", [("a", "b"), ("d", "e")])
        result = assert_same(program)
        assert result["unreachable"] == {("d",), ("e",)}

    def test_constants_and_repeats(self):
        program = Program()
        program.rule(atom("from_a", "Y"), atom("edge", "a", "Y"))
        program.rule(atom("loop", "X"), atom("edge", "X", "X"))
        program.rule(atom("tagged", "x", "Y"), atom("edge", "Y", "Y"))
        program.add_facts("edge", [("a", "b"), ("c", "c")])
        result = assert_same(program)
        assert result["from_a"] == {("b",)}
        assert result["tagged"] == {("x", "c")}

    def test_builtins(self):
        double = function_builtin("double", lambda x: (2 * x,), out_positions=(1,))
        program = Program()
        program.rule(atom("big", "X"), atom("n", "X"), atom("gt", "X", 2))
        program.rule(atom("d", "X", "Y"), atom("n", "X"), atom("double", "X", "Y"))
        program.rule(atom("next", "X", "Y"), atom("n", "X"), atom("succ", "X", "Y"))
        program.add_facts("n", [(1,), (3,), (4,)])
        result = assert_same(program, {"double": double})
        assert result["d"] == {(1, 2), (3, 6), (4, 8)}

    def test_zero_arity(self):
        program = Program()
        program.rule(atom("flag"))
        program.rule(atom("out", "X"), atom("flag"), atom("q", "X"))
        program.add_facts("q", [(7,)])
        result = assert_same(program)
        assert result["out"] == {(7,)}

    def test_facts_as_rules(self):
        program = Program()
        program.rule(atom("edge", "a", "b"))
        program.rule(atom("path", "X", "Y"), atom("edge", "X", "Y"))
        assert_same(program)

    def test_tuple_valued_constants(self):
        program = Program()
        program.rule(atom("p", "C"), atom("q", "C"))
        program.add_facts("q", [((("a", "b"),))])
        assert_same(program)

    @pytest.mark.parametrize(
        "rules",
        [
            "e(1).\np(X) :- e(X).\n",
            "e(1). e(2).\np(X) :- e(X), !r(X).\nq(X) :- r(X).\n",
            "e(1).\np(X) :- e(X).\nr(X) :- p(X).\n",
        ],
        ids=["unread", "read-and-negated", "also-a-head"],
    )
    def test_empty_fact_relation(self, rules):
        # An empty fact relation has no row to give it an arity; like
        # the interpreter, the kernels hide it unless a rule derives it.
        program = parse_datalog(rules)
        program.facts["r"] = set()
        assert_same(program)


class TestPointerAnalysisPrograms:
    @pytest.mark.parametrize(
        "compiler,flavour,m,h",
        [
            (compile_transformer_analysis, Flavour.CALL_SITE, 1, 1),
            (compile_transformer_analysis, Flavour.OBJECT, 2, 1),
            (compile_transformer_analysis_naive, Flavour.CALL_SITE, 1, 1),
            (compile_context_string_analysis, Flavour.OBJECT, 2, 1),
        ],
    )
    def test_matches_interpreter_on_figure1(self, compiler, flavour, m, h):
        facts = facts_from_source(FIGURE_1)
        compiled_analysis = compiler(facts, flavour, m, h)
        assert_same(compiled_analysis.program, compiled_analysis.builtins)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_interpreter_on_fuzz(self, seed):
        facts = generate_facts(random_program(seed, size=3))
        compiled_analysis = compile_transformer_analysis(
            facts, Flavour.CALL_SITE, 1, 1
        )
        assert_same(compiled_analysis.program, compiled_analysis.builtins)

    def test_magic_transformed_program(self):
        # The CI instantiation keeps the adorned program small enough
        # for the (slow) interpreting reference run.
        facts = facts_from_source(FIGURE_5)
        compiled_analysis = compile_transformer_analysis(
            facts, Flavour.CALL_SITE, 0, 0
        )
        magic, answer = magic_transform(
            compiled_analysis.program, "pts__", ("T.m/h", None)
        )
        result = assert_same(magic)
        assert result.get(answer)


class TestEngineMechanics:
    def test_stats(self):
        engine = KernelEngine(_tc_program([(i, i + 1) for i in range(10)]))
        engine.run()
        assert engine.stats.facts_derived == 55
        assert engine.stats.rounds >= 8

    def test_generated_source_is_inspectable(self):
        program = Program()
        program.rule(atom("p", "X"), atom("q", "X"))
        program.add_facts("q", [(1,)])
        engine = KernelEngine(program)
        assert "def _k0_v0" in engine.kernels.source
        assert "out.append" in engine.kernels.source

    def test_rerun_is_idempotent(self):
        engine = KernelEngine(_tc_program([(1, 2), (2, 3)]))
        assert engine.run()["path"] == engine.run()["path"]

    def test_unsafe_negation_order_rejected_at_compile_time(self):
        # Negation before its variables are bound: the interpreter fails
        # at run time; the kernel compiler rejects at build time.
        program = Program()
        program.rules.append(
            Rule(
                Literal("p", (Var("X"),)),
                (
                    Literal("r", (Var("X"),), negated=True),
                    Literal("q", (Var("X"),)),
                ),
            )
        )
        program.add_facts("q", [(1,)])
        with pytest.raises(ValueError, match="unbound"):
            KernelEngine(program)


class TestInternProgram:
    def test_constants_and_facts_are_interned(self):
        interner = Interner()
        program = parse_datalog('p(X, "c") :- e(X, "b").\n')
        program.add_facts("e", {("a", "b")})
        encoded = intern_program(program, interner)
        assert encoded.facts  # loaded facts survive
        for rows in encoded.facts.values():
            for row in rows:
                assert all(isinstance(v, int) for v in row)
        body_const = encoded.rules[0].body[0].args[1]
        assert interner.value_of(body_const.value) == "b"

    def test_interning_is_deterministic(self):
        source = 'e("x", "y").\ne("y", "z").\np(A, B) :- e(A, B).\n'
        first = intern_program(parse_datalog(source), Interner())
        second = intern_program(parse_datalog(source), Interner())
        assert first.facts == second.facts

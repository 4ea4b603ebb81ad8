"""The grand cross-validation gate.

One mid-size workload, every implementation path, one test file: if
anything in the stack drifts out of agreement, this is the test that
fails first.  (The per-module suites localize the fault.)
"""

import pytest

from repro import analyze, config_by_name
from repro.bench.concrete import run_concrete
from repro.bench.workloads import dacapo_program
from repro.cfl.pag import build_pag
from repro.cfl.solver import FlowsToSolver
from repro.compile.emit import (
    compile_context_string_analysis,
    compile_transformer_analysis,
    compile_transformer_analysis_naive,
)
from repro.core.demand import DemandPointerAnalysis
from repro.core.sensitivity import Flavour
from repro.frontend.factgen import generate_facts
from repro.frontend.parser import parse_program
from repro.frontend.printer import format_program


@pytest.fixture(scope="module")
def workload():
    program = dacapo_program("luindex", scale=1)
    return program, generate_facts(program)


@pytest.fixture(scope="module")
def exhaustive(workload):
    _, facts = workload
    return {
        (name, abstraction): analyze(facts, config_by_name(name, abstraction))
        for name in ("insensitive", "1-call+H", "2-object+H")
        for abstraction in ("context-string", "transformer-string")
    }


def test_abstractions_agree_ci(exhaustive):
    for name in ("insensitive", "1-call+H", "2-object+H"):
        cs = exhaustive[(name, "context-string")]
        ts = exhaustive[(name, "transformer-string")]
        assert cs.pts_ci() == ts.pts_ci(), name
        assert cs.hpts_ci() == ts.hpts_ci(), name
        assert cs.call_graph() == ts.call_graph(), name


def test_all_datalog_paths_match_solver(workload, exhaustive):
    _, facts = workload
    solver_ts = exhaustive[("1-call+H", "transformer-string")]
    solver_cs = exhaustive[("1-call+H", "context-string")]

    specialized = compile_transformer_analysis(facts, Flavour.CALL_SITE, 1, 1)
    for backend in ("interpreted", "kernel"):
        run = specialized.run(backend=backend)
        assert run.pts == solver_ts.pts, backend
        assert run.call == solver_ts.call, backend
        assert run.texc == solver_ts.texc, backend

    naive = compile_transformer_analysis_naive(
        facts, Flavour.CALL_SITE, 1, 1
    ).run()
    assert naive.pts == solver_ts.pts

    strings = compile_context_string_analysis(
        facts, Flavour.CALL_SITE, 1, 1
    ).run(backend="kernel")
    assert strings.pts == solver_cs.pts
    assert strings.call == solver_cs.call


def test_cfl_matches_m0(workload, exhaustive):
    _, facts = workload
    insensitive = exhaustive[("insensitive", "transformer-string")]
    solver = FlowsToSolver(build_pag(facts)).solve()
    assert solver.variable_flows_to_pairs() == {
        (h, y) for (y, h) in insensitive.pts_ci()
    }


def test_demand_matches_exhaustive(workload, exhaustive):
    _, facts = workload
    full = exhaustive[("2-object+H", "transformer-string")]
    demand = DemandPointerAnalysis(facts, config_by_name("2-object+H"))
    variables = sorted({y for (y, _) in full.pts_ci()})[:12]
    for var in variables:
        assert demand.points_to(var) == full.points_to(var), var


def test_concrete_execution_is_covered(workload, exhaustive):
    program, _ = workload
    observed = run_concrete(program, step_budget=30000)
    for key, result in exhaustive.items():
        pts = result.pts_ci()
        for binding in observed.var_points_to:
            assert binding in pts, (key, binding)
        call_graph = result.call_graph()
        for edge in observed.call_edges:
            assert edge in call_graph, (key, edge)


def test_printer_roundtrip_preserves_analysis(workload, exhaustive):
    program, _ = workload
    reparsed = parse_program(format_program(program))
    original = exhaustive[("2-object+H", "transformer-string")]
    redone = analyze(generate_facts(reparsed), config_by_name("2-object+H"))
    def tails(res):
        out = {}
        for (var, heap) in res.pts_ci():
            out.setdefault(var.rsplit("/", 1)[-1].replace("$", "t_"),
                           set()).add(heap)
        return out
    assert tails(original) == tails(redone)
    assert original.call_graph() == redone.call_graph()


def test_transformer_strings_win_on_facts(exhaustive):
    for name in ("1-call+H", "2-object+H"):
        cs = exhaustive[(name, "context-string")]
        ts = exhaustive[(name, "transformer-string")]
        assert ts.total_facts() < cs.total_facts(), name

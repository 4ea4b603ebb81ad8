"""Robustness: the solver must tolerate partial or dangling fact sets.

Externally produced facts directories (the Doop route) may reference
entities that carry no other facts — formals of never-called methods,
invocations of absent callees, loads of never-stored fields.  The
solver's joins must simply not fire, never crash.
"""

import pytest

from repro import analyze, config_by_name
from repro.frontend.factgen import FactSet


def base_facts() -> FactSet:
    facts = FactSet()
    facts.main_method = "M.main"
    facts.assign_new.add(("h1", "M.main/x", "M.main"))
    facts.heap_type.add(("h1", "M"))
    facts.class_of["h1"] = "M"
    return facts


class TestDanglingReferences:
    def test_minimal_facts(self):
        r = analyze(base_facts(), config_by_name("1-call"))
        assert r.points_to("M.main/x") == {"h1"}

    def test_actual_for_unknown_invocation(self):
        facts = base_facts()
        facts.actual.add(("M.main/x", "ghost_site", 0))
        r = analyze(facts, config_by_name("1-call"))
        assert r.call_graph() == frozenset()

    def test_static_invoke_of_method_without_facts(self):
        facts = base_facts()
        facts.static_invoke.add(("c1", "Ghost.run", "M.main"))
        facts.invocation_parent["c1"] = "M.main"
        r = analyze(facts, config_by_name("1-call"))
        # The edge and reachability exist; nothing else derives.
        assert ("c1", "Ghost.run") in r.call_graph()
        assert "Ghost.run" in r.reachable_methods()

    def test_virtual_invoke_with_no_implements(self):
        facts = base_facts()
        facts.virtual_invoke.add(("c1", "M.main/x", "spin/0"))
        facts.invocation_parent["c1"] = "M.main"
        r = analyze(facts, config_by_name("2-object+H"))
        assert r.call_graph() == frozenset()

    def test_implements_without_this_var(self):
        facts = base_facts()
        facts.virtual_invoke.add(("c1", "M.main/x", "spin/0"))
        facts.invocation_parent["c1"] = "M.main"
        facts.implements.add(("M.spin", "M", "spin/0"))
        r = analyze(facts, config_by_name("1-object"))
        # Call edge derived even though the callee has no this_var fact.
        assert ("c1", "M.spin") in r.call_graph()

    def test_load_of_never_stored_field(self):
        facts = base_facts()
        facts.load.add(("M.main/x", "phantom", "M.main/y"))
        r = analyze(facts, config_by_name("1-call+H"))
        assert r.points_to("M.main/y") == set()

    def test_store_into_pointerless_base(self):
        facts = base_facts()
        facts.store.add(("M.main/x", "f", "M.main/nowhere"))
        r = analyze(facts, config_by_name("1-call+H"))
        assert r.hpts_ci() == frozenset()

    def test_return_without_call(self):
        facts = base_facts()
        facts.return_var.add(("M.main/x", "M.main"))
        r = analyze(facts, config_by_name("1-call"))
        assert r.points_to("M.main/x") == {"h1"}

    def test_catch_without_throw(self):
        facts = base_facts()
        facts.catch_var.add(("M.main/c", "M.main"))
        r = analyze(facts, config_by_name("1-call"))
        assert r.points_to("M.main/c") == set()

    def test_throw_in_unreachable_method(self):
        facts = base_facts()
        facts.throw_var.add(("Dead.m/e", "Dead.m"))
        r = analyze(facts, config_by_name("1-call"))
        assert r.texc == set()

    def test_static_load_without_store(self):
        facts = base_facts()
        facts.static_load.add(("G.slot", "M.main/y", "M.main"))
        r = analyze(facts, config_by_name("1-call"))
        assert r.points_to("M.main/y") == set()

    def test_heap_without_type(self):
        facts = base_facts()
        facts.assign_new.add(("h2", "M.main/z", "M.main"))
        # no heap_type for h2: allocation still tracked, dispatch skipped.
        facts.virtual_invoke.add(("c1", "M.main/z", "go/0"))
        facts.invocation_parent["c1"] = "M.main"
        r = analyze(facts, config_by_name("1-object"))
        assert r.points_to("M.main/z") == {"h2"}
        assert r.call_graph() == frozenset()


class TestDemandRobustness:
    def test_demand_on_dangling_facts(self):
        from repro.core.demand import DemandPointerAnalysis

        facts = base_facts()
        facts.actual.add(("M.main/x", "ghost", 0))
        demand = DemandPointerAnalysis(facts, config_by_name("1-call"))
        assert demand.points_to("M.main/x") == {"h1"}
        assert demand.points_to("never/seen") == frozenset()


class TestCompiledPathsRobustness:
    def test_specialized_program_on_dangling_facts(self):
        from repro.compile.emit import compile_transformer_analysis
        from repro.core.sensitivity import Flavour

        facts = base_facts()
        facts.actual.add(("M.main/x", "ghost", 0))
        facts.load.add(("M.main/x", "phantom", "M.main/y"))
        compiled = compile_transformer_analysis(facts, Flavour.CALL_SITE, 1, 0)
        result = compiled.run()
        assert ("M.main/x", "h1") in result.pts_ci()
        compiled_backend = compiled.run(backend="kernel")
        assert compiled_backend.pts == result.pts

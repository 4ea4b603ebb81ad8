"""Deeper-than-paper context levels: the parameterization is uniform in
(m, h), so m = 3 must work out of the box across both abstractions and
both execution paths."""

import pytest

from repro import analyze, config_by_name
from repro.compile.emit import compile_transformer_analysis
from repro.core.sensitivity import Flavour
from repro.frontend.factgen import facts_from_source

DEEP_CHAIN = """
class T {
    static Object id3(Object p) { return p; }
    static Object id2(Object q) {
        Object t = T.id3(q); // k3
        return t;
    }
    static Object id1(Object r) {
        Object t = T.id2(r); // k2
        return t;
    }
    public static void main(String[] args) {
        Object a = new T(); // ha
        Object b = new T(); // hb
        Object x = T.id1(a); // k1a
        Object y = T.id1(b); // k1b
    }
}
"""


class TestThreeCallSite:
    """The DEEP_CHAIN wrapper needs 3 levels of call-string to stay
    precise: the shared internal sites k2/k3 merge below that."""

    @pytest.mark.parametrize("abstraction", ["context-string", "transformer-string"])
    def test_two_levels_insufficient(self, abstraction):
        r = analyze(DEEP_CHAIN, config_by_name("2-call", abstraction))
        assert r.points_to("T.main/x") == {"ha", "hb"}

    @pytest.mark.parametrize("abstraction", ["context-string", "transformer-string"])
    def test_three_levels_precise(self, abstraction):
        r = analyze(DEEP_CHAIN, config_by_name("3-call", abstraction))
        assert r.points_to("T.main/x") == {"ha"}
        assert r.points_to("T.main/y") == {"hb"}

    def test_abstractions_agree_at_depth_3(self):
        cs = analyze(DEEP_CHAIN, config_by_name("3-call+2H", "context-string"))
        ts = analyze(DEEP_CHAIN, config_by_name("3-call+2H", "transformer-string"))
        assert cs.pts_ci() == ts.pts_ci()
        assert cs.call_graph() == ts.call_graph()
        assert ts.total_facts() <= cs.total_facts()

    def test_config_names(self):
        assert config_by_name("3-object+2H").sensitivity_name == "3-object+2H"
        assert config_by_name("3-call+2H").m == 3
        assert config_by_name("3-call+2H").h == 2


class TestThreeObject:
    NESTED = """
    class C { Object make() { Object o = new C(); // leaf
        return o; } }
    class B { Object mid() { C c = new C(); // hc
        Object o = c.make(); // m2
        return o; } }
    class A { Object top() { B b = new B(); // hb
        Object o = b.mid(); // m1
        return o; } }
    class M {
        public static void main(String[] args) {
            A a1 = new A(); // ha1
            A a2 = new A(); // ha2
            Object x = a1.top(); // c1
            Object y = a2.top(); // c2
        }
    }
    """

    @pytest.mark.parametrize("abstraction", ["context-string", "transformer-string"])
    def test_runs_and_is_sound(self, abstraction):
        r = analyze(self.NESTED, config_by_name("3-object+2H", abstraction))
        assert r.points_to("M.main/x") == {"leaf"}
        assert r.points_to("M.main/y") == {"leaf"}

    def test_ci_agreement(self):
        cs = analyze(self.NESTED, config_by_name("3-object+2H", "context-string"))
        ts = analyze(self.NESTED, config_by_name("3-object+2H", "transformer-string"))
        assert cs.pts_ci() == ts.pts_ci()

    def test_heap_contexts_reach_depth_2(self):
        r = analyze(self.NESTED, config_by_name("3-object+2H", "context-string"))
        heap_contexts = {
            a[0] for (y, h, a) in r.pts if y == "M.main/x" and h == "leaf"
        }
        assert any(len(hc) == 2 for hc in heap_contexts)


class TestSpecializedDatalogAtDepth3:
    def test_configuration_count(self):
        from repro.compile.configurations import enumerate_configurations

        # pts domain at m=3, h=2: 3 × 4 × 2 = 24 configurations.
        assert len(enumerate_configurations(2, 3)) == 24

    def test_compiled_matches_solver(self):
        facts = facts_from_source(DEEP_CHAIN)
        solver = analyze(facts, config_by_name("3-call+2H", "transformer-string"))
        compiled = compile_transformer_analysis(
            facts, Flavour.CALL_SITE, 3, 2
        ).run(backend="kernel")
        assert compiled.pts == solver.pts
        assert compiled.call == solver.call

"""Tests for the static cost & cardinality analysis (DL5xx).

Covers the layers bottom-up: exact relation profiles (rows, distinct
counts, minimal keys, functional dependencies), probe-match estimates,
binding-legality of candidate orders, IDB bound propagation, the
join-order planner's choices on hand-written programs, each DL501–DL504
diagnostic, the byte-stable ``repro-cost-plan/1`` document and its
self-check, and — the property the whole module rests on — that
applying a plan is a pure rewrite: bit-identical fixpoints on the
interpreting engine and the fused kernels,
including the delta-index fast paths the reordered programs exercise.
"""

import pytest

from repro.datalog.cost import (
    CostPlan,
    RelationProfile,
    _order_is_legal,
    _signatures,
    analyze_cost,
    profile_facts,
    reorder_program,
    verify_cost_plan,
)
from repro.datalog.engine import Engine
from repro.datalog.kernel import KernelEngine
from repro.datalog.parser import parse_datalog
from repro.lint.cost import check_cost, cost_plan_or_none
from repro.lint.diagnostics import Severity


def plan_of(text: str, **kwargs) -> CostPlan:
    return analyze_cost(parse_datalog(text, validate=False), **kwargs)


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


class TestRelationProfile:
    def test_matches_unbound_is_all_rows(self):
        profile = RelationProfile("r", 2, 100.0, (10.0, 50.0))
        assert profile.matches(()) == 100.0

    def test_matches_divides_by_distinct(self):
        profile = RelationProfile("r", 2, 100.0, (10.0, 50.0))
        assert profile.matches((0,)) == pytest.approx(10.0)
        assert profile.matches((1,)) == pytest.approx(2.0)

    def test_key_coverage_matches_at_most_one_row(self):
        profile = RelationProfile(
            "r", 2, 100.0, (10.0, 50.0), keys=((1,),)
        )
        assert profile.matches((1,)) == 1.0
        assert profile.matches((0, 1)) == 1.0
        assert profile.matches((0,)) == pytest.approx(10.0)

    def test_selective_iff_probe_discriminates(self):
        profile = RelationProfile("r", 2, 8.0, (1.0, 8.0))
        assert not profile.selective((0,))  # one value: every row matches
        assert profile.selective((1,))


class TestProfileFacts:
    def test_exact_rows_and_distincts(self):
        program = parse_datalog("p(x, y).", validate=False)
        program.facts["edge"] = {(1, 2), (1, 3), (2, 3)}
        profile = profile_facts(program)["edge"]
        assert profile.exact
        assert profile.rows == 3.0
        assert profile.distinct == (2.0, 2.0)

    def test_single_column_key_detected(self):
        program = parse_datalog("p(x, y).", validate=False)
        program.facts["f"] = {(1, "a"), (2, "a"), (3, "b")}
        profile = profile_facts(program)["f"]
        assert (0,) in profile.keys
        # Column 0 is a key, so the FD scan skips it; 1 -/-> 0.
        assert (1, 0) not in profile.determines

    def test_functional_dependency_detected(self):
        program = parse_datalog("p(x, y).", validate=False)
        program.facts["f"] = {
            (1, "a", "x"), (2, "a", "x"), (3, "b", "y"), (4, "b", "y"),
        }
        profile = profile_facts(program)["f"]
        assert (1, 2) in profile.determines

    def test_bodyless_constant_rules_count_as_facts(self):
        program = parse_datalog(
            """
            seed("q").
            p(X) :- seed(X).
            """
        )
        profile = profile_facts(program)["seed"]
        assert profile.rows == 1.0
        assert profile.exact


class TestOrderLegality:
    def test_negation_needs_binders_first(self):
        program = parse_datalog(
            """
            p(X) :- e(X), !q(X).
            """,
            validate=False,
        )
        body = program.rules[0].body
        signatures = _signatures(None)
        assert _order_is_legal(body, (0, 1), signatures)
        assert not _order_is_legal(body, (1, 0), signatures)

    def test_builtin_binding_discipline(self):
        program = parse_datalog(
            """
            p(X, Y) :- e(X), lt(X, Y), f(Y).
            """,
            validate=False,
        )
        body = program.rules[0].body
        signatures = _signatures(None)
        # The default lt builtin needs both sides bound: it can only
        # run after e and f have bound X and Y.
        assert _order_is_legal(body, (0, 2, 1), signatures)
        assert not _order_is_legal(body, (0, 1, 2), signatures)

    def test_unknown_builtin_pins_source_order(self):
        program = parse_datalog(
            """
            p(X, Y) :- e(X), mystery(X, Y), f(Y).
            """,
            validate=False,
        )
        program.facts["e"] = {(1,)}
        program.facts["f"] = {(2,)}
        plan = analyze_cost(program, builtins={"mystery": lambda args: ()})
        assert plan.order_of(0) == (0, 1, 2)


class TestPlannerChoices:
    def test_selective_literal_moves_first(self):
        # big is a 100-row cross against the head var; tiny pins X.
        program = parse_datalog(
            """
            p(X, Y) :- big(X, Y), tiny(X).
            """,
            validate=False,
        )
        program.facts["big"] = {(i, i % 7) for i in range(100)}
        program.facts["tiny"] = {(1,)}
        plan = analyze_cost(program)
        assert plan.order_of(0) == (1, 0)
        assert plan.reordered_count() == 1

    def test_source_order_wins_ties(self):
        program = parse_datalog(
            """
            p(X, Y) :- a(X), b(Y).
            """,
            validate=False,
        )
        program.facts["a"] = {(1,)}
        program.facts["b"] = {(2,)}
        plan = analyze_cost(program)
        assert plan.order_of(0) == (0, 1)
        assert plan.reordered_count() == 0

    def test_greedy_never_worse_than_source(self):
        # Six literals: beyond EXHAUSTIVE_LIMIT, so the greedy path
        # runs; it must not pick an order costlier than the author's.
        text = "p(A, B, C, D, E, F) :- " + ", ".join(
            f"e{i}(V{i}, V{i + 1})" for i in range(6)
        ).replace("V6", "A") + "."
        text = text.replace("V0", "A").replace("V1", "B")
        program = parse_datalog(
            """
            p(A) :- e0(A, B), e1(B, C), e2(C, D), e3(D, E), e4(E, F),
                    e5(F, A).
            """,
            validate=False,
        )
        for i in range(6):
            program.facts[f"e{i}"] = {(j, j + 1) for j in range(4)}
        plan = analyze_cost(program)
        entry = plan.rules[0]
        assert entry.cost <= entry.source_cost

    def test_recursive_literal_not_buried(self):
        # path is the recursive predicate; the planner must keep its
        # delta probe cheap rather than re-paying an EDB prefix per
        # round.  Whatever order is chosen must stay bit-identical.
        program = parse_datalog(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        program.facts["edge"] = {(i, i + 1) for i in range(30)}
        plan = analyze_cost(program)
        baseline = Engine(program).run()
        assert Engine(plan.apply()).run() == baseline


class TestDiagnostics:
    def test_dl501_cross_product(self):
        program = parse_datalog(
            """
            p(X, Y) :- a(X), b(Y).
            """,
            validate=False,
        )
        program.facts["a"] = {(i,) for i in range(5)}
        program.facts["b"] = {(i,) for i in range(5)}
        diagnostics = check_cost(program)
        assert "DL501" in codes(diagnostics)
        (diag,) = [d for d in diagnostics if d.code == "DL501"]
        assert diag.severity is Severity.WARNING
        assert diag.rule_index == 0

    def test_dl502_unselective_probe(self):
        # Column 0 of f has a single value: binding it filters nothing.
        program = parse_datalog(
            """
            p(Y) :- seed(X), f(X, Y).
            """,
            validate=False,
        )
        program.facts["seed"] = {(1,)}
        program.facts["f"] = {(1, i) for i in range(6)}
        diagnostics = check_cost(program)
        assert "DL502" in codes(diagnostics)

    def test_dl503_reorder_reported_with_order(self):
        program = parse_datalog(
            """
            p(X, Y) :- big(X, Y), tiny(X).
            """,
            validate=False,
        )
        program.facts["big"] = {(i, i % 7) for i in range(100)}
        program.facts["tiny"] = {(1,)}
        diagnostics = check_cost(program)
        (diag,) = [d for d in diagnostics if d.code == "DL503"]
        assert "[1, 0]" in diag.message

    def test_dl504_shared_prefix(self):
        program = parse_datalog(
            """
            p(X, Z) :- e(X, Y), f(Y, Z), g(Z).
            q(X, Z) :- e(X, Y), f(Y, Z), h(Z).
            """,
            validate=False,
        )
        for pred in "efgh":
            arity = 1 if pred in "gh" else 2
            program.facts[pred] = {(1,) * arity}
        diagnostics = check_cost(program)
        (diag,) = [d for d in diagnostics if d.code == "DL504"]
        assert "[0, 1]" in diag.message

    def test_clean_program_has_no_findings(self):
        program = parse_datalog(
            """
            p(X, Y) :- e(X, Y).
            """
        )
        program.facts["e"] = {(1, 2)}
        assert check_cost(program) == []

    def test_unstratifiable_program_defers_to_dl201(self):
        program = parse_datalog(
            """
            p(X) :- e(X), !q(X).
            q(X) :- e(X), !p(X).
            """,
            validate=False,
        )
        program.facts["e"] = {(1,)}
        plan, diagnostics = cost_plan_or_none(program)
        assert plan is None
        assert diagnostics == []


class TestDocument:
    def _plan(self):
        program = parse_datalog(
            """
            p(X, Y) :- big(X, Y), tiny(X).
            """,
            validate=False,
        )
        program.facts["big"] = {(i, i % 3) for i in range(20)}
        program.facts["tiny"] = {(1,)}
        return analyze_cost(program)

    def test_round_trip_self_check(self):
        document = self._plan().to_json()
        summary = verify_cost_plan(document)
        assert summary["schema"] == CostPlan.SCHEMA
        assert summary["rules"] == 1
        assert summary["reordered"] == 1

    def test_digest_is_byte_stable(self):
        assert self._plan().to_json() == self._plan().to_json()

    def test_tampered_digest_rejected(self):
        document = self._plan().to_json()
        document["body"]["reordered"] = 0
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_cost_plan(document)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="not a cost plan"):
            verify_cost_plan({"schema": "repro-lint/1"})

    def test_inconsistent_counts_rejected(self):
        document = self._plan().to_json()
        document["body"]["rules"] = 7
        document["digest"] = (
            "sha256:" + __import__("hashlib").sha256(
                __import__("json").dumps(
                    document["body"], sort_keys=True,
                    separators=(",", ":"), ensure_ascii=True,
                ).encode()
            ).hexdigest()
        )
        with pytest.raises(ValueError, match="declares 7 rules"):
            verify_cost_plan(document)

    def test_render_mentions_reordered_rules(self):
        text = self._plan().render()
        assert "1 reordered" in text


class TestApplyParity:
    """A plan's rewrite is invisible to every backend."""

    def _program(self):
        program = parse_datalog(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            goal(X, Z) :- big(X, Y), path(Y, Z), tiny(Z).
            """
        )
        program.facts["edge"] = {(i, i + 1) for i in range(12)}
        program.facts["big"] = {(i % 5, i) for i in range(40)}
        program.facts["tiny"] = {(6,), (9,)}
        return program

    def test_bit_identical_on_all_backends(self):
        program = self._program()
        baseline = Engine(program).run()
        ordered = reorder_program(program)
        assert Engine(ordered).run() == baseline
        assert KernelEngine(ordered).run() == baseline

    def test_engine_cost_order_flag(self):
        program = self._program()
        engine = Engine(program, cost_order=True)
        assert engine.cost_ordered
        assert engine.run() == Engine(self._program()).run()

    def test_apply_preserves_rule_count_and_facts(self):
        program = self._program()
        ordered = reorder_program(program)
        assert len(ordered.rules) == len(program.rules)
        assert ordered.facts == program.facts
        for before, after in zip(program.rules, ordered.rules):
            assert before.head == after.head
            assert sorted(map(repr, before.body)) == sorted(
                map(repr, after.body)
            )


class TestDeltaIndexRegression:
    """The reordered programs put delta literals at arbitrary body
    positions; both engines must probe the delta through a hash index
    (and stay correct) rather than scanning it linearly."""

    def _program(self, delta_last: bool) -> "Program":
        body = (
            "path(X, Y), edge(Y, Z)" if not delta_last
            else "edge(Y, Z), path(X, Y)"
        )
        program = parse_datalog(
            f"""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- {body}.
            """
        )
        program.facts["edge"] = {(i, i + 1) for i in range(40)}
        return program

    def test_engine_matches_for_either_delta_position(self):
        first = Engine(self._program(False)).run()
        last = Engine(self._program(True)).run()
        assert first == last
        assert len(first["path"]) == 40 * 41 // 2

    def test_kernel_matches_for_either_delta_position(self):
        assert (
            KernelEngine(self._program(False)).run()
            == KernelEngine(self._program(True)).run()
        )

    def test_kernel_delta_variant_builds_bucket_index(self):
        # The recursive rule's delta variant probes path with Y bound
        # (edge runs first), so the generated function must bucket the
        # delta ids instead of scanning them per outer binding.
        engine = KernelEngine(self._program(True))
        assert "_dbuckets" in engine.kernels.source

"""Golden tests for the Datalog semantic analyzer (`repro.datalog.lint`).

Covers every diagnostic family with a minimal triggering program, the
engine's ``strict=`` wiring, the dead-rule rewrite, the IR verifier,
and a sweep asserting that every flavour × (m, h) configuration emitted
by :mod:`repro.compile.emit` lints clean.
"""

import pytest

from repro.core.sensitivity import Flavour, validate_levels
from repro.datalog.ast import Program, Rule, atom, negated
from repro.datalog.engine import Engine, evaluate
from repro.datalog.lint import (
    LintError,
    Severity,
    check_configurations,
    check_liveness,
    check_safety,
    check_schema,
    check_sorts,
    check_stratification,
    eliminate_dead_rules,
    lint_program,
)
from repro.datalog.parser import parse_datalog
from repro.datalog.stratify import StratificationError, negative_cycle_edges


def codes(diagnostics):
    return [d.code for d in diagnostics]


def unsafe_negation_program():
    """`p(X) :- !q(X), r(X).` — passes Rule.validate(), crashes the engine."""
    program = Program()
    program.rule(atom("p", "X"), negated("q", "X"), atom("r", "X"))
    program.add_facts("r", [(1,), (2,)])
    program.add_facts("q", [(1,)])
    return program


# ---------------------------------------------------------------------------
# Safety / range restriction (DL001–DL004).
# ---------------------------------------------------------------------------


class TestSafety:
    def test_clean_program_has_no_findings(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"), negated("q", "X"))
        program.add_facts("r", [(1,)])
        assert check_safety(program) == []

    def test_unbound_head_variable_is_dl001(self):
        # Program.rule() would reject this eagerly; build the Rule
        # directly, as a generator with a bug would.
        program = Program()
        program.rules.append(Rule(atom("p", "X", "Y"), (atom("r", "X"),)))
        (diag,) = check_safety(program)
        assert diag.code == "DL001"
        assert diag.severity is Severity.ERROR
        assert "Y" in diag.message

    def test_negation_before_binding_is_dl002_with_reorder_hint(self):
        (diag,) = check_safety(unsafe_negation_program())
        assert diag.code == "DL002"
        assert diag.rule_index == 0
        assert "move the negation after it" in diag.message

    def test_never_bound_negated_variable_is_dl002(self):
        program = Program()
        program.rules.append(Rule(
            atom("p", "X"), (atom("r", "X"), negated("q", "Y")),
        ))
        (diag,) = check_safety(program)
        assert diag.code == "DL002"
        assert "not bound by any positive body literal" in diag.message

    def test_builtin_reached_with_unbound_inputs_is_dl003(self):
        program = Program()
        # lt/2 is all-input: X is bound by r but Y never is.
        program.rule(atom("p", "X"), atom("r", "X"), atom("lt", "X", "Y"))
        assert "DL003" in codes(check_safety(program))

    def test_builtin_after_binding_is_clean(self):
        program = Program()
        program.rule(
            atom("p", "X"), atom("r", "X"), atom("s", "Y"),
            atom("lt", "X", "Y"),
        )
        assert check_safety(program) == []

    def test_succ_with_one_bound_side_is_clean_with_none_bound_dl003(self):
        program = Program()
        program.rule(atom("p", "Y"), atom("r", "X"), atom("succ", "X", "Y"))
        assert check_safety(program) == []
        bad = Program()
        bad.rule(atom("p", "Y"), atom("succ", "X", "Y"), atom("r", "X"))
        assert "DL003" in codes(check_safety(bad))

    def test_negated_head_is_dl004(self):
        program = parse_datalog("!p(X) :- q(X).", validate=False)
        assert "DL004" in codes(check_safety(program))


# ---------------------------------------------------------------------------
# Schema and sorts (DL101–DL103).
# ---------------------------------------------------------------------------


class TestSchema:
    def test_arity_clash_between_rules_is_dl101(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"))
        program.rule(atom("q", "X"), atom("p", "X", "Y"), atom("r", "Y"))
        (diag,) = check_schema(program)
        assert diag.code == "DL101"
        assert "'p'" in diag.message

    def test_fact_arity_clash_is_dl101(self):
        program = Program()
        program.rule(atom("q", "X"), atom("r", "X"))
        program.add_facts("r", [(1, 2)])
        assert "DL101" in codes(check_schema(program))

    def test_builtin_arity_clash_is_dl101(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"), atom("lt", "X"))
        assert "DL101" in codes(check_schema(program))

    def test_stored_relation_shadowing_builtin_is_dl103(self):
        program = Program()
        program.rule(atom("lt", "X", "Y"), atom("r", "X", "Y"))
        assert "DL103" in codes(check_schema(program))

    def test_conflicting_sorts_in_joined_slots_is_dl102_warning(self):
        program = Program()
        # p's column joins r's column via X; r holds strings, s holds
        # tuples, and q(X) :- s(X) routes the tuple into the same class.
        program.rule(atom("p", "X"), atom("r", "X"))
        program.rule(atom("p", "X"), atom("s", "X"))
        program.add_facts("r", [("a",)])
        program.add_facts("s", [(("ctx", "ctx"),)])
        (diag,) = check_sorts(program)
        assert diag.code == "DL102"
        assert diag.severity is Severity.WARNING
        assert "str" in diag.message and "tuple" in diag.message

    def test_consistent_sorts_are_clean(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"))
        program.add_facts("r", [("a",), ("b",)])
        assert check_sorts(program) == []


# ---------------------------------------------------------------------------
# Configuration-specialized relations (DL105).
# ---------------------------------------------------------------------------


class TestConfigurations:
    def test_arity_below_context_arity_is_dl105_error(self):
        program = Program()
        # Tag "xxe" needs 3 context attributes; arity 2 can't hold them.
        program.rule(atom("pts__xxe", "V", "H"), atom("r", "V", "H"))
        (diag,) = check_configurations(program)
        assert diag.code == "DL105"
        assert diag.severity is Severity.ERROR
        assert "'pts__xxe'" in diag.message
        assert "x^2 e^1" in diag.message

    def test_fact_relation_is_checked_too(self):
        program = Program()
        program.add_facts("call__xe", [(1,)])
        (diag,) = check_configurations(program)
        assert diag.code == "DL105"
        assert diag.severity is Severity.ERROR

    def test_mixed_entity_arity_family_is_dl105_warning(self):
        program = Program()
        # pts__x has entity arity 2, pts__xe has entity arity 1: the
        # specializer never emits a base with drifting entity columns.
        program.rule(atom("pts__x", "V", "H", "C"), atom("r", "V", "H", "C"))
        program.rule(atom("pts__xe", "V", "C1", "C2"), atom("s", "V", "C1", "C2"))
        (diag,) = check_configurations(program)
        assert diag.code == "DL105"
        assert diag.severity is Severity.WARNING
        assert "pts" in diag.message
        assert "entity arity 1" in diag.message
        assert "entity arity 2" in diag.message

    def test_consistent_family_is_clean(self):
        program = Program()
        program.rule(atom("pts__x", "V", "H", "C"), atom("r", "V", "H", "C"))
        program.rule(
            atom("pts__xe", "V", "H", "C1", "C2"),
            atom("s", "V", "H", "C1", "C2"),
        )
        assert check_configurations(program) == []

    def test_wildcard_tag_counts_no_column(self):
        # "xw" pops one and matches the rest: one context attribute.
        program = Program()
        program.rule(atom("reach__xw", "M", "C"), atom("r", "M", "C"))
        assert check_configurations(program) == []

    def test_unparseable_suffix_is_skipped(self):
        program = Program()
        program.rule(atom("not__atag", "X"), atom("r", "X"))
        program.rule(atom("double__under__xe", "X"), atom("r", "X"))
        assert check_configurations(program) == []

    def test_builtin_names_are_ignored(self):
        program = Program()
        program.rule(
            atom("p", "X"), atom("r", "X"), atom("le", "X", "X")
        )
        assert check_configurations(program) == []

    def test_dl105_reaches_lint_program_report(self):
        program = Program()
        program.rule(atom("pts__xxe", "V", "H"), atom("r", "V", "H"))
        report = lint_program(program, subject="dl105")
        assert "DL105" in report.codes()
        assert not report.ok


# ---------------------------------------------------------------------------
# Stratification (DL201).
# ---------------------------------------------------------------------------


class TestStratification:
    def negative_cycle_program(self):
        program = Program()
        program.rule(atom("p", "X"), atom("n", "X"), negated("q", "X"))
        program.rule(atom("q", "X"), atom("n", "X"), negated("p", "X"))
        program.add_facts("n", [(1,)])
        return program

    def test_negative_cycle_is_dl201_with_witness(self):
        diagnostics = check_stratification(self.negative_cycle_program())
        assert codes(diagnostics) == ["DL201", "DL201"]
        assert any("p -> q -> p" in d.message or "q -> p -> q" in d.message
                   for d in diagnostics)

    def test_all_offending_edges_reported(self):
        violations = negative_cycle_edges(self.negative_cycle_program())
        assert {(v.source, v.target) for v in violations} == {
            ("q", "p"), ("p", "q"),
        }
        with pytest.raises(StratificationError) as exc:
            evaluate(self.negative_cycle_program())
        assert len(exc.value.violations) == 2
        # The message names both offending negations, not just one.
        assert "!q" in str(exc.value) and "!p" in str(exc.value)

    def test_self_negation_is_reported(self):
        program = Program()
        program.rule(atom("p", "X"), atom("n", "X"), negated("p", "X"))
        program.add_facts("n", [(1,)])
        (diag,) = check_stratification(program)
        assert diag.code == "DL201"

    def test_stratified_negation_is_clean(self):
        program = Program()
        program.rule(atom("base", "X"), atom("n", "X"))
        program.rule(atom("p", "X"), atom("n", "X"), negated("base", "X"))
        program.add_facts("n", [(1,)])
        assert check_stratification(program) == []

    def test_witness_carries_line_and_column(self):
        # Programs parsed from text: the DL201 witness names the
        # offending negation's source position in the message, and the
        # diagnostic itself anchors to the rule for JSON consumers.
        from repro.datalog.parser import parse_datalog

        program = parse_datalog(
            "n(1).\n"
            "p(X) :- n(X), !q(X).\n"
            "q(X) :- n(X), !p(X).\n",
            validate=False,
        )
        diagnostics = check_stratification(program)
        assert diagnostics and all(d.code == "DL201" for d in diagnostics)
        for diagnostic in diagnostics:
            assert diagnostic.pos is not None
            assert diagnostic.pos.line in (2, 3)
            assert "(at " in diagnostic.message


# ---------------------------------------------------------------------------
# Liveness (DL301–DL302) and the dead-rule rewrite.
# ---------------------------------------------------------------------------


class TestLiveness:
    def dead_rule_program(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"))
        program.rule(atom("p", "X"), atom("ghost", "X"))  # ghost underivable
        program.add_facts("r", [(1,)])
        return program

    def test_dead_rule_is_dl301_warning(self):
        diagnostics = check_liveness(self.dead_rule_program())
        dead = [d for d in diagnostics if d.code == "DL301"]
        assert len(dead) == 1
        assert dead[0].severity is Severity.WARNING
        assert "ghost" in dead[0].message
        assert dead[0].rule_index == 1

    def test_edb_whitelist_suppresses_dl301(self):
        diagnostics = check_liveness(self.dead_rule_program(), edb=["ghost"])
        assert "DL301" not in codes(diagnostics)

    def test_unconsumed_idb_is_dl302_note(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"))
        program.add_facts("r", [(1,)])
        (diag,) = check_liveness(program)
        assert (diag.code, diag.severity) == ("DL302", Severity.NOTE)

    def test_negation_never_makes_a_rule_dead(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"), negated("ghost", "X"))
        program.add_facts("r", [(1,)])
        assert "DL301" not in codes(check_liveness(program))

    def test_eliminate_dead_rules_preserves_results(self):
        program = self.dead_rule_program()
        optimized, removed = eliminate_dead_rules(program)
        assert len(removed) == 1
        assert removed[0].body[0].pred == "ghost"
        assert len(optimized.rules) == 1
        assert evaluate(optimized)["p"] == evaluate(program)["p"] == {(1,)}
        # The input program is untouched.
        assert len(program.rules) == 2

    def test_transitively_dead_rules_are_removed(self):
        program = Program()
        program.rule(atom("a", "X"), atom("ghost", "X"))
        program.rule(atom("b", "X"), atom("a", "X"))
        program.rule(atom("keep", "X"), atom("r", "X"))
        program.add_facts("r", [(1,)])
        optimized, removed = eliminate_dead_rules(program)
        assert len(removed) == 2
        assert [r.head.pred for r in optimized.rules] == ["keep"]


# ---------------------------------------------------------------------------
# The driver and the engines' strict mode.
# ---------------------------------------------------------------------------


class TestLintProgram:
    def test_report_aggregates_all_passes(self):
        program = unsafe_negation_program()
        program.rule(atom("p", "X", "Y"), atom("r", "X"), atom("r", "Y"))
        report = lint_program(program)
        assert "DL002" in report.codes()
        assert "DL101" in report.codes()
        assert not report.ok

    def test_pass_selection(self):
        report = lint_program(unsafe_negation_program(), passes=("schema",))
        assert report.ok
        with pytest.raises(ValueError, match="unknown lint pass"):
            lint_program(Program(), passes=("nope",))

    def test_clean_program_report(self):
        program = Program()
        program.rule(atom("path", "X", "Y"), atom("edge", "X", "Y"))
        program.rule(
            atom("path", "X", "Z"), atom("edge", "X", "Y"),
            atom("path", "Y", "Z"),
        )
        program.add_facts("edge", [(1, 2)])
        report = lint_program(program, subject="tc")
        assert report.ok
        assert report.summary() == "tc: clean"

    def test_lint_error_message_renders_diagnostics(self):
        report = lint_program(unsafe_negation_program())
        with pytest.raises(LintError, match="DL002") as exc:
            report.raise_if_errors()
        assert exc.value.report is report


class TestEngineStrictMode:
    def test_nonstrict_engine_crashes_mid_join(self):
        # The historical behaviour the analyzer front-runs: validate()
        # accepts the rule, the engine dies inside the join.
        engine = Engine(unsafe_negation_program())
        with pytest.raises(ValueError, match="unbound variable"):
            engine.run()

    def test_strict_engine_rejects_before_evaluation(self):
        with pytest.raises(LintError, match="DL002"):
            Engine(unsafe_negation_program(), strict=True)

    def test_strict_accepts_clean_program(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"), negated("q", "X"))
        program.add_facts("r", [(1,), (2,)])
        program.add_facts("q", [(1,)])
        assert evaluate(program, strict=True)["p"] == {(2,)}

    def test_compiled_engine_strict_mode(self):
        from repro.datalog.kernel import KernelEngine

        with pytest.raises(LintError, match="DL002"):
            KernelEngine(unsafe_negation_program(), strict=True)


# ---------------------------------------------------------------------------
# Parser source positions feed diagnostics.
# ---------------------------------------------------------------------------


class TestPositions:
    SOURCE = """\
% transitive closure
path(X, Y) :- edge(X, Y).
p(X) :- !q(X), r(X).
"""

    def test_rule_and_literal_positions(self):
        program = parse_datalog(self.SOURCE)
        first, second = program.rules
        assert (first.pos.line, first.pos.column) == (2, 1)
        assert first.body[0].pos.column == 15
        assert second.pos.line == 3

    def test_diagnostic_carries_position(self):
        program = parse_datalog(self.SOURCE)
        (diag,) = check_safety(program)
        assert diag.code == "DL002"
        assert (diag.pos.line, diag.pos.column) == (3, 9)
        assert "3:9" in diag.render()


# ---------------------------------------------------------------------------
# IR well-formedness (IR001–IR005).
# ---------------------------------------------------------------------------


class TestIRCheck:
    def parse(self, source):
        from repro.frontend.parser import parse_program

        return parse_program(source)

    def test_figure1_is_clean(self):
        from repro.frontend.paper_programs import FIGURE_1
        from repro.lint.ircheck import check_ir

        report = check_ir(self.parse(FIGURE_1))
        assert report.ok

    def test_undefined_variable_is_ir001(self):
        # The source parser resolves every identifier (unknown names
        # become implicit field accesses), so a dangling read can only
        # be constructed directly in the IR.
        from repro.frontend import ir
        from repro.lint.ircheck import check_ir

        program = ir.Program()
        cls = program.add_class(ir.ClassDecl("Main"))
        cls.add_method(ir.Method(
            "main", "Main", params=("Main.main/args",), is_static=True,
            body=[ir.Assign("Main.main/x", "Main.main/phantom")],
        ))
        program.main_class = "Main"
        report = check_ir(program)
        (diag,) = [d for d in report if d.code == "IR001"]
        assert "phantom" in diag.message
        assert diag.where == "Main.main"

    def test_duplicate_site_label_is_ir003(self):
        from repro.lint.ircheck import check_ir

        report = check_ir(self.parse("""
            class Main {
                public static void main(String[] args) {
                    Object a = new Object(); // dup
                    Object b = new Object(); // dup
                }
            }
        """))
        (diag,) = [d for d in report if d.code == "IR003"]
        assert "'dup'" in diag.message

    def test_undeclared_superclass_is_ir004(self):
        # parse_program() validates the hierarchy itself, so the
        # defect has to be introduced at the IR level.
        from repro.frontend import ir
        from repro.lint.ircheck import check_ir

        program = ir.Program()
        program.add_class(ir.ClassDecl("Main", superclass="Ghost"))
        report = check_ir(program)
        assert "IR004" in report.codes()

    def test_missing_main_is_ir005(self):
        from repro.lint.ircheck import check_ir

        report = check_ir(self.parse("""
            class Helper {
                Helper id(Helper x) { return x; }
            }
        """))
        severities = {d.code: d.severity for d in report}
        assert severities.get("IR005") is Severity.WARNING


# ---------------------------------------------------------------------------
# Every emitted configuration lints clean.
# ---------------------------------------------------------------------------


def _valid_configurations(max_m=2):
    out = []
    for flavour in Flavour:
        for m in range(max_m + 1):
            for h in range(max_m + 1):
                try:
                    validate_levels(flavour, m, h)
                except ValueError:
                    continue
                out.append((flavour, m, h))
    return out


class TestEmittedConfigurationsLintClean:
    @pytest.fixture(scope="class")
    def facts(self):
        from repro.frontend.factgen import generate_facts
        from repro.frontend.paper_programs import FIGURE_1
        from repro.frontend.parser import parse_program

        return generate_facts(parse_program(FIGURE_1))

    @pytest.mark.parametrize(
        "flavour,m,h",
        _valid_configurations(),
        ids=lambda v: v.value if isinstance(v, Flavour) else str(v),
    )
    def test_all_emitters_lint_clean(self, facts, flavour, m, h):
        # compile_* lint internally (raising LintError on any error
        # diagnostic), so constructing the analyses is the assertion;
        # re-linting with the full pass list must also stay error-free.
        from repro.compile.emit import (
            _INPUT_RELATIONS,
            compile_context_string_analysis,
            compile_transformer_analysis,
            compile_transformer_analysis_naive,
        )

        for compiler in (
            compile_transformer_analysis,
            compile_context_string_analysis,
            compile_transformer_analysis_naive,
        ):
            analysis = compiler(facts, flavour, m, h)
            report = lint_program(
                analysis.program,
                builtins=analysis.builtins,
                edb=_INPUT_RELATIONS,
            )
            assert report.ok, report.render(Severity.ERROR)

    def test_eliminate_dead_preserves_points_to(self, facts):
        from repro.compile.emit import compile_transformer_analysis

        analysis = compile_transformer_analysis(facts, Flavour.OBJECT, 2, 1)
        baseline = compile_transformer_analysis(
            facts, Flavour.OBJECT, 2, 1
        ).run()
        optimized = analysis.run(eliminate_dead=True)
        assert optimized.pts == baseline.pts

"""``repro lint --json`` output is pinned byte for byte.

The schema and sort passes keep where each observation came from and
format that witness only when a diagnostic quotes it.  The documents
below were written before that change; they must not move.  The
fixtures under ``lint_fixtures/`` hold a DL101 program (arity clashes
between rules, a fact rule and a builtin) and a DL102 program (one slot
class seen as ``str`` and ``int``).  The emitted program is Figure 1
at 2-object+H, pinned by digest (its document is 94 KB of DL301
warnings).
"""

import hashlib
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.datalog.ast import Program, atom
from repro.frontend.paper_programs import FIGURE_1
from repro.lint.passes import check_schema, check_sorts

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

#: sha256 of ``repro lint fig1.java --emitted --config 2-object+H
#: --json OUT`` over Figure 1.
EMITTED_FIGURE1_DIGEST = (
    "e27c9d6c6ca030663409c094c45f36587b58d89cdf706575555971607b0507f5"
)


def _lint_json(tmp_path, monkeypatch, path, *options):
    monkeypatch.chdir(tmp_path)
    main(["lint", path, "--json", "out.json", *options])
    return (tmp_path / "out.json").read_bytes()


@pytest.mark.parametrize("name", ["dl101", "dl102"])
def test_fixture_document_is_byte_identical(name, tmp_path, monkeypatch):
    shutil.copy(FIXTURES / f"{name}.dl", tmp_path / f"{name}.dl")
    produced = _lint_json(tmp_path, monkeypatch, f"{name}.dl")
    assert produced == (FIXTURES / f"{name}.lint.json").read_bytes()


def test_emitted_program_document_is_byte_identical(tmp_path, monkeypatch):
    (tmp_path / "fig1.java").write_text(FIGURE_1)
    produced = _lint_json(
        tmp_path, monkeypatch, "fig1.java", "--emitted",
        "--config", "2-object+H",
    )
    assert hashlib.sha256(produced).hexdigest() == EMITTED_FIGURE1_DIGEST


class TestFactWitnesses:
    def test_fact_against_rule_is_dl101(self):
        program = Program()
        program.rule(atom("q", "X"), atom("r", "X"))
        program.add_facts("r", [(1, 2)])
        assert [d.message for d in check_schema(program)] == [
            "predicate 'r' used with arity 2 in fact r(1, 2), but with"
            " arity 1 in q(X) :- r(X)."
        ]

    def test_fact_against_fact_is_dl101(self):
        program = Program()
        program.rule(atom("q", "X"), atom("r", "X"))
        program.add_facts("s", [(1,)])
        program.add_facts("s", [(1, 2)])
        assert [d.message for d in check_schema(program)] == [
            "predicate 's' used with arity 2 in fact s(1, 2), but with"
            " arity 1 in fact s(1,)"
        ]

    def test_fact_sorts_are_dl102(self):
        program = Program()
        program.rule(atom("p", "X"), atom("r", "X"))
        program.rule(atom("p", "X"), atom("s", "X"))
        program.add_facts("r", [("a",)])
        program.add_facts("s", [(("ctx", "ctx"),)])
        assert [d.message for d in check_sorts(program)] == [
            "attribute slot class {p[0], r[0], s[0]} is used with"
            " conflicting sorts: str from fact r('a',); tuple from fact"
            " s(('ctx', 'ctx'),)"
        ]

    def test_fact_against_rule_constant_is_dl102(self):
        program = Program()
        program.rule(atom("p", "X", "c"), atom("r", "X"))
        program.add_facts("r", [(1,)])
        program.add_facts("p", [(2, 3)])
        assert [d.message for d in check_sorts(program)] == [
            "attribute slot class {p[1]} is used with conflicting sorts:"
            ' int from fact p(2, 3); str from constant "c" in rule #0'
        ]

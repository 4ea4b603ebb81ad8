"""Tests for the kernel compiler (`repro.compile.kernels`).

Covers the lowering contract in isolation: configuration-aware column
layouts, variant enumeration (one full kernel plus one per positive
IDB body position), the interning precondition, and the behaviour of
instantiated kernel functions on hand-built columnar storage.
"""

import pytest

from repro.compile.kernels import (
    KernelCompilationError,
    compile_kernels,
    relation_layout,
)
from repro.datalog.ast import Const, Literal, Program, Rule, Var
from repro.datalog.parser import parse_datalog
from repro.store import ColumnarStore, Interner


def interned(source: str):
    interner = Interner()
    from repro.datalog.kernel import intern_program

    return intern_program(parse_datalog(source), interner), interner


def bind_storage(kernels, store):
    ordered = sorted(kernels.pred_ids, key=kernels.pred_ids.get)
    relations = {
        pred: store.relation(pred, kernels.arity_of(pred))
        for pred in ordered
    }
    db = [relations[pred].rows for pred in ordered]
    idx = [None] * len(kernels.index_ids)
    for (pred, positions), slot in kernels.index_ids.items():
        idx[slot] = relations[pred].index_view(positions)
    cols = [None] * len(kernels.column_ids)
    for (pred, position), slot in kernels.column_ids.items():
        cols[slot] = relations[pred].columns[position]
    return relations, cols, db, idx


class TestRelationLayout:
    def test_configuration_suffix_splits_columns(self):
        layout = relation_layout("pts__xxe", 5)
        assert layout["base"] == "pts"
        assert layout["tag"] == "xxe"
        assert layout["context_arity"] == 3
        assert layout["entity_arity"] == 2

    def test_wildcard_tag(self):
        layout = relation_layout("call__xw", 4)
        assert layout["context_arity"] == 1  # w matches, adds no column
        assert layout["entity_arity"] == 3

    def test_plain_name_is_all_entity(self):
        layout = relation_layout("assign", 2)
        assert layout["base"] is None
        assert layout["entity_arity"] == 2

    def test_unparseable_tag_is_all_entity(self):
        layout = relation_layout("not__atag", 2)
        assert layout["base"] is None
        assert layout["context_arity"] == 0

    def test_kernel_program_layout_covers_all_predicates(self):
        program, _ = interned(
            "p__xe(V, C1, C2) :- e(V, C1, C2).\n"
        )
        kernels = compile_kernels(program)
        layouts = {entry["relation"]: entry for entry in kernels.layout()}
        assert set(layouts) == {"p__xe", "e"}
        assert layouts["p__xe"]["context_arity"] == 2


class TestVariantEnumeration:
    def test_one_full_plus_one_per_idb_position(self):
        program, _ = interned(
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Z) :- p(X, Y), p(Y, Z).\n"
        )
        kernels = compile_kernels(program)
        by_rule = {}
        for variant in kernels.variants:
            by_rule.setdefault(variant.rule_index, []).append(variant)
        # Rule 0: e is EDB-only, so just the full variant.
        assert [v.delta_position for v in by_rule[0]] == [None]
        # Rule 1: full + delta at both recursive positions.
        assert [v.delta_position for v in by_rule[1]] == [None, 0, 1]
        assert all(v.head == "p" for v in kernels.variants)
        assert kernels.variants_by_key[(1, 1)].delta_pred == "p"

    def test_negated_and_builtin_literals_get_no_delta_variant(self):
        program, _ = interned(
            "q(X) :- e(X).\n"
            "p(X) :- e(X), !q(X), le(X, X).\n"
        )
        kernels = compile_kernels(program)
        positions = [
            v.delta_position for v in kernels.variants if v.rule_index == 1
        ]
        assert positions == [None]

    def test_fact_rules_are_skipped(self):
        program, _ = interned("p(1).\nq(X) :- p(X).\n")
        kernels = compile_kernels(program)
        assert {v.rule_index for v in kernels.variants} == {1}

    def test_uninterned_constants_are_rejected(self):
        program = Program()
        program.rules.append(
            Rule(
                Literal("p", (Var("X"),)),
                (Literal("e", (Var("X"), Const("heap"))),),
            )
        )
        with pytest.raises(KernelCompilationError):
            compile_kernels(program)


class TestInstantiatedKernels:
    def test_join_kernel_produces_head_rows(self):
        program, interner = interned(
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
        )
        kernels = compile_kernels(program)
        functions = kernels.instantiate(None, interner)
        store = ColumnarStore(interner)
        relations, cols, db, idx = bind_storage(kernels, store)
        a, b, c = (interner.intern(v) for v in "abc")
        relations["edge"].load((a, b))
        relations["edge"].load((b, c))
        relations["path"].load((b, c))

        out = []
        full = kernels.variants_by_key[(1, None)]
        functions[full.name](cols, db, idx, (), out)
        assert set(out) == {(a, c)}

    def test_delta_variant_scans_only_the_frontier(self):
        program, interner = interned(
            "p(X, Z) :- e(X, Y), p(Y, Z).\n"
        )
        kernels = compile_kernels(program)
        functions = kernels.instantiate(None, interner)
        store = ColumnarStore(interner)
        relations, cols, db, idx = bind_storage(kernels, store)
        sym = {v: interner.intern(v) for v in "abcd"}
        relations["e"].load((sym["a"], sym["b"]))
        relations["e"].load((sym["b"], sym["c"]))
        p = relations["p"]
        p.add((sym["b"], sym["d"]))
        frontier = p.promote()  # (b, d) is the frontier
        p.add((sym["c"], sym["d"]))  # pending: not visible to delta scan

        out = []
        variant = kernels.variants_by_key[(0, 1)]
        functions[variant.name](cols, db, idx, frontier, out)
        assert set(out) == {(sym["a"], sym["d"])}

    def test_builtin_kernel_crosses_the_interner_boundary(self):
        program, interner = interned(
            "big(X) :- n(X), le(3, X).\n"
        )
        kernels = compile_kernels(program)
        functions = kernels.instantiate(None, interner)
        store = ColumnarStore(interner)
        relations, cols, db, idx = bind_storage(kernels, store)
        for value in (1, 5):
            relations["n"].load((interner.intern(value),))

        out = []
        variant = kernels.variants_by_key[(0, None)]
        functions[variant.name](cols, db, idx, (), out)
        assert {interner.decode_row(row) for row in out} == {(5,)}

    def test_builtins_without_interner_rejected_at_instantiate(self):
        program, interner = interned("p(X) :- n(X), le(X, 9).\n")
        kernels = compile_kernels(program)
        with pytest.raises(KernelCompilationError, match="interner"):
            kernels.instantiate(None, None)

    def test_source_is_pure_python_functions(self):
        program, _ = interned("p(X) :- e(X).\n")
        kernels = compile_kernels(program)
        assert kernels.source.startswith("def _k0_v0(")
        assert "TransformerString" not in kernels.source

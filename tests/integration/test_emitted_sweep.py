"""The emitted-analysis acceptance sweep.

Every emitted analysis of the full grid — both paper programs
(Figure 1, Figure 5), both abstractions (transformer-string and
context-string) and the eight paper configurations — is held to the
invariants of each layer that consumes it:

* the interpreting backend is bit-identical to the worklist solver
  (the kernel backend's sweep lives in ``tests/datalog/test_kernel.py``);
* dead-rule elimination never changes a result;
* the kernel compiler emits exactly one full variant plus one delta
  variant per positive IDB body literal for every non-fact rule;
* the cost plan covers every non-fact rule with a legal permutation
  and its document verifies;
* every relation of a kernel run's columnar store survives the
  snapshot payload round trip into both store layouts.
"""

from functools import lru_cache

import pytest

from repro import analyze
from repro.compile.emit import (
    compile_context_string_analysis,
    compile_transformer_analysis,
)
from repro.compile.kernels import compile_kernels
from repro.core.config import config_by_name
from repro.datalog.builtins import DEFAULT_BUILTINS
from repro.datalog.cost import analyze_cost, verify_cost_plan
from repro.datalog.kernel import KernelEngine, intern_program
from repro.frontend.factgen import facts_from_source
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5
from repro.lint.passes import eliminate_dead_rules
from repro.store import (
    Interner,
    columnar_relation_from_payload,
    columnar_relation_to_payload,
    relation_from_payload,
)

CONFIGURATIONS = (
    "1-call", "1-call+H", "2-call", "2-call+H",
    "1-object", "2-object+H", "1-type", "2-type+H",
)

ABSTRACTIONS = {
    "ts": ("transformer-string", compile_transformer_analysis),
    "cs": ("context-string", compile_context_string_analysis),
}

SOURCES = {"fig1": FIGURE_1, "fig5": FIGURE_5}

RELATIONS = ("pts", "hpts", "call", "reach", "spts", "texc")

grid = pytest.mark.parametrize(
    "source,abstraction,name",
    [
        (source, abstraction, name)
        for source in SOURCES
        for abstraction in ABSTRACTIONS
        for name in CONFIGURATIONS
    ],
)


@lru_cache(maxsize=None)
def _facts(source):
    return facts_from_source(SOURCES[source])


@lru_cache(maxsize=None)
def _config(abstraction, name):
    return config_by_name(name, ABSTRACTIONS[abstraction][0])


@lru_cache(maxsize=None)
def _compiled(source, abstraction, name):
    config = _config(abstraction, name)
    compiler = ABSTRACTIONS[abstraction][1]
    return compiler(_facts(source), config.flavour, config.m, config.h)


@lru_cache(maxsize=None)
def _solver(source, abstraction, name):
    return analyze(_facts(source), _config(abstraction, name))


def _builtin_names(compiled):
    return set(DEFAULT_BUILTINS) | set(compiled.builtins or {})


def _assert_matches_solver(result, source, abstraction, name):
    solver = _solver(source, abstraction, name)
    for relation in RELATIONS:
        assert getattr(result, relation) == getattr(solver, relation), (
            source, abstraction, name, relation,
        )


@grid
@pytest.mark.parametrize("backend", ["interpreted"])
def test_backend_matches_worklist_solver(backend, source, abstraction, name):
    result = _compiled(source, abstraction, name).run(backend=backend)
    _assert_matches_solver(result, source, abstraction, name)


@grid
def test_dead_rule_elimination_is_invisible(source, abstraction, name):
    compiled = _compiled(source, abstraction, name)
    kept, removed = eliminate_dead_rules(compiled.program, compiled.builtins)
    assert len(kept.rules) + len(removed) == len(compiled.program.rules)
    assert all(rule in compiled.program.rules for rule in kept.rules)
    result = compiled.run(backend="kernel", eliminate_dead=True)
    _assert_matches_solver(result, source, abstraction, name)


@grid
def test_kernels_cover_every_rule(source, abstraction, name):
    compiled = _compiled(source, abstraction, name)
    builtin_names = _builtin_names(compiled)
    program = intern_program(compiled.program, Interner())
    kernels = compile_kernels(program, builtins=compiled.builtins)
    idb = program.idb_predicates()

    by_rule = {}
    for variant in kernels.variants:
        by_rule.setdefault(variant.rule_index, []).append(variant)
    assert set(by_rule) == {
        index for index, rule in enumerate(program.rules)
        if not rule.is_fact()
    }
    for index, variants in by_rule.items():
        rule = program.rules[index]
        expected = [None] + [
            position for position, literal in enumerate(rule.body)
            if not literal.negated and literal.pred not in builtin_names
            and literal.pred in idb
        ]
        assert [v.delta_position for v in variants] == expected, index
        assert {v.head for v in variants} == {rule.head.pred}
        for variant in variants[1:]:
            assert variant.delta_pred == rule.body[variant.delta_position].pred

    names = [variant.name for variant in kernels.variants]
    assert len(set(names)) == len(names)
    for rule in program.rules:
        for literal in (rule.head, *rule.body):
            if literal.pred not in builtin_names:
                assert kernels.arity_of(literal.pred) == literal.arity
    assert set(kernels.pred_ids) == set(kernels.pred_arities)
    slots = sorted(kernels.pred_ids.values())
    assert slots == list(range(len(kernels.pred_ids)))


@grid
def test_cost_plan_is_legal_and_self_verifying(source, abstraction, name):
    compiled = _compiled(source, abstraction, name)
    program = compiled.program
    plan = analyze_cost(program, builtins=compiled.builtins)

    assert [entry.rule_index for entry in plan.rules] == [
        index for index, rule in enumerate(program.rules)
        if not rule.is_fact()
    ]
    for entry in plan.rules:
        body = program.rules[entry.rule_index].body
        assert sorted(entry.order) == list(range(len(body))), entry.rule_index
        assert entry.head == program.rules[entry.rule_index].head.pred

    ordered = plan.apply()
    assert len(ordered.rules) == len(program.rules)
    for before, after in zip(program.rules, ordered.rules):
        assert after.head == before.head
        assert sorted(map(repr, after.body)) == sorted(map(repr, before.body))

    summary = verify_cost_plan(plan.to_json())
    assert summary["rules"] == len(plan.rules)
    assert summary["reordered"] == plan.reordered_count()
    assert summary["digest"] == plan.digest()
    rerun = analyze_cost(program, builtins=compiled.builtins)
    assert rerun.digest() == plan.digest()


@grid
def test_kernel_store_round_trips_through_payloads(source, abstraction, name):
    compiled = _compiled(source, abstraction, name)
    engine = KernelEngine(compiled.program, compiled.builtins)
    result = engine.run()
    relations = engine.store.relations()
    assert set(result) <= set(relations)

    shared = Interner()
    for pred, relation in sorted(relations.items()):
        expected = engine.query(pred)
        assert expected == result.get(pred, set()), pred
        payload = columnar_relation_to_payload(
            relation, shared, run_interner=engine.interner
        )
        assert payload["rows"] == sorted(payload["rows"]), pred
        fresh = Interner()
        columnar = columnar_relation_from_payload(
            payload, shared, run_interner=fresh
        )
        assert {fresh.decode_row(row) for row in columnar.rows} == expected
        assert relation_from_payload(payload, shared).rows == expected

"""Emission of plain Datalog programs for both abstractions.

This is the paper's front-end (Section 8: "The front-end performs the
instantiation of the base deduction rules … The output of the front-end
is a plain Datalog program"), targeting our engine instead of LLVM:

* :func:`compile_transformer_analysis` — the configuration-specialized
  transformer-string program of Section 7 (pure Datalog, no builtins);
* :func:`compile_context_string_analysis` — the context-string program,
  equivalent to Doop's rules, with contexts packed into single
  attributes and the ``record``/``merge``/``merge_s`` constructors
  provided as functional builtins (LogicBlox-style);
* :func:`compile_transformer_analysis_naive` — the *naive* transformer
  instantiation the paper warns against (Section 7): derived relations
  keep a single packed transformer-string attribute and ``comp`` is a
  procedural builtin, so joins lose the context attributes.  Used by the
  indexing ablation benchmark.

Every compiled analysis decodes its engine results back into the same
``(entity…, TransformerString | pair)`` fact tuples the worklist solver
produces, so the two execution paths can be compared fact-for-fact.

An emitter's rules depend on (flavour, m, h) alone, so each rule set
is built and linted once per process (:func:`_rule_set`); only the
entry fact, the input facts and the lint passes that read facts are
per program.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Set, Tuple

from repro.compile.configurations import decode as decode_transformer
from repro.compile.specialize import TransformerSpecializer
from repro.core import sensitivity as sens
from repro.core import transformer_strings as ts
from repro.core.contexts import ENTRY_CONTEXT, prefix
from repro.core.sensitivity import Flavour
from repro.datalog.ast import Const, Literal, Program, Rule
from repro.datalog.builtins import BuiltinFn, function_builtin
from repro.datalog.engine import Engine
from repro.frontend.factgen import FactSet

#: Input relations shared by all instantiations.
_INPUT_RELATIONS = (
    "actual", "assign", "assign_new", "assign_return", "formal",
    "heap_type", "implements", "load", "return_var", "static_invoke",
    "store", "this_var", "virtual_invoke",
    "static_store", "static_load", "throw_var", "catch_var",
)


@dataclass
class CompiledAnalysis:
    """A plain Datalog program plus decoding back to solver-style facts."""

    program: Program
    builtins: Dict[str, BuiltinFn]
    decoder: Callable[[Dict[str, Set[Tuple]]], Dict[str, Set[Tuple]]]
    description: str

    def run(
        self, backend: str = "interpreted", eliminate_dead: bool = False,
        cost_order: bool = False,
    ) -> "CompiledResult":
        """Evaluate the program.

        ``backend`` selects the Datalog engine: ``"interpreted"`` (the
        semi-naive interpreter) or ``"kernel"`` (fused integer kernels
        over the columnar store of an interned program — the analogue
        of the paper's LLVM back-end, :mod:`repro.compile.kernels`).

        ``eliminate_dead=True`` first drops rules that can never fire
        against the installed fact set (the configuration cross-product
        emits many — e.g. rules consuming a ``call__xx`` shape no rule
        of this flavour ever derives), shrinking the rule set the
        semi-naive loop re-evaluates each round.  Results are identical
        by construction (tested).  The kernel backend always does this
        itself, but only with ``eliminate_dead=True`` do the dead rules'
        heads drop out of the raw results.

        ``cost_order=True`` evaluates the cost-chosen body orders of
        :mod:`repro.datalog.cost` instead of the emitted source order —
        also bit-identical by construction (tested across the full
        configuration sweep).
        """
        program = self.program
        if eliminate_dead:
            from repro.datalog.lint import eliminate_dead_rules

            program, _ = eliminate_dead_rules(program, self.builtins)
        if backend == "interpreted":
            engine = Engine(program, self.builtins, cost_order=cost_order)
        elif backend == "kernel":
            from repro.datalog.kernel import KernelEngine

            engine = KernelEngine(
                program, self.builtins, cost_order=cost_order
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")
        raw = engine.run()
        return CompiledResult(self.decoder(raw), engine)


@dataclass
class CompiledResult:
    """Decoded relations plus the engine that produced them."""

    relations: Dict[str, Set[Tuple]]
    engine: Engine

    @property
    def pts(self) -> Set[Tuple]:
        return self.relations.get("pts", set())

    @property
    def hpts(self) -> Set[Tuple]:
        return self.relations.get("hpts", set())

    @property
    def call(self) -> Set[Tuple]:
        return self.relations.get("call", set())

    @property
    def reach(self) -> Set[Tuple]:
        return self.relations.get("reach", set())

    @property
    def spts(self) -> Set[Tuple]:
        return self.relations.get("spts", set())

    @property
    def texc(self) -> Set[Tuple]:
        return self.relations.get("texc", set())

    def pts_ci(self) -> Set[Tuple]:
        return {(y, h) for (y, h, _) in self.pts}

    def call_graph(self) -> Set[Tuple]:
        return {(i, p) for (i, p, _) in self.call}


def _install_input_facts(program: Program, facts: FactSet) -> None:
    for name in _INPUT_RELATIONS:
        rows = getattr(facts, name)
        if rows:
            program.add_facts(name, rows)
    if facts.class_of:
        program.add_facts("class_of", facts.class_of.items())
    if facts.invocation_parent:
        program.add_facts("invocation_parent", facts.invocation_parent.items())


#: Emitted rule sets one process keeps: one per (emitter, flavour, m, h).
RULE_SET_CACHE_SIZE = 32

#: The lint passes every emission runs, in report order.  Those in
#: :data:`_RULE_PASSES` read rules alone and run once per rule set; the
#: others read the installed facts too and run on every program.
_EMIT_PASSES = (
    "safety", "schema", "configurations", "sorts", "stratification",
)
_RULE_PASSES = ("safety", "sorts", "stratification")


@dataclass(frozen=True)
class _RuleSet:
    """One emitter's rules at one (flavour, m, h), and what the
    :data:`_RULE_PASSES` found in them, as (pass name, diagnostics)
    pairs."""

    rules: Tuple[Rule, ...]
    findings: Tuple[Tuple[str, Tuple], ...]


@functools.lru_cache(maxsize=RULE_SET_CACHE_SIZE)
def _rule_set(emit_rules: Callable, flavour: Flavour, m: int, h: int
              ) -> _RuleSet:
    """The rules ``emit_rules(flavour, m, h)`` returns, linted, built
    once per process.  ``emit_rules`` also returns the builtins whose
    signatures the lint checks the rules against; neither depends on a
    program, so the entry serves every program emitted at (flavour, m,
    h).  Rules are immutable; callers copy the tuple into their own
    list."""
    from repro.datalog.lint import lint_program

    rules, builtins = emit_rules(flavour, m, h)
    program = Program(rules=list(rules))
    findings = tuple(
        (name, tuple(lint_program(program, builtins=builtins,
                                  passes=(name,))))
        for name in _RULE_PASSES
    )
    return _RuleSet(tuple(rules), findings)


def _lint_emitted(
    analysis: "CompiledAnalysis", rule_set: _RuleSet
) -> "CompiledAnalysis":
    """Statically verify an emitted configuration before returning it.

    Every instantiation path runs through here, so a specialization bug
    (unsafe rule, arity clash, mis-typed attribute) is a coded
    :class:`repro.datalog.lint.LintError` at emission time rather than
    a crash — or a silently wrong points-to set — during evaluation.
    Error diagnostics only; warnings (e.g. rules dead under this
    particular fact set) are expected and left to ``repro lint``.

    The rule-only passes' findings come from ``rule_set``: the entry
    fact a program adds is ground, so it can make no safety or
    stratification error (and sorts only ever warn).
    """
    from repro.datalog.lint import LintReport, lint_program

    findings = dict(rule_set.findings)
    report = LintReport(subject=analysis.description)
    for name in _EMIT_PASSES:
        if name in findings:
            report.extend(findings[name])
        else:
            report.extend(lint_program(
                analysis.program, builtins=analysis.builtins, passes=(name,)
            ))
    report.raise_if_errors()
    return analysis


# ---------------------------------------------------------------------------
# Transformer strings, configuration-specialized (the Section 7 technique).
# ---------------------------------------------------------------------------

def _transformer_rules(flavour: Flavour, m: int, h: int):
    return TransformerSpecializer(flavour, m, h).rules(), {}


def compile_transformer_analysis(
    facts: FactSet, flavour: Flavour, m: int, h: int
) -> CompiledAnalysis:
    """The specialized transformer-string instantiation: pure Datalog."""
    rule_set = _rule_set(_transformer_rules, flavour, m, h)
    program = Program(rules=list(rule_set.rules))
    if facts.main_method is None:
        raise ValueError("fact set has no main method")
    program.rules.append(
        TransformerSpecializer(flavour, m, h).entry_fact(facts.main_method)
    )
    _install_input_facts(program, facts)

    def decoder(raw: Dict[str, Set[Tuple]]) -> Dict[str, Set[Tuple]]:
        out: Dict[str, Set[Tuple]] = {
            "pts": set(), "hpts": set(), "hload": set(), "call": set(),
            "reach": set(), "spts": set(), "texc": set(),
        }
        entity_arity = {
            "pts": 2, "hpts": 3, "hload": 3, "call": 2, "spts": 2, "texc": 2,
        }
        for pred, rows in raw.items():
            if pred.startswith("reach_"):
                out["reach"].update((row[0], tuple(row[1:])) for row in rows)
                continue
            base, _, tag = pred.partition("__")
            if base not in entity_arity or not pred.startswith(f"{base}__"):
                continue
            arity = entity_arity[base]
            for row in rows:
                out[base].add(
                    row[:arity] + (decode_transformer(tag, row[arity:]),)
                )
        return out

    return _lint_emitted(CompiledAnalysis(
        program=program,
        builtins={},
        decoder=decoder,
        description=f"{m}-{flavour.value}+{h}H/transformer-string/specialized",
    ), rule_set)


# ---------------------------------------------------------------------------
# Context strings (the Doop-equivalent program, builtin constructors).
# ---------------------------------------------------------------------------

_CS_RULES = """
pts(Y, H, U, V)      :- pts(Z, H, U, V), assign(Z, Y).
hload(G, F, Z, U, V) :- pts(Y, G, U, V), load(Y, F, Z).
hpts(G, F, H, U, W)  :- pts(X, H, U, V), store(X, F, Z), pts(Z, G, W, V).
pts(Y, H, U, W)      :- hpts(G, F, H, U, V), hload(G, F, Y, V, W).
pts(Y, H, U, W)      :- pts(Z, H, U, V), actual(Z, I, O), call(I, P, V, W),
                        formal(Y, P, O).
pts(Y, H, U, W)      :- pts(Z, H, U, V), return_var(Z, P), call(I, P, W, V),
                        assign_return(I, Y).
pts(Y, H, HC, M)     :- assign_new(H, Y, P), reach(P, M), record_cs(M, HC).
call(I, Q, V, W)     :- virtual_invoke(I, Z, S), pts(Z, H, U, V),
                        heap_type(H, T), implements(Q, T, S),
                        merge_cs(H, I, U, V, W).
pts(Y, H, U, W)      :- virtual_invoke(I, Z, S), pts(Z, H, U, V),
                        heap_type(H, T), implements(Q, T, S),
                        merge_cs(H, I, U, V, W), this_var(Y, Q).
call(I, Q, M, W)     :- static_invoke(I, Q, P), reach(P, M),
                        merge_s_cs(I, M, W).
reach(P, W)          :- call(I, P, V, W).
spts(F, H, U)        :- pts(X, H, U, V), static_store(X, F).
pts(Y, H, U, M)      :- static_load(F, Y, P), reach(P, M), spts(F, H, U).
texc(P, H, U, V)     :- pts(Z, H, U, V), throw_var(Z, P).
texc(P2, H, U, W)    :- texc(Q, H, U, V), call(I, Q, W, V),
                        invocation_parent(I, P2).
pts(Y, H, U, V)      :- texc(P, H, U, V), catch_var(Y, P).
"""


def _context_string_builtins(
    flavour: Flavour, m: int, h: int, class_of
) -> Dict[str, BuiltinFn]:
    return {
        "record_cs": function_builtin(
            "record_cs", lambda m_ctx: (prefix(m_ctx, h),), out_positions=(1,)
        ),
        "merge_cs": function_builtin(
            "merge_cs",
            lambda heap, inv, heap_ctx, m_ctx: (
                sens.merge_cs(
                    flavour, heap, inv, (heap_ctx, m_ctx), m, class_of
                )[1],
            ),
            out_positions=(4,),
        ),
        "merge_s_cs": function_builtin(
            "merge_s_cs",
            lambda inv, m_ctx: (
                sens.merge_s_cs(flavour, inv, m_ctx, m)[1],
            ),
            out_positions=(2,),
        ),
    }


def _context_string_rules(flavour: Flavour, m: int, h: int):
    from repro.datalog.parser import parse_datalog

    return (
        parse_datalog(_CS_RULES).rules,
        _context_string_builtins(flavour, m, h, class_of=None),
    )


def compile_context_string_analysis(
    facts: FactSet, flavour: Flavour, m: int, h: int
) -> CompiledAnalysis:
    """The context-string instantiation (paper Section 7's first half).

    Inlining ``comp``/``inv`` into the rules and unifying variables
    yields "the familiar rule[s] … found in the Doop framework"; the
    flavour-specific constructors are builtins over packed context
    tuples.
    """
    sens.validate_levels(flavour, m, h)
    rule_set = _rule_set(_context_string_rules, flavour, m, h)
    program = Program(rules=list(rule_set.rules))
    if facts.main_method is None:
        raise ValueError("fact set has no main method")
    entry = prefix(ENTRY_CONTEXT, m)
    program.rules.append(
        Rule(Literal("reach", (Const(facts.main_method), Const(entry))))
    )
    _install_input_facts(program, facts)
    builtins = _context_string_builtins(flavour, m, h, facts.class_of_heap)

    def decoder(raw: Dict[str, Set[Tuple]]) -> Dict[str, Set[Tuple]]:
        return {
            "pts": {
                (y, h_, (u, v)) for (y, h_, u, v) in raw.get("pts", set())
            },
            "hpts": {
                (g, f, h_, (u, v))
                for (g, f, h_, u, v) in raw.get("hpts", set())
            },
            "hload": {
                (g, f, y, (u, v))
                for (g, f, y, u, v) in raw.get("hload", set())
            },
            "call": {
                (i, p, (u, v)) for (i, p, u, v) in raw.get("call", set())
            },
            "reach": set(raw.get("reach", set())),
            "spts": {
                (f, h_, (u, ())) for (f, h_, u) in raw.get("spts", set())
            },
            "texc": {
                (p, h_, (u, v)) for (p, h_, u, v) in raw.get("texc", set())
            },
        }

    return _lint_emitted(CompiledAnalysis(
        program=program,
        builtins=builtins,
        decoder=decoder,
        description=f"{m}-{flavour.value}+{h}H/context-string",
    ), rule_set)


# ---------------------------------------------------------------------------
# The naive transformer instantiation (Section 7's cautionary example).
# ---------------------------------------------------------------------------

_NAIVE_RULES = """
pts(Y, H, A)      :- pts(Z, H, A), assign(Z, Y).
hload(G, F, Z, A) :- pts(Y, G, A), load(Y, F, Z).
hpts(G, F, H, A)  :- pts(X, H, B), store(X, F, Z), pts(Z, G, C),
                     inv_t(C, CI), comp_hh(B, CI, A).
pts(Y, H, A)      :- hpts(G, F, H, B), hload(G, F, Y, C), comp_hm(B, C, A).
pts(Y, H, A)      :- pts(Z, H, B), actual(Z, I, O), call(I, P, C),
                     formal(Y, P, O), comp_hm(B, C, A).
pts(Y, H, A)      :- pts(Z, H, B), return_var(Z, P), call(I, P, C),
                     assign_return(I, Y), inv_t(C, CI), comp_hm(B, CI, A).
pts(Y, H, A)      :- assign_new(H, Y, P), reach(P, M), record_t(M, A).
spts(F, H, A2)    :- pts(X, H, A), static_store(X, F), to_global_t(A, A2).
pts(Y, H, A2)     :- static_load(F, Y, P), reach(P, M), spts(F, H, A),
                     from_global_t(A, M, A2).
texc(P, H, A)     :- pts(Z, H, A), throw_var(Z, P).
texc(P2, H, A)    :- texc(Q, H, B), call(I, Q, C), inv_t(C, CI),
                     comp_hm(B, CI, A), invocation_parent(I, P2).
pts(Y, H, A)      :- texc(P, H, A), catch_var(Y, P).
call(I, Q, C)     :- virtual_invoke(I, Z, S), pts(Z, H, B), heap_type(H, T),
                     implements(Q, T, S), merge_t(H, I, B, C).
pts(Y, H, A)      :- virtual_invoke(I, Z, S), pts(Z, H, B), heap_type(H, T),
                     implements(Q, T, S), merge_t(H, I, B, C),
                     comp_hm(B, C, A), this_var(Y, Q).
call(I, Q, C)     :- static_invoke(I, Q, P), reach(P, M), merge_s_t(I, M, C).
reach(P, M)       :- call(I, P, C), target_t(C, M).
"""


def _naive_builtins(
    flavour: Flavour, m: int, h: int, class_of
) -> Dict[str, BuiltinFn]:
    def comp(i, j):
        return lambda b, c: _maybe(ts.compose_trunc(b, c, i, j))

    def _maybe(value):
        return None if value is None else (value,)

    return {
        "comp_hh": function_builtin("comp_hh", comp(h, h), out_positions=(2,)),
        "comp_hm": function_builtin("comp_hm", comp(h, m), out_positions=(2,)),
        "inv_t": function_builtin(
            "inv_t", lambda t: (ts.inverse(t),), out_positions=(1,)
        ),
        "record_t": function_builtin(
            "record_t", lambda m_ctx: (sens.record_ts(m_ctx, h),),
            out_positions=(1,),
        ),
        "merge_t": function_builtin(
            "merge_t",
            lambda heap, inv, receiver: _maybe(
                sens.merge_ts(flavour, heap, inv, receiver, m, class_of)
            ),
            out_positions=(3,),
        ),
        "merge_s_t": function_builtin(
            "merge_s_t",
            lambda inv, m_ctx: (sens.merge_s_ts(flavour, inv, m_ctx, m),),
            out_positions=(2,),
        ),
        "target_t": function_builtin(
            "target_t", lambda t: (t.pushes,), out_positions=(1,)
        ),
        "to_global_t": function_builtin(
            "to_global_t", lambda t: (ts.trunc(t, h, 0),), out_positions=(1,)
        ),
        "from_global_t": function_builtin(
            "from_global_t",
            lambda t, m_ctx: (
                ts.TransformerString(t.pops, True, ()),
            ),
            out_positions=(2,),
        ),
    }


def _naive_rules(flavour: Flavour, m: int, h: int):
    from repro.datalog.parser import parse_datalog

    return (
        parse_datalog(_NAIVE_RULES).rules,
        _naive_builtins(flavour, m, h, class_of=None),
    )


def compile_transformer_analysis_naive(
    facts: FactSet, flavour: Flavour, m: int, h: int
) -> CompiledAnalysis:
    """The naive (unspecialized) transformer-string program.

    Transformer strings stay packed in a single attribute and ``comp``
    is a procedural builtin — "the performance of such an implementation
    is significantly slower than a context string instantiation"
    (Section 7).  Kept as the baseline for the indexing ablation.
    """
    sens.validate_levels(flavour, m, h)
    rule_set = _rule_set(_naive_rules, flavour, m, h)
    program = Program(rules=list(rule_set.rules))
    if facts.main_method is None:
        raise ValueError("fact set has no main method")
    entry = prefix(ENTRY_CONTEXT, m)
    program.rules.append(
        Rule(Literal("reach", (Const(facts.main_method), Const(entry))))
    )
    _install_input_facts(program, facts)
    builtins = _naive_builtins(flavour, m, h, facts.class_of_heap)

    def decoder(raw: Dict[str, Set[Tuple]]) -> Dict[str, Set[Tuple]]:
        return {
            name: set(raw.get(name, set()))
            for name in (
                "pts", "hpts", "hload", "call", "reach", "spts", "texc",
            )
        }

    return _lint_emitted(CompiledAnalysis(
        program=program,
        builtins=builtins,
        decoder=decoder,
        description=f"{m}-{flavour.value}+{h}H/transformer-string/naive",
    ), rule_set)

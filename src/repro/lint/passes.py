"""The multi-pass semantic analyzer over Datalog programs.

Every pass maps a :class:`repro.datalog.ast.Program` to a list of
:class:`repro.lint.diagnostics.Diagnostic`; :func:`lint_program` runs
them all and returns the combined :class:`LintReport`.

The passes mirror what the evaluation engines actually require, so an
error-free report guarantees the engine will not fail mid-evaluation
for a rule-level reason:

* **safety / range restriction** (``DL001``–``DL004``) — every head
  variable bound by a positive body literal, and negated/builtin
  literals fully bound *given the engine's left-to-right join order*
  (the classical set-based check in :meth:`Rule.validate` accepts
  ``p(X) :- !q(X), r(X).`` which then crashes the engine mid-join;
  ``DL002`` rejects it up front and suggests the reorder);
* **schema** (``DL101``–``DL103``) — consistent predicate arities
  across rules, facts, and builtin signatures, and no predicate that is
  simultaneously a builtin and a stored relation;
* **sort inference** (``DL102``) — attribute sorts unified across all
  uses by a union-find over ``(predicate, column)`` slots, catching
  e.g. a packed context tuple flowing into a flattened string column
  (the signature failure mode of a mis-specialized configuration from
  :mod:`repro.compile.specialize`);
* **configurations** (``DL105``) — configuration-specialized relation
  names (a ``pts__xwe``-style suffix whose tag parses as the paper's
  ``x^a w? e^b`` shape) whose declared arity cannot even hold the
  flattened context letters, or whose base family mixes entity arities
  across configurations — both symptoms of a broken specialization or
  a hand-written rule drifting from the emitted schema;
* **stratification** (``DL201``) — negation through recursion, with
  the witness cycle and offending rule spelled out (structured data
  from :func:`repro.datalog.stratify.negative_cycle_edges`);
* **liveness** (``DL301``–``DL302``) — rules that can never fire
  because a positive body predicate is underivable, and derived
  relations nothing consumes.  :func:`eliminate_dead_rules` applies
  the former as a rewrite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.datalog.ast import Const, Literal, Program, Rule, Var
from repro.datalog.builtins import DEFAULT_BUILTINS, BuiltinSignature
from repro.lint.diagnostics import Diagnostic, LintReport, Severity

#: Builtins may be given as an engine-style ``{name: callable}`` mapping
#: (signatures are read off the callables) or as a bare name collection.
Builtins = Union[Mapping[str, object], Iterable[str], None]


def _normalize_builtins(builtins: Builtins) -> Dict[str, Optional[BuiltinSignature]]:
    """Name → signature (``None`` when the binding discipline is unknown)."""
    table: Dict[str, Optional[BuiltinSignature]] = {
        name: getattr(fn, "lint_signature", None)
        for name, fn in DEFAULT_BUILTINS.items()
    }
    if builtins is None:
        return table
    if isinstance(builtins, Mapping):
        for name, fn in builtins.items():
            table[name] = getattr(fn, "lint_signature", None)
    else:
        for name in builtins:
            table.setdefault(name, None)
    return table


# ---------------------------------------------------------------------------
# Binding order (shared with index planning).
# ---------------------------------------------------------------------------

def binding_orders(rule: Rule) -> List[Tuple[Literal, Tuple[int, ...]]]:
    """For each body literal, the argument positions bound when the
    engine reaches it under left-to-right join order.

    A position is bound when its term is a constant or a variable bound
    by an earlier literal.  Positive stored literals and (successful)
    positive builtins bind all their variables; negated literals bind
    nothing.  This is the binding discipline the safety pass (DL002)
    checks and both evaluation engines implement; the up-front index
    planner (:func:`repro.store.planner.plan_indices`) derives each
    join's probe columns from it.
    """
    bound: Set[Var] = set()
    out: List[Tuple[Literal, Tuple[int, ...]]] = []
    for literal in rule.body:
        positions = tuple(
            position
            for position, term in enumerate(literal.args)
            if isinstance(term, Const) or term in bound
        )
        out.append((literal, positions))
        if not literal.negated:
            bound |= literal.variables()
    return out


# ---------------------------------------------------------------------------
# Safety / range restriction (DL001–DL004).
# ---------------------------------------------------------------------------

def check_safety(
    program: Program, builtins: Builtins = None
) -> List[Diagnostic]:
    signatures = _normalize_builtins(builtins)
    out: List[Diagnostic] = []
    for index, rule in enumerate(program.rules):
        out.extend(_check_rule_safety(rule, index, signatures))
    return out


def _check_rule_safety(
    rule: Rule,
    index: int,
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> List[Diagnostic]:
    out: List[Diagnostic] = []

    def diag(code: str, message: str, literal: Optional[Literal] = None,
             severity: Severity = Severity.ERROR) -> None:
        pos = (literal.pos if literal is not None else None) or rule.pos
        out.append(Diagnostic(
            code, severity, f"{message} in {rule!r}",
            rule_index=index, pos=pos, where=rule.head.pred,
        ))

    if rule.head.negated:
        diag("DL004", "negated head literal")

    # Walk the body in the engine's join order, tracking bound variables.
    bound: Set[Var] = set()
    all_positive: Set[Var] = set()
    for lit in rule.body:
        if not lit.negated and lit.pred not in signatures:
            all_positive |= lit.variables()
    for lit in rule.body:
        if lit.pred in signatures and not lit.negated:
            signature = signatures[lit.pred]
            if signature is not None:
                _check_builtin_binding(lit, bound, signature, diag)
            # After evaluation every argument of the builtin is bound.
            bound |= lit.variables()
            all_positive |= lit.variables()
        elif lit.negated:
            unbound = {v for v in lit.variables() if v not in bound}
            for var in sorted(unbound, key=lambda v: v.name):
                if var in all_positive:
                    diag(
                        "DL002",
                        f"negated literal {lit!r} reached before variable"
                        f" {var.name} is bound (a later positive literal"
                        " binds it: move the negation after it)",
                        lit,
                    )
                else:
                    diag(
                        "DL002",
                        f"variable {var.name} of negated literal {lit!r}"
                        " is not bound by any positive body literal",
                        lit,
                    )
        else:
            bound |= lit.variables()

    unsafe = sorted(
        (v for v in rule.head.variables() if v not in bound),
        key=lambda v: v.name,
    )
    if unsafe and not rule.body:
        diag(
            "DL001",
            f"non-ground fact: variables"
            f" {[v.name for v in unsafe]} in a body-less rule",
        )
    elif unsafe:
        diag(
            "DL001",
            f"head variables {[v.name for v in unsafe]} not bound by any"
            " positive body literal",
        )
    return out


def _check_builtin_binding(literal, bound, signature, diag) -> None:
    if signature.arity is not None and literal.arity != signature.arity:
        return  # reported by the schema pass (DL101)
    unbound = [
        position
        for position, term in enumerate(literal.args)
        if isinstance(term, Var) and term not in bound
    ]
    if signature.out_positions is None:
        bound_count = literal.arity - len(unbound)
        if bound_count < signature.min_bound:
            diag(
                "DL003",
                f"builtin {literal!r} requires at least"
                f" {signature.min_bound} bound argument(s), but only"
                f" {bound_count} are bound when it is reached",
                literal,
            )
        return
    stray = [p for p in unbound if p not in signature.out_positions]
    if stray:
        names = [literal.args[p].name for p in stray]
        diag(
            "DL003",
            f"builtin {literal!r} reached with unbound input"
            f" argument(s) {names} (outputs are positions"
            f" {sorted(signature.out_positions)})",
            literal,
        )


# ---------------------------------------------------------------------------
# Schema: arities and builtin collisions (DL101, DL103).
# ---------------------------------------------------------------------------

def _witness(source) -> str:
    """Render where a schema or sort observation came from: a rule, a
    ``(pred, row)`` fact, a ``(term, rule index)`` rule constant, or a
    ready string.  Only a diagnostic quotes one, so observations keep
    the object and format nothing."""
    if isinstance(source, Rule):
        return repr(source)
    if isinstance(source, tuple):
        subject, detail = source
        if isinstance(subject, Const):
            return f"constant {subject!r} in rule #{detail}"
        return f"fact {subject}{tuple(detail)!r}"
    return source


def check_schema(
    program: Program, builtins: Builtins = None
) -> List[Diagnostic]:
    signatures = _normalize_builtins(builtins)
    out: List[Diagnostic] = []
    #: pred → (arity, witness of its first use; see :func:`_witness`).
    arities: Dict[str, Tuple[int, object]] = {}
    for name, signature in signatures.items():
        if signature is not None and signature.arity is not None:
            arities[name] = (signature.arity, f"builtin {name}")

    def observe(pred: str, arity: int, rule_index: Optional[int],
                pos, witness) -> None:
        known = arities.get(pred)
        if known is None:
            arities[pred] = (arity, witness)
        elif known[0] != arity:
            out.append(Diagnostic(
                "DL101", Severity.ERROR,
                f"predicate {pred!r} used with arity {arity} in"
                f" {_witness(witness)}, but with arity {known[0]} in"
                f" {_witness(known[1])}",
                rule_index=rule_index, pos=pos, where=pred,
            ))

    for index, rule in enumerate(program.rules):
        for lit in (rule.head, *rule.body):
            observe(lit.pred, lit.arity, index, lit.pos or rule.pos, rule)
    for pred, rows in program.facts.items():
        for row in rows:
            observe(pred, len(row), None, None, (pred, row))

    stored = program.idb_predicates() | set(program.facts)
    for pred in sorted(stored & set(signatures)):
        out.append(Diagnostic(
            "DL103", Severity.ERROR,
            f"predicate {pred!r} is both a builtin and a stored relation",
            where=pred,
        ))
    return out


# ---------------------------------------------------------------------------
# Configuration-specialized schemas (DL105).
# ---------------------------------------------------------------------------

def check_configurations(
    program: Program, builtins: Builtins = None
) -> List[Diagnostic]:
    """Arity discipline for configuration-specialized relations.

    A relation named ``base__tag`` whose tag parses as a configuration
    ``x^a w? e^b`` (see :func:`repro.compile.configurations.parse_tag`)
    declares ``a + b`` flattened context attributes after its entity
    attributes.  Two findings, both ``DL105``:

    * **error** — the declared arity is smaller than the tag's context
      arity, so the relation cannot even hold its context letters;
    * **warning** — relations of one base family disagree on entity
      arity (``arity − context_arity``): the specializer emits every
      configuration of a base with the same entity columns, so a mixed
      family means a rule drifted from the emitted schema.

    Names whose suffix does not parse as a tag are skipped — ``__`` is
    legal in ordinary predicate names.
    """
    from repro.compile.configurations import parse_tag

    signatures = _normalize_builtins(builtins)
    #: pred → (arity, first witness rule index, pos)
    arities: Dict[str, Tuple[int, Optional[int], object]] = {}
    for index, rule in enumerate(program.rules):
        for lit in (rule.head, *rule.body):
            if lit.pred in signatures:
                continue
            arities.setdefault(
                lit.pred, (lit.arity, index, lit.pos or rule.pos)
            )
    for pred, rows in program.facts.items():
        for row in rows:
            arities.setdefault(pred, (len(row), None, None))
            break

    out: List[Diagnostic] = []
    #: base → entity arity → member descriptions.
    families: Dict[str, Dict[int, List[str]]] = {}
    for pred in sorted(arities):
        arity, rule_index, pos = arities[pred]
        base, sep, tag = pred.partition("__")
        if not sep or not base:
            continue
        try:
            configuration = parse_tag(tag)
        except ValueError:
            continue
        context_arity = configuration.context_arity
        if arity < context_arity:
            out.append(Diagnostic(
                "DL105", Severity.ERROR,
                f"configuration-specialized relation {pred!r} has arity"
                f" {arity}, but its tag {tag!r} alone needs"
                f" {context_arity} context attribute(s)"
                f" (x^{configuration.pops} e^{configuration.pushes})",
                rule_index=rule_index, pos=pos, where=pred,
            ))
            continue
        families.setdefault(base, {}).setdefault(
            arity - context_arity, []
        ).append(f"{pred}/{arity}")
    for base in sorted(families):
        by_entity = families[base]
        if len(by_entity) > 1:
            details = "; ".join(
                f"entity arity {entity}: {', '.join(members)}"
                for entity, members in sorted(by_entity.items())
            )
            out.append(Diagnostic(
                "DL105", Severity.WARNING,
                f"configuration family {base!r} mixes entity arities"
                f" across its specialized relations ({details})",
                where=base,
            ))
    return out


# ---------------------------------------------------------------------------
# Sort inference (DL102).
# ---------------------------------------------------------------------------

class _SlotUnion:
    """Union-find over ``(predicate, column)`` attribute slots."""

    def __init__(self) -> None:
        self.parent: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def find(self, slot: Tuple[str, int]) -> Tuple[str, int]:
        parent = self.parent.setdefault(slot, slot)
        if parent != slot:
            parent = self.find(parent)
            self.parent[slot] = parent
        return parent

    def union(self, left: Tuple[str, int], right: Tuple[str, int]) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self.parent[root_left] = root_right


def _sort_of(value: object) -> str:
    return type(value).__name__


def check_sorts(
    program: Program, builtins: Builtins = None
) -> List[Diagnostic]:
    """Infer one sort per attribute-slot equivalence class.

    Slots joined by a shared rule variable must agree on the sort of
    the constants observed anywhere in the class; a class observed with
    two sorts (say ``str`` and ``tuple``) is a near-certain
    specialization or fact-encoding bug and is reported as ``DL102``.
    Builtin literals are skipped: their arguments are polymorphic.
    """
    signatures = _normalize_builtins(builtins)
    union = _SlotUnion()
    #: root slot → sort name → first witness (see :func:`_witness`).
    observed: Dict[Tuple[str, int], Dict[str, object]] = {}

    def observe(slot: Tuple[str, int], sort: str, witness) -> None:
        root = union.find(slot)
        observed.setdefault(root, {}).setdefault(sort, witness)

    for index, rule in enumerate(program.rules):
        slots_of_var: Dict[Var, List[Tuple[str, int]]] = {}
        for lit in (rule.head, *rule.body):
            if lit.pred in signatures:
                continue
            for position, term in enumerate(lit.args):
                slot = (lit.pred, position)
                if isinstance(term, Var):
                    slots_of_var.setdefault(term, []).append(slot)
                else:
                    observe(slot, _sort_of(term.value), (term, index))
        for slots in slots_of_var.values():
            for other in slots[1:]:
                union.union(slots[0], other)

    # Re-key observations to the final roots before adding fact sorts.
    merged: Dict[Tuple[str, int], Dict[str, object]] = {}
    for root, sorts in observed.items():
        target = merged.setdefault(union.find(root), {})
        for sort, witness in sorts.items():
            target.setdefault(sort, witness)
    observed = merged

    for pred, rows in program.facts.items():
        for row in rows:
            for position, value in enumerate(row):
                observe((pred, position), _sort_of(value), (pred, row))

    out: List[Diagnostic] = []
    slots_by_root: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
    for slot in union.parent:
        slots_by_root.setdefault(union.find(slot), []).append(slot)
    for root in sorted(observed, key=lambda s: (s[0], s[1])):
        sorts = observed[root]
        if len(sorts) > 1:
            members = sorted(set(slots_by_root.get(root, [root])) | {root})
            columns = ", ".join(f"{p}[{i}]" for p, i in members[:6])
            details = "; ".join(
                f"{sort} from {_witness(witness)}"
                for sort, witness in sorted(sorts.items())
            )
            out.append(Diagnostic(
                "DL102", Severity.WARNING,
                f"attribute slot class {{{columns}}} is used with"
                f" conflicting sorts: {details}",
                where=root[0],
            ))
    return out


# ---------------------------------------------------------------------------
# Stratification (DL201).
# ---------------------------------------------------------------------------

def check_stratification(program: Program) -> List[Diagnostic]:
    from repro.datalog.stratify import negative_cycle_edges

    out: List[Diagnostic] = []
    index_of = {id(rule): i for i, rule in enumerate(program.rules)}
    for violation in negative_cycle_edges(program):
        # describe() spells out the witness: the offending negated
        # literal, its source line/column when the program was parsed
        # from text, and the predicate cycle the edge closes.
        out.append(Diagnostic(
            "DL201", Severity.ERROR,
            f"negation through recursion: {violation.describe()};"
            " break the cycle or move the negated predicate to an"
            " earlier stratum",
            rule_index=index_of.get(id(violation.rule)),
            pos=violation.literal.pos or violation.rule.pos,
            where=violation.target,
        ))
    return out


# ---------------------------------------------------------------------------
# Liveness: dead rules and unused relations (DL301, DL302).
# ---------------------------------------------------------------------------

def _derivable_predicates(
    program: Program,
    signatures: Dict[str, Optional[BuiltinSignature]],
    assume_nonempty: Iterable[str] = (),
) -> Set[str]:
    """Predicates that can possibly hold at least one tuple.

    Fixpoint over: facts (and ``assume_nonempty`` predicates) are
    derivable; a rule head becomes derivable once every *positive,
    non-builtin* body predicate is (negated literals never block —
    negation over an empty relation succeeds).
    """
    derivable: Set[str] = {
        pred for pred, rows in program.facts.items() if rows
    }
    derivable.update(assume_nonempty)
    pending = [r for r in program.rules]
    progress = True
    while progress:
        progress = False
        remaining: List[Rule] = []
        for rule in pending:
            if all(
                lit.negated or lit.pred in signatures or lit.pred in derivable
                for lit in rule.body
            ):
                if rule.head.pred not in derivable:
                    derivable.add(rule.head.pred)
                    progress = True
            else:
                remaining.append(rule)
        pending = remaining
    return derivable


def _dead_rules(
    program: Program,
    signatures: Dict[str, Optional[BuiltinSignature]],
    assume_nonempty: Iterable[str] = (),
) -> List[Tuple[int, Rule, List[str]]]:
    derivable = _derivable_predicates(program, signatures, assume_nonempty)
    dead: List[Tuple[int, Rule, List[str]]] = []
    for index, rule in enumerate(program.rules):
        blockers = sorted({
            lit.pred
            for lit in rule.body
            if not lit.negated
            and lit.pred not in signatures
            and lit.pred not in derivable
        })
        if blockers:
            dead.append((index, rule, blockers))
    return dead


def check_liveness(
    program: Program, builtins: Builtins = None,
    edb: Iterable[str] = (),
) -> List[Diagnostic]:
    """Dead-rule and unused-relation findings.

    ``edb`` names input relations that are *declared* — empty in this
    particular fact set but legitimately populatable later — so their
    rules are not flagged as dead.
    """
    signatures = _normalize_builtins(builtins)
    out: List[Diagnostic] = []
    for index, rule, blockers in _dead_rules(program, signatures, edb):
        out.append(Diagnostic(
            "DL301", Severity.WARNING,
            f"rule can never fire: positive body predicate(s)"
            f" {blockers} have no facts and no live defining rule"
            f" in {rule!r}",
            rule_index=index, pos=rule.pos, where=rule.head.pred,
        ))
    consumed = {
        lit.pred for rule in program.rules for lit in rule.body
    }
    for pred in sorted(program.idb_predicates() - consumed):
        out.append(Diagnostic(
            "DL302", Severity.NOTE,
            f"derived relation {pred!r} is not consumed by any rule"
            " (kept: it may be an output)",
            where=pred,
        ))
    return out


def eliminate_dead_rules(
    program: Program, builtins: Builtins = None
) -> Tuple[Program, List[Rule]]:
    """Drop rules that can never fire; a safe pre-evaluation rewrite.

    Returns ``(optimized_program, removed_rules)``.  The optimized
    program shares no mutable state with the input.  Negated literals
    never make a rule dead (negation over an underivable predicate is
    vacuously true), so the rewrite preserves the stratified semantics
    exactly: removed rules could not have contributed a single tuple.
    """
    signatures = _normalize_builtins(builtins)
    dead_indices = {
        index for index, _, _ in _dead_rules(program, signatures)
    }
    kept = [r for i, r in enumerate(program.rules) if i not in dead_indices]
    removed = [r for i, r in enumerate(program.rules) if i in dead_indices]
    optimized = Program(
        rules=kept,
        facts={pred: set(rows) for pred, rows in program.facts.items()},
    )
    return optimized, removed


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------

def lint_program(
    program: Program,
    builtins: Builtins = None,
    subject: str = "program",
    passes: Optional[Sequence[str]] = None,
    edb: Iterable[str] = (),
) -> LintReport:
    """Run the semantic analyzer; returns the aggregated report.

    ``builtins`` follows the engine convention: the default builtin
    table is always assumed, and an engine-style mapping adds to it.
    ``passes`` selects a subset by name (``safety``, ``schema``,
    ``configurations``, ``sorts``, ``stratification``, ``liveness``);
    default is all.
    ``edb`` declares input relations the liveness pass must assume
    populatable even when the installed fact set leaves them empty.
    """
    all_passes = {
        "safety": lambda: check_safety(program, builtins),
        "schema": lambda: check_schema(program, builtins),
        "configurations": lambda: check_configurations(program, builtins),
        "sorts": lambda: check_sorts(program, builtins),
        "stratification": lambda: check_stratification(program),
        "liveness": lambda: check_liveness(program, builtins, edb=edb),
    }
    selected = list(all_passes) if passes is None else list(passes)
    unknown = [name for name in selected if name not in all_passes]
    if unknown:
        raise ValueError(f"unknown lint pass(es) {unknown!r}")
    report = LintReport(subject=subject)
    for name in selected:
        report.extend(all_passes[name]())
    return report

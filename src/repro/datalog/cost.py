"""Static cost & cardinality analysis over Datalog programs (DL5xx).

The paper's Section 7 performance argument is that configuration
specialization makes every join a fully-indexed equi-join — but *which*
indices a join can use is decided by body order, and every execution
surface of this repo (interpreter, kernels)
evaluates rule bodies in fixed left-to-right source order.  This module
analyzes the program *before* running it:

1. **Relation profiles** — per-relation cardinalities, per-column
   distinct counts, minimal keys and single-column functional
   dependencies, measured exactly from the installed facts (including
   body-less constant rules such as the entry fact and magic seeds);
2. **IDB bounds** — head cardinalities propagated through rule heads in
   stratum order, capped by the product of the head columns' domain
   estimates, to a monotone fixpoint;
3. **Join-order planning** — every legal body order (negated literals
   fully bound, builtin binding disciplines respected) is scored with a
   textbook cost model: a probe into relation ``R`` with bound columns
   ``B`` matches ``|R| / ∏ distinct(B)`` rows (``≤ 1`` when ``B``
   covers a key), and a rule's cost is the total intermediate binding
   volume of the walk.  Small bodies are searched exhaustively; larger
   ones greedily with deterministic tie-breaks, and source order always
   wins ties.

The result is a :class:`CostPlan`: the chosen order and cost for every
rule, a byte-stable ``repro-cost-plan/1`` document, DL5xx diagnostics
with line/col witnesses, and :func:`reorder_program` — the rewrite a
caller applies before handing the program to an engine.  Because both
backends evaluate bodies in author order, applying a legal permutation
is a pure program rewrite with bit-identical results (tested across the
full figure1/figure5 configuration sweep).

Diagnostic codes (all advisory — not part of ``lint_program``'s default
pass list):

========  ========  ====================================================
``DL501``  warning   unbounded join: some positive stored literal is
                     probed with zero bound columns even under the best
                     legal order (a cross product)
``DL502``  note      probe without usable index: the bound columns carry
                     no selectivity (every row matches)
``DL503``  note      cost-improving reorder available (the suggested
                     order is reported; safety DL001–DL004 preserved by
                     construction)
``DL504``  note      two or more rules share a canonicalized body
                     prefix — a caching / common-subplan opportunity
========  ========  ====================================================

(``DL505`` — uncovered kernel configuration — is emitted by the closure
certifier in :mod:`repro.compile.closure`, not here.)
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set,
    Tuple, Union,
)

from repro.datalog.ast import Const, Literal, Program, Rule, Var
from repro.datalog.builtins import BuiltinSignature
from repro.lint.diagnostics import Diagnostic, Severity

#: Engine-style ``{name: callable}`` mapping or a bare name collection.
Builtins = Union[Mapping[str, object], Iterable[str], None]

#: Exhaustive permutation search up to this body length; greedy beyond.
EXHAUSTIVE_LIMIT = 4

#: Key inference enumerates column *pairs* only below this row count
#: (single columns and the full column set are always checked).
KEY_PAIR_ROW_LIMIT = 20000

#: Cardinality estimates are clamped here to keep the arithmetic (and
#: the JSON document) finite.
MAX_ESTIMATE = 1e18

#: Monotone IDB bound propagation stops after this many rounds even if
#: the capped estimates are still creeping (they are non-decreasing and
#: bounded, so this is a safety valve, not a correctness condition).
MAX_BOUND_ROUNDS = 12

#: Assumed number of semi-naive delta rounds.  Every engine in this
#: repo evaluates a rule's delta variants with the delta literal *at
#: its body position*: the walk up to that literal runs against the
#: full relations each round, so an order that buries a recursive
#: (same-stratum) literal behind an expensive prefix pays that prefix
#: once per round.  The scorer charges each recursive literal its
#: prefix cost this many extra times.
SEMI_NAIVE_ROUNDS = 4.0


# ---------------------------------------------------------------------------
# Relation profiles.
# ---------------------------------------------------------------------------

@dataclass
class RelationProfile:
    """Cardinality facts about one relation.

    ``rows`` and ``distinct`` are exact for extensional relations
    (``exact=True``) and propagated upper-bound estimates for derived
    ones.  ``keys`` lists minimal column sets whose values are unique
    per row (exact relations only); a probe binding a key matches at
    most one row.  ``determines`` lists single-column functional
    dependencies ``i -> j``.
    """

    pred: str
    arity: int
    rows: float
    distinct: Tuple[float, ...]
    keys: Tuple[Tuple[int, ...], ...] = ()
    determines: Tuple[Tuple[int, int], ...] = ()
    exact: bool = False

    def matches(self, bound: Sequence[int]) -> float:
        """Estimated rows matching a probe with ``bound`` columns bound."""
        if self.rows <= 0:
            return 0.0
        if not bound:
            return self.rows
        bound_set = set(bound)
        for key in self.keys:
            if bound_set.issuperset(key):
                return min(1.0, self.rows)
        denominator = 1.0
        for position in bound:
            if position < len(self.distinct):
                denominator *= max(1.0, self.distinct[position])
        return min(self.rows, max(self.rows / denominator, 0.0))

    def selective(self, bound: Sequence[int]) -> bool:
        """Whether the bound columns discriminate at all."""
        return self.matches(bound) < self.rows

    def to_json(self) -> Dict:
        return {
            "predicate": self.pred,
            "arity": self.arity,
            "rows": _finite(self.rows),
            "distinct": [_finite(d) for d in self.distinct],
            "keys": [list(key) for key in self.keys],
            "determines": [list(fd) for fd in self.determines],
            "exact": self.exact,
        }


def _finite(value: float) -> float:
    value = min(float(value), MAX_ESTIMATE)
    rounded = round(value, 4)
    return int(rounded) if rounded == int(rounded) else rounded


def _minimal_keys(rows: Sequence[Tuple], arity: int) -> Tuple[Tuple[int, ...], ...]:
    """Minimal unique-key column sets: singles, pairs (bounded), full set."""
    count = len(rows)
    if count == 0 or arity == 0:
        return ()
    keys: List[Tuple[int, ...]] = []
    single: Set[int] = set()
    for position in range(arity):
        if len({row[position] for row in rows}) == count:
            keys.append((position,))
            single.add(position)
    if not single and arity >= 2 and count <= KEY_PAIR_ROW_LIMIT:
        for left, right in itertools.combinations(range(arity), 2):
            if len({(row[left], row[right]) for row in rows}) == count:
                keys.append((left, right))
    if not keys:
        keys.append(tuple(range(arity)))  # set semantics: all columns
    return tuple(keys)


def _functional_deps(
    rows: Sequence[Tuple], arity: int, keys: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[int, int], ...]:
    """Single-column FDs ``i -> j`` (skipping trivial key determinants)."""
    if not rows or arity < 2 or len(rows) > KEY_PAIR_ROW_LIMIT:
        return ()
    key_columns = {key[0] for key in keys if len(key) == 1}
    deps: List[Tuple[int, int]] = []
    for determinant in range(arity):
        if determinant in key_columns:
            continue  # a key determines everything; not informative
        for dependent in range(arity):
            if dependent == determinant:
                continue
            seen: Dict[object, object] = {}
            functional = True
            for row in rows:
                value = seen.setdefault(row[determinant], row[dependent])
                if value != row[dependent]:
                    functional = False
                    break
            if functional:
                deps.append((determinant, dependent))
    return tuple(deps)


def _profile_rows(pred: str, rows: Sequence[Tuple]) -> RelationProfile:
    arity = len(next(iter(rows)))
    distinct = tuple(
        float(len({row[position] for row in rows})) for position in range(arity)
    )
    keys = _minimal_keys(rows, arity)
    return RelationProfile(
        pred=pred,
        arity=arity,
        rows=float(len(rows)),
        distinct=distinct,
        keys=keys,
        determines=_functional_deps(rows, arity, keys),
        exact=True,
    )


def profile_facts(program: Program) -> Dict[str, RelationProfile]:
    """Exact profiles of every extensional relation.

    Body-less rules with constant heads (the emitted entry fact, magic
    seeds) count as facts, so e.g. a magic predicate seeded with one
    query tuple gets the one-row bound that makes the demand-driven
    program's costs honest.
    """
    rows_of: Dict[str, Set[Tuple]] = {
        pred: set(rows) for pred, rows in program.facts.items() if rows
    }
    for rule in program.rules:
        if rule.is_fact():
            row = tuple(
                t.value for t in rule.head.args if isinstance(t, Const)
            )
            if len(row) == rule.head.arity:
                rows_of.setdefault(rule.head.pred, set()).add(row)
    return {
        pred: _profile_rows(pred, sorted(rows, key=repr))
        for pred, rows in rows_of.items()
    }


# ---------------------------------------------------------------------------
# Binding-legality of a candidate order.
# ---------------------------------------------------------------------------

def _signatures(builtins: Builtins) -> Dict[str, Optional[BuiltinSignature]]:
    from repro.lint.passes import _normalize_builtins

    return _normalize_builtins(builtins)


def _order_is_legal(
    body: Sequence[Literal],
    order: Sequence[int],
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> bool:
    """Whether the engines can evaluate ``body`` in ``order``.

    Mirrors the DL002/DL003 discipline of :func:`check_safety`: negated
    literals need every variable bound by earlier positive literals,
    and builtins need their non-output (or ``min_bound``) positions
    bound.  A builtin with an unknown signature makes every order but
    the source order illegal — callers keep such rules untouched.
    """
    bound: Set[Var] = set()
    for index in order:
        literal = body[index]
        is_builtin = literal.pred in signatures
        if literal.negated:
            if any(v not in bound for v in literal.variables()):
                return False
            continue
        if is_builtin:
            signature = signatures[literal.pred]
            if signature is None:
                return False
            unbound = [
                p for p, t in enumerate(literal.args)
                if isinstance(t, Var) and t not in bound
            ]
            if signature.out_positions is None:
                if literal.arity - len(unbound) < signature.min_bound:
                    return False
            elif any(p not in signature.out_positions for p in unbound):
                return False
        bound |= literal.variables()
    return True


def _has_unknown_builtin(
    body: Sequence[Literal],
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> bool:
    return any(
        lit.pred in signatures and signatures[lit.pred] is None
        for lit in body
    )


# ---------------------------------------------------------------------------
# The join-cost model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _StepCost:
    """One literal's contribution to a walk: probe shape + volumes."""

    body_index: int
    bound_positions: Tuple[int, ...]
    matches: float
    frontier_before: float
    frontier_after: float


def _walk(
    body: Sequence[Literal],
    order: Sequence[int],
    profiles: Mapping[str, RelationProfile],
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> Tuple[float, float, List[_StepCost]]:
    """Score one legal order.

    Returns ``(cost, output_rows, steps)``: the cost is the total
    binding volume materialized along the walk (probes plus produced
    frontiers — the work a nested-loop join over hash indices does),
    the output is the final frontier size (an upper bound on derived
    head rows before dedup).
    """
    bound: Set[Var] = set()
    frontier = 1.0
    cost = 0.0
    steps: List[_StepCost] = []
    for index in order:
        literal = body[index]
        before = frontier
        bound_positions = tuple(
            p for p, t in enumerate(literal.args)
            if isinstance(t, Const) or t in bound
        )
        if literal.pred in signatures and not literal.negated:
            # Builtins are pure local computation: one evaluation per
            # binding tuple, at most a handful of produced rows.
            matches = 1.0
            cost += frontier
        elif literal.negated:
            # A fully-bound membership test filters the frontier.
            matches = 1.0
            cost += frontier
        else:
            profile = profiles.get(literal.pred)
            if profile is None:
                matches = 0.0
            else:
                matches = profile.matches(bound_positions)
            frontier = min(frontier * matches, MAX_ESTIMATE)
            cost += before + frontier
        if not literal.negated:
            bound |= literal.variables()
        steps.append(_StepCost(
            body_index=index,
            bound_positions=bound_positions,
            matches=matches,
            frontier_before=before,
            frontier_after=frontier,
        ))
    return cost, frontier, steps


def _order_cost(
    body: Sequence[Literal],
    order: Sequence[int],
    profiles: Mapping[str, RelationProfile],
    signatures: Dict[str, Optional[BuiltinSignature]],
    recursive: FrozenSet[str] = frozenset(),
) -> Tuple[float, float, List[_StepCost]]:
    """Score one legal order under the semi-naive evaluation model.

    The base term is :func:`_walk`'s round-zero cost.  On top of it,
    every positive stored literal whose predicate is *recursive*
    (``recursive`` holds the head's stratum — the predicates the
    engines evaluate with delta variants) is charged two semi-naive
    terms the round-zero walk cannot see:

    * the walk up to the literal is re-run against the full relations
      once per delta round (the engines keep the delta literal at its
      body position), so the prefix cost is charged
      :data:`SEMI_NAIVE_ROUNDS` extra times;
    * the delta probe goes through a per-evaluation hash index built
      over the delta rows, and over the whole fixpoint the deltas sum
      to the full relation — so each delta position adds one
      ``rows``-sized index build regardless of where the literal sits.

    Without these terms the planner happily buries recursive literals
    behind cheap EDB prefixes — a round-zero bargain whose prefix is
    re-paid every iteration.
    """
    cost, out, steps = _walk(body, order, profiles, signatures)
    if recursive:
        prefix = 0.0
        for step in steps:
            literal = body[step.body_index]
            stored = (
                not literal.negated and literal.pred not in signatures
            )
            if stored and literal.pred in recursive:
                profile = profiles.get(literal.pred)
                rows = profile.rows if profile is not None else 0.0
                cost = min(
                    cost + SEMI_NAIVE_ROUNDS * prefix + rows,
                    MAX_ESTIMATE,
                )
            # The step's own contribution, mirroring _walk's accounting:
            # builtins and negations cost one frontier scan, stored
            # literals a probe plus the produced frontier.
            if stored:
                prefix += step.frontier_before + step.frontier_after
            else:
                prefix += step.frontier_before
    return cost, out, steps


def _best_order(
    body: Sequence[Literal],
    profiles: Mapping[str, RelationProfile],
    signatures: Dict[str, Optional[BuiltinSignature]],
    recursive: FrozenSet[str] = frozenset(),
) -> Tuple[Tuple[int, ...], float, float, List[_StepCost]]:
    """The cheapest legal order (source order wins ties).

    Exhaustive for bodies of up to :data:`EXHAUSTIVE_LIMIT` literals;
    greedy (cheapest next probe, lowest source index on ties) beyond.
    Returns ``(order, cost, output_rows, steps)``.
    """
    identity = tuple(range(len(body)))
    if len(body) <= 1 or _has_unknown_builtin(body, signatures):
        cost, out, steps = _order_cost(
            body, identity, profiles, signatures, recursive
        )
        return identity, cost, out, steps

    if len(body) <= EXHAUSTIVE_LIMIT:
        best: Optional[Tuple[float, Tuple[int, ...]]] = None
        for order in itertools.permutations(identity):
            if not _order_is_legal(body, order, signatures):
                continue
            cost, _, _ = _order_cost(
                body, order, profiles, signatures, recursive
            )
            # The identity permutation is lexicographically minimal, so
            # ties always resolve to source order.
            if best is None or (cost, order) < best:
                best = (cost, order)
        if best is None:
            order = identity
        else:
            order = best[1]
        cost, out, steps = _order_cost(
            body, order, profiles, signatures, recursive
        )
        return order, cost, out, steps

    # Greedy: extend the prefix with the literal whose probe is
    # cheapest given the variables bound so far, among the literals
    # that keep the prefix legal (checked incrementally).
    chosen: List[int] = []
    remaining = list(identity)
    while remaining:
        scored: List[Tuple[float, int]] = []
        for candidate in remaining:
            order = chosen + [candidate]
            if not _order_is_legal(
                [body[i] for i in order], range(len(order)), signatures
            ):
                continue
            cost, _, _ = _order_cost(
                [body[i] for i in order], range(len(order)),
                profiles, signatures, recursive,
            )
            scored.append((cost, candidate))
        if not scored:
            # No legal extension (e.g. a negation whose binder comes
            # later in the source): fall back to source order.
            cost, out, steps = _order_cost(
                body, identity, profiles, signatures, recursive
            )
            return identity, cost, out, steps
        scored.sort()
        chosen.append(scored[0][1])
        remaining.remove(scored[0][1])
    order = tuple(chosen)
    if not _order_is_legal(body, order, signatures):  # pragma: no cover
        order = identity
    cost, out, steps = _order_cost(
        body, order, profiles, signatures, recursive
    )
    # Greedy is a heuristic: never trade the author's order for a
    # costlier one (exhaustive search cannot, by construction).
    if order != identity and _order_is_legal(body, identity, signatures):
        source_cost, source_out, source_steps = _order_cost(
            body, identity, profiles, signatures, recursive
        )
        if source_cost <= cost:
            return identity, source_cost, source_out, source_steps
    return order, cost, out, steps


# ---------------------------------------------------------------------------
# IDB cardinality bounds.
# ---------------------------------------------------------------------------

def _head_domain_cap(
    rule: Rule,
    profiles: Mapping[str, RelationProfile],
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> float:
    """Upper bound on head rows from the head columns' domains."""
    domain_of: Dict[Var, float] = {}
    for literal in rule.body:
        if literal.negated or literal.pred in signatures:
            continue
        profile = profiles.get(literal.pred)
        if profile is None:
            continue
        for position, term in enumerate(literal.args):
            if isinstance(term, Var) and position < len(profile.distinct):
                domain = profile.distinct[position]
                known = domain_of.get(term)
                domain_of[term] = domain if known is None else min(known, domain)
    cap = 1.0
    for term in rule.head.args:
        if isinstance(term, Const):
            continue
        cap = min(cap * domain_of.get(term, MAX_ESTIMATE), MAX_ESTIMATE)
    return cap


def _propagate_bounds(
    program: Program,
    profiles: Dict[str, RelationProfile],
    signatures: Dict[str, Optional[BuiltinSignature]],
    strata: Sequence[Set[str]],
) -> None:
    """Grow ``profiles`` with capped IDB estimates, stratum by stratum.

    Estimates are monotone non-decreasing and clamped, so the per-
    stratum loop converges; :data:`MAX_BOUND_ROUNDS` is a safety valve.
    """
    rules = [r for r in program.rules if not r.is_fact()]
    exact_rows = {p: prof.rows for p, prof in profiles.items() if prof.exact}
    for stratum in strata:
        stratum_rules = [r for r in rules if r.head.pred in stratum]
        if not stratum_rules:
            continue
        for _ in range(MAX_BOUND_ROUNDS):
            changed = False
            derived: Dict[str, float] = {}
            caps: Dict[str, float] = {}
            arities: Dict[str, int] = {}
            for rule in stratum_rules:
                _, out, _ = _walk(
                    rule.body, range(len(rule.body)), profiles, signatures
                )
                pred = rule.head.pred
                derived[pred] = min(
                    derived.get(pred, 0.0) + out, MAX_ESTIMATE
                )
                caps[pred] = min(
                    caps.get(pred, 0.0)
                    + _head_domain_cap(rule, profiles, signatures),
                    MAX_ESTIMATE,
                )
                arities[pred] = rule.head.arity
            for pred, estimate in derived.items():
                rows = min(estimate, caps[pred]) + exact_rows.get(pred, 0.0)
                rows = min(rows, MAX_ESTIMATE)
                old = profiles.get(pred)
                if old is not None and old.rows >= rows:
                    continue
                arity = arities[pred]
                distinct = tuple(
                    min(
                        rows,
                        old.distinct[i] if old is not None
                        and i < len(old.distinct) and old.exact
                        else rows,
                    )
                    for i in range(arity)
                )
                profiles[pred] = RelationProfile(
                    pred=pred, arity=arity, rows=rows, distinct=distinct,
                    keys=old.keys if old is not None and old.exact else (),
                    determines=(),
                    exact=False,
                )
                changed = True
            if not changed:
                break


# ---------------------------------------------------------------------------
# The plan.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleCost:
    """One rule's chosen order and costs."""

    rule_index: int
    head: str
    order: Tuple[int, ...]
    source_cost: float
    cost: float
    output_rows: float
    pos: Optional[object] = None

    @property
    def reordered(self) -> bool:
        return self.order != tuple(range(len(self.order)))

    def to_json(self) -> Dict:
        return {
            "rule": self.rule_index,
            "head": self.head,
            "order": list(self.order),
            "source_cost": _finite(self.source_cost),
            "cost": _finite(self.cost),
            "rows": _finite(self.output_rows),
            "reordered": self.reordered,
            "line": self.pos.line if self.pos else None,
            "column": self.pos.column if self.pos else None,
        }


@dataclass
class CostPlan:
    """The static cost analysis of one program.

    ``rules`` has one entry per non-fact rule (keyed by its index in
    ``program.rules``); ``profiles`` covers every relation with a
    cardinality estimate; ``diagnostics`` carries the DL5xx findings.
    """

    program: Program
    profiles: Dict[str, RelationProfile]
    rules: List[RuleCost]
    diagnostics: List[Diagnostic] = field(default_factory=list)

    SCHEMA = "repro-cost-plan/1"

    def order_of(self, rule_index: int) -> Optional[Tuple[int, ...]]:
        for entry in self.rules:
            if entry.rule_index == rule_index:
                return entry.order
        return None

    def reordered_count(self) -> int:
        return sum(1 for entry in self.rules if entry.reordered)

    def apply(self) -> Program:
        """The cost-ordered program: same rules, permuted bodies.

        Body orders are permutations of the source bodies, legal under
        the binding discipline the engines implement, so evaluation is
        bit-identical to the source program on every backend.
        """
        order_of = {entry.rule_index: entry.order for entry in self.rules}
        rules: List[Rule] = []
        for index, rule in enumerate(self.program.rules):
            order = order_of.get(index)
            if order is None or order == tuple(range(len(rule.body))):
                rules.append(rule)
            else:
                rules.append(Rule(
                    rule.head,
                    tuple(rule.body[i] for i in order),
                    pos=rule.pos,
                ))
        return Program(
            rules=rules,
            facts={pred: set(rows) for pred, rows in self.program.facts.items()},
        )

    def body(self) -> Dict:
        return {
            "generator": "repro.datalog.cost",
            "rules": len(self.rules),
            "reordered": self.reordered_count(),
            "profiles": [
                self.profiles[pred].to_json()
                for pred in sorted(self.profiles)
            ],
            "rule_costs": [entry.to_json() for entry in self.rules],
            "diagnostics": [
                {
                    "code": diag.code,
                    "severity": diag.severity.name,
                    "rule": diag.rule_index,
                    "line": diag.pos.line if diag.pos else None,
                    "column": diag.pos.column if diag.pos else None,
                    "message": diag.message,
                }
                for diag in _sorted_diagnostics(self.diagnostics)
            ],
        }

    def digest(self) -> str:
        return _digest(self.body())

    def to_json(self) -> Dict:
        body = self.body()
        return {
            "schema": self.SCHEMA,
            "digest": _digest(body),
            "body": body,
        }

    def render(self) -> str:
        total_source = sum(entry.source_cost for entry in self.rules)
        total_best = sum(entry.cost for entry in self.rules)
        ratio = (total_best / total_source) if total_source > 0 else 1.0
        lines = [
            f"cost plan: {len(self.rules)} rules,"
            f" {self.reordered_count()} reordered"
            f" (total cost {_finite(total_best)} vs"
            f" {_finite(total_source)} source, {ratio:.2f}x)"
        ]
        for entry in self.rules:
            if not entry.reordered:
                continue
            where = ""
            if entry.pos is not None:
                where = f" at {entry.pos!r}"
            lines.append(
                f"  #{entry.rule_index} {entry.head}{where}:"
                f" order {list(entry.order)}"
                f" cost {_finite(entry.cost)}"
                f" (source {_finite(entry.source_cost)})"
            )
        return "\n".join(lines)


def _digest(body: Mapping) -> str:
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _sorted_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return sorted(
        diagnostics,
        key=lambda d: (
            d.pos.line if d.pos else 0,
            d.pos.column if d.pos else 0,
            d.code,
            d.message,
        ),
    )


def verify_cost_plan(document: Mapping) -> Dict:
    """Self-check a loaded ``repro-cost-plan/1`` document.

    Returns a summary dict; raises :class:`ValueError` on a schema or
    digest violation (the CLI surfaces this under ``repro lint``).
    """
    schema = document.get("schema")
    if schema != CostPlan.SCHEMA:
        raise ValueError(
            f"not a cost plan: schema {schema!r}"
            f" (expected {CostPlan.SCHEMA!r})"
        )
    body = document.get("body")
    if not isinstance(body, Mapping):
        raise ValueError("cost plan has no body object")
    recorded = document.get("digest")
    actual = _digest(body)
    if recorded != actual:
        raise ValueError(
            f"cost-plan digest mismatch: header says {recorded!r},"
            f" body hashes to {actual!r}"
        )
    rule_costs = body.get("rule_costs", [])
    declared = body.get("rules")
    if declared != len(rule_costs):
        raise ValueError(
            f"cost plan declares {declared} rules but lists"
            f" {len(rule_costs)}"
        )
    reordered = sum(1 for entry in rule_costs if entry.get("reordered"))
    if body.get("reordered") != reordered:
        raise ValueError(
            f"cost plan declares {body.get('reordered')} reordered rules"
            f" but lists {reordered}"
        )
    return {
        "schema": schema,
        "digest": actual,
        "rules": declared,
        "reordered": reordered,
        "profiles": len(body.get("profiles", [])),
        "diagnostics": len(body.get("diagnostics", [])),
    }


# ---------------------------------------------------------------------------
# The analysis driver.
# ---------------------------------------------------------------------------

def analyze_cost(program: Program, builtins: Builtins = None) -> CostPlan:
    """Profile, bound, and plan join orders for ``program``.

    Raises :class:`repro.datalog.stratify.StratificationError` for
    programs with negation through recursion (the DL201 lint pass owns
    explaining that failure).
    """
    from repro.datalog.stratify import stratify

    signatures = _signatures(builtins)
    strata = stratify(program, set(signatures))
    profiles = profile_facts(program)
    _propagate_bounds(program, profiles, signatures, strata)

    stratum_of: Dict[str, FrozenSet[str]] = {}
    for stratum in strata:
        frozen = frozenset(stratum)
        for pred in stratum:
            stratum_of[pred] = frozen

    rule_costs: List[RuleCost] = []
    diagnostics: List[Diagnostic] = []
    for index, rule in enumerate(program.rules):
        if rule.is_fact():
            continue
        # The head's stratum is its SCC: exactly the predicates the
        # engines evaluate with delta variants inside this rule, so
        # exactly the literals the semi-naive prefix penalty applies to.
        recursive = stratum_of.get(rule.head.pred, frozenset())
        source_cost, _, _ = _order_cost(
            rule.body, range(len(rule.body)), profiles, signatures,
            recursive,
        )
        order, cost, output, steps = _best_order(
            rule.body, profiles, signatures, recursive
        )
        entry = RuleCost(
            rule_index=index,
            head=rule.head.pred,
            order=order,
            source_cost=source_cost,
            cost=cost,
            output_rows=output,
            pos=rule.pos,
        )
        rule_costs.append(entry)
        diagnostics.extend(
            _rule_diagnostics(rule, index, entry, steps, profiles, signatures)
        )
    diagnostics.extend(_shared_prefixes(program, rule_costs, signatures))

    return CostPlan(
        program=program,
        profiles=profiles,
        rules=rule_costs,
        diagnostics=_sorted_diagnostics(diagnostics),
    )


def _rule_diagnostics(
    rule: Rule,
    index: int,
    entry: RuleCost,
    steps: Sequence[_StepCost],
    profiles: Mapping[str, RelationProfile],
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> List[Diagnostic]:
    out: List[Diagnostic] = []

    def diag(code: str, severity: Severity, message: str,
             literal: Optional[Literal] = None) -> None:
        pos = (literal.pos if literal is not None else None) or rule.pos
        out.append(Diagnostic(
            code, severity, message,
            rule_index=index, pos=pos, where=rule.head.pred,
        ))

    stored_seen = 0
    for step in steps:
        literal = rule.body[step.body_index]
        if literal.negated or literal.pred in signatures:
            continue
        stored_seen += 1
        profile = profiles.get(literal.pred)
        if (
            not step.bound_positions
            and stored_seen > 1
            # Only live cross products: a provably-empty frontier or
            # relation makes the scan vacuous (DL301's territory).
            and step.frontier_before > 0
            and profile is not None
            and profile.rows > 1
        ):
            diag(
                "DL501", Severity.WARNING,
                f"unbounded join: {literal!r} is probed with no bound"
                f" columns even under the best legal order"
                f" (~{_finite(profile.rows)} rows) — a cross product"
                f" against the bindings so far, in {rule!r}",
                literal,
            )
        elif (
            step.bound_positions
            and profile is not None
            and profile.exact
            and profile.rows > 1
            and not profile.selective(step.bound_positions)
        ):
            columns = list(step.bound_positions)
            diag(
                "DL502", Severity.NOTE,
                f"probe without usable index: the bound column(s)"
                f" {columns} of {literal!r} carry no selectivity"
                f" (every one of the ~{_finite(profile.rows)} rows"
                f" matches), in {rule!r}",
                literal,
            )

    if entry.reordered and entry.cost < entry.source_cost:
        ratio = (
            entry.cost / entry.source_cost if entry.source_cost > 0 else 0.0
        )
        diag(
            "DL503", Severity.NOTE,
            f"cost-improving reorder available: body order"
            f" {list(entry.order)} costs {_finite(entry.cost)} vs"
            f" {_finite(entry.source_cost)} for source order"
            f" ({ratio:.2f}x), in {rule!r}",
        )
    return out


def _canonical_literal(
    literal: Literal, numbering: Dict[Var, int]
) -> Tuple:
    parts: List[Tuple] = []
    for term in literal.args:
        if isinstance(term, Const):
            parts.append(("c", repr(term.value)))
        else:
            parts.append(("v", numbering.setdefault(term, len(numbering))))
    return (literal.pred, literal.negated, tuple(parts))


def _shared_prefixes(
    program: Program,
    rule_costs: Sequence[RuleCost],
    signatures: Dict[str, Optional[BuiltinSignature]],
) -> List[Diagnostic]:
    """DL504: rules whose chosen orders share a canonical 2-literal
    prefix — the joint subplan could be evaluated once and cached."""
    groups: Dict[Tuple, List[int]] = {}
    for entry in rule_costs:
        rule = program.rules[entry.rule_index]
        if len(rule.body) < 2:
            continue
        numbering: Dict[Var, int] = {}
        prefix = tuple(
            _canonical_literal(rule.body[i], numbering)
            for i in entry.order[:2]
        )
        groups.setdefault(prefix, []).append(entry.rule_index)
    out: List[Diagnostic] = []
    for prefix in sorted(groups, key=repr):
        members = groups[prefix]
        if len(members) < 2:
            continue
        first = program.rules[members[0]]
        preds = " , ".join(p for p, _, _ in prefix)
        out.append(Diagnostic(
            "DL504", Severity.NOTE,
            f"shared body prefix [{preds}] across rules"
            f" {members}: the joint subplan is evaluated"
            f" {len(members)} times per round and could be cached",
            rule_index=members[0], pos=first.pos, where=first.head.pred,
        ))
    return out


def reorder_program(
    program: Program,
    builtins: Builtins = None,
    plan: Optional[CostPlan] = None,
) -> Program:
    """The cost-ordered rewrite of ``program`` (see :meth:`CostPlan.apply`)."""
    if plan is None:
        plan = analyze_cost(program, builtins)
    return plan.apply()

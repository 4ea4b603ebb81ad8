"""Bottom-up stratified semi-naive Datalog evaluation.

The engine follows the classical discipline the paper's research
prototype implements (Section 7, modulo its LLVM backend):

1. stratify the program (negation only across strata);
2. within a stratum, evaluate by *semi-naive iteration*: each round
   re-derives only rule instances that use at least one fact discovered
   in the previous round (the "delta"), by evaluating, for every rule
   and every occurrence of an in-stratum predicate, a variant in which
   that occurrence ranges over the delta and the others over the full
   relations;
3. joins proceed left to right, probing hash indices keyed by the bound
   columns of each literal — so the attribute-sharing of a rule's
   literals directly determines join efficiency, which is precisely the
   lever the paper's configuration specialization pulls.

Storage is the shared substrate of :mod:`repro.store`: delta-aware
relations (the semi-naive ``stable``/``delta``/``pending`` lifecycle is
implemented there, once, for this engine and the solvers) with the
column-subset indices each join will probe planned up front from the
program (:func:`repro.store.plan_indices`) instead of lazily on first
probe.

Builtins (context constructors, comparisons) are evaluated inline when
reached; negated literals must be fully bound.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.ast import Const, Literal, Program, Rule, Var
from repro.datalog.builtins import DEFAULT_BUILTINS, BuiltinFn
from repro.store import Relation, TupleStore, plan_indices
from repro.datalog.stratify import stratify

Bindings = Dict[Var, object]


class EngineStats:
    """Counters for one evaluation."""

    def __init__(self) -> None:
        self.rounds = 0
        self.rule_evaluations = 0
        self.facts_derived = 0
        self.seconds = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "rounds": self.rounds,
            "rule_evaluations": self.rule_evaluations,
            "facts_derived": self.facts_derived,
            "seconds": self.seconds,
        }


class Engine:
    """Evaluates a :class:`Program` to fixpoint."""

    def __init__(
        self,
        program: Program,
        builtins: Optional[Dict[str, BuiltinFn]] = None,
        strict: bool = False,
        cost_order: bool = False,
    ):
        self.builtins: Dict[str, BuiltinFn] = dict(DEFAULT_BUILTINS)
        if builtins:
            self.builtins.update(builtins)
        if cost_order:
            # Rewrite each rule body into the cost-chosen join order
            # (a legal permutation under the same left-to-right binding
            # discipline, so results are bit-identical — the index plan
            # below then serves the *chosen* probes).
            from repro.datalog.cost import reorder_program

            program = reorder_program(program, builtins=self.builtins)
        self.cost_ordered = cost_order
        if strict:
            # Full semantic analysis up front: rejects programs the
            # basic validate() accepts but that would fail mid-join
            # (e.g. a negated literal reached before its variables are
            # bound under the left-to-right evaluation order).
            from repro.datalog.lint import lint_program

            lint_program(
                program, builtins=self.builtins, subject="program"
            ).raise_if_errors()
        program.validate()
        self.program = program
        overlap = set(self.builtins) & (
            program.idb_predicates() | set(program.facts)
        )
        if overlap:
            raise ValueError(
                f"predicates {sorted(overlap)} are both builtins and"
                " stored relations"
            )
        self.store = TupleStore()
        self.relations: Dict[str, Relation] = self.store.relations()
        self._index_plan = plan_indices(program, builtins=self.builtins)
        self.stats = EngineStats()
        self._install_facts()

    # ------------------------------------------------------------------

    def _relation(self, pred: str, arity: int) -> Relation:
        rel = self.relations.get(pred)
        if rel is None:
            rel = self.store.relation(pred, arity)
            for positions in sorted(self._index_plan.get(pred, ())):
                rel.ensure_index(positions)
        return rel

    def _install_facts(self) -> None:
        # Extensional rows load directly as stable: joinable, but never
        # part of a stratum's delta.
        for pred, rows in self.program.facts.items():
            for row in rows:
                self._relation(pred, len(row)).load(row)
        # Facts written as body-less rules with constant heads.
        for rule in self.program.rules:
            if rule.is_fact():
                row = tuple(
                    t.value if isinstance(t, Const) else None
                    for t in rule.head.args
                )
                if any(
                    isinstance(t, Var) for t in rule.head.args
                ):  # pragma: no cover - rejected by validate()
                    raise ValueError(f"non-ground fact {rule!r}")
                self._relation(rule.head.pred, rule.head.arity).load(row)

    # ------------------------------------------------------------------

    def run(self) -> Dict[str, Set[Tuple]]:
        """Evaluate to fixpoint; returns predicate → row set."""
        start = time.perf_counter()
        strata = stratify(self.program, set(self.builtins))
        rules = [r for r in self.program.rules if not r.is_fact()]
        for stratum in strata:
            self._evaluate_stratum(
                stratum, [r for r in rules if r.head.pred in stratum]
            )
        self.stats.seconds = time.perf_counter() - start
        return {name: rel.snapshot() for name, rel in self.relations.items()}

    def query(self, pred: str) -> Set[Tuple]:
        """The rows of one predicate (empty if never populated)."""
        rel = self.relations.get(pred)
        return rel.snapshot() if rel else set()

    def store_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-relation store counters (rows, inserts, dedup, probes,
        index builds/sizes) — see :meth:`repro.store.TupleStore.describe`."""
        return self.store.describe()

    # ------------------------------------------------------------------

    def _evaluate_stratum(self, stratum: Set[str], rules: List[Rule]) -> None:
        heads = {
            rule.head.pred: self._relation(rule.head.pred, rule.head.arity)
            for rule in rules
        }

        # Round zero: evaluate every rule against the full (EDB +
        # earlier-strata) database; new rows land in each relation's
        # pending frontier.
        for rule in rules:
            head = heads[rule.head.pred]
            for row in self._evaluate_rule(rule, None, None):
                if head.add(row):
                    self.stats.facts_derived += 1

        # Semi-naive rounds: cut the frontier (pending → delta), then
        # re-derive only rule instances touching some delta.
        delta: Dict[str, Sequence[Tuple]] = {
            pred: rel.promote() for pred, rel in heads.items()
        }
        while any(delta.values()):
            self.stats.rounds += 1
            for rule in rules:
                head = heads[rule.head.pred]
                positions = [
                    i
                    for i, lit in enumerate(rule.body)
                    if not lit.negated
                    and lit.pred in stratum
                    and delta.get(lit.pred)
                ]
                for position in positions:
                    for row in self._evaluate_rule(
                        rule, position, delta[rule.body[position].pred]
                    ):
                        if head.add(row):
                            self.stats.facts_derived += 1
            delta = {pred: rel.promote() for pred, rel in heads.items()}

    # ------------------------------------------------------------------

    def _evaluate_rule(
        self,
        rule: Rule,
        delta_position: Optional[int],
        delta_rows: Optional[Set[Tuple]],
    ) -> Iterator[Tuple]:
        """Yield head rows derivable for the given delta configuration."""
        self.stats.rule_evaluations += 1
        head = rule.head

        # Per-evaluation hash index over the delta rows (built lazily,
        # keyed by the probe's bound positions): without it every prefix
        # binding would re-scan the whole delta set linearly, which
        # penalizes any body order that doesn't put the delta literal
        # first — the index makes the delta probe as cheap as a stable
        # relation probe.
        self._delta_index: Dict[Tuple[int, ...], Dict[Tuple, List[Tuple]]] = {}

        def substitute(bindings: Bindings) -> Tuple:
            return tuple(
                bindings[t] if isinstance(t, Var) else t.value
                for t in head.args
            )

        for bindings in self._join(rule.body, 0, {}, delta_position, delta_rows):
            yield substitute(bindings)

    def _join(
        self,
        body: Sequence[Literal],
        index: int,
        bindings: Bindings,
        delta_position: Optional[int],
        delta_rows: Optional[Set[Tuple]],
    ) -> Iterator[Bindings]:
        if index == len(body):
            yield bindings
            return
        literal = body[index]

        if literal.pred in self.builtins:
            yield from self._eval_builtin(
                literal, bindings, body, index, delta_position, delta_rows
            )
            return

        if literal.negated:
            yield from self._eval_negated(
                literal, bindings, body, index, delta_position, delta_rows
            )
            return

        # Resolve the probe key from already-bound variables & constants.
        bound_positions: List[int] = []
        key_values: List[object] = []
        for position, term in enumerate(literal.args):
            if isinstance(term, Const):
                bound_positions.append(position)
                key_values.append(term.value)
            elif term in bindings:
                bound_positions.append(position)
                key_values.append(bindings[term])

        if index == delta_position:
            positions = tuple(bound_positions)
            buckets = self._delta_index.get(positions)
            if buckets is None:
                buckets = {}
                for row in delta_rows:
                    key = tuple(row[p] for p in positions)
                    buckets.setdefault(key, []).append(row)
                self._delta_index[positions] = buckets
            candidates: Sequence[Tuple] = buckets.get(
                tuple(key_values), ()
            )
        else:
            relation = self.relations.get(literal.pred)
            if relation is None:
                return
            candidates = relation.lookup(
                tuple(bound_positions), tuple(key_values)
            )

        for row in candidates:
            extended = self._unify(literal, row, bindings)
            if extended is not None:
                yield from self._join(
                    body, index + 1, extended, delta_position, delta_rows
                )

    @staticmethod
    def _unify(
        literal: Literal, row: Tuple, bindings: Bindings
    ) -> Optional[Bindings]:
        extended = dict(bindings)
        for term, value in zip(literal.args, row):
            if isinstance(term, Const):
                if term.value != value:
                    return None
            elif term not in extended:
                extended[term] = value
            elif extended[term] != value:
                return None
        return extended

    def _eval_builtin(
        self, literal, bindings, body, index, delta_position, delta_rows
    ) -> Iterator[Bindings]:
        fn = self.builtins[literal.pred]
        call_args = tuple(
            (bindings.get(t, t) if isinstance(t, Var) else t.value)
            for t in literal.args
        )
        produced = fn(call_args)
        if literal.negated:
            if next(iter(produced), None) is None:
                yield from self._join(
                    body, index + 1, bindings, delta_position, delta_rows
                )
            return
        for completed in produced:
            extended = dict(bindings)
            consistent = True
            for term, value in zip(literal.args, completed):
                if isinstance(term, Var):
                    if term not in extended:
                        extended[term] = value
                    elif extended[term] != value:
                        consistent = False
                        break
                elif term.value != value:
                    consistent = False
                    break
            if consistent:
                yield from self._join(
                    body, index + 1, extended, delta_position, delta_rows
                )

    def _eval_negated(
        self, literal, bindings, body, index, delta_position, delta_rows
    ) -> Iterator[Bindings]:
        args = []
        for term in literal.args:
            if isinstance(term, Const):
                args.append(term.value)
            else:
                if term not in bindings:
                    raise ValueError(
                        f"negated literal {literal!r} reached with"
                        f" unbound variable {term!r}"
                    )
                args.append(bindings[term])
        relation = self.relations.get(literal.pred)
        present = relation is not None and tuple(args) in relation
        if not present:
            yield from self._join(
                body, index + 1, bindings, delta_position, delta_rows
            )


def evaluate(
    program: Program, builtins=None, strict: bool = False,
    cost_order: bool = False,
) -> Dict[str, Set[Tuple]]:
    """One-shot evaluation convenience wrapper."""
    return Engine(program, builtins, strict=strict, cost_order=cost_order).run()

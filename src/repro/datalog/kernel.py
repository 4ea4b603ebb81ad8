"""The kernel backend: semi-naive rounds over columnar integer storage.

The driver half of :mod:`repro.compile.kernels`.  Where the
interpreting :class:`~repro.datalog.engine.Engine` walks rule ASTs and
the compiled backend (:mod:`repro.datalog.codegen`) runs generated
tuple-row functions, the :class:`KernelEngine` runs generated *column*
functions over a :class:`~repro.store.columnar.ColumnarStore`: every
constant is interned up front (:func:`intern_program`), rows are
fixed-width machine-int records, deltas are contiguous row-id ranges,
and joins probe row-id buckets keyed by bare ints.

The visible result is identical to the other engines': predicate →
decoded row set for every fact predicate and every rule head (the
parity sweeps in ``tests/datalog/test_kernel.py`` pin this
bit-for-bit against the worklist solver and both Datalog backends).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.compile.kernels import KernelProgram, compile_kernels
from repro.datalog.ast import Const, Literal, Program, Rule
from repro.datalog.builtins import DEFAULT_BUILTINS, BuiltinFn
from repro.datalog.engine import EngineStats
from repro.datalog.stratify import stratify
from repro.store import ColumnarRelation, ColumnarStore, Interner


def intern_program(program: Program, interner: Interner) -> Program:
    """Rewrite every constant (rule consts and fact attributes) to its
    interned symbol.  Deterministic: iteration follows program order."""
    def encode_term(term):
        if isinstance(term, Const):
            return Const(interner.intern(term.value))
        return term

    def encode_literal(literal: Literal) -> Literal:
        return Literal(
            literal.pred,
            tuple(encode_term(t) for t in literal.args),
            negated=literal.negated,
            pos=literal.pos,
        )

    rules = [
        Rule(
            encode_literal(rule.head),
            tuple(encode_literal(lit) for lit in rule.body),
            pos=rule.pos,
        )
        for rule in program.rules
    ]
    facts = {
        pred: {interner.intern_row(row) for row in sorted(rows)}
        for pred, rows in sorted(program.facts.items())
    }
    return Program(rules=rules, facts=facts)


class KernelEngine:
    """Evaluates a :class:`Program` to fixpoint through fused kernels.

    Drop-in result-compatible with :class:`~repro.datalog.engine.Engine`
    and the compiled backend.  The kernel backend *always* interns —
    builtins cross the interner boundary through the decode/encode
    shims the kernel compiler emits.
    """

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
            # Lower the cost-chosen body orders into the kernels: the
            # rewrite happens before interning, so every generated
            # probe (and the index set it implies) follows the plan.
            from repro.datalog.cost import reorder_program

            program = reorder_program(program, builtins=self.builtins)
        self.cost_ordered = cost_order
        if strict:
            from repro.datalog.lint import lint_program

            lint_program(
                program, builtins=self.builtins, subject="program"
            ).raise_if_errors()
        program.validate()
        overlap = set(self.builtins) & (
            program.idb_predicates() | set(program.facts)
        )
        if overlap:
            raise ValueError(
                f"predicates {sorted(overlap)} are both builtins and"
                " stored relations"
            )
        self._source_program = program
        self.interner = Interner()
        self.program = intern_program(program, self.interner)
        self.kernels: KernelProgram = compile_kernels(
            self.program, builtins=self.builtins
        )
        self._functions = self.kernels.instantiate(
            self.builtins, self.interner
        )
        self.store = ColumnarStore(self.interner)
        self.stats = EngineStats()

    # -- storage -----------------------------------------------------------

    def _init_storage(self) -> None:
        # One columnar relation per predicate, bound once into the flat
        # tables the kernels index: ``db[pid]`` the row dict (membership
        # + full scans), ``idx[iid]`` a row-id bucket index, ``cols[cid]``
        # one live ``array('q')`` column.  All three views are maintained
        # incrementally by ``ColumnarRelation.add``, so binding order
        # relative to fact loading does not matter.
        ordered = sorted(self.kernels.pred_ids, key=self.kernels.pred_ids.get)
        self._relations: Dict[str, ColumnarRelation] = {}
        for pred in ordered:
            self._relations[pred] = self.store.relation(
                pred, self.kernels.arity_of(pred)
            )
        self._db: List[Dict[Tuple, int]] = [
            self._relations[pred].rows for pred in ordered
        ]
        self._idx: List[Dict] = [None] * len(self.kernels.index_ids)
        for (pred, positions), index_id in self.kernels.index_ids.items():
            self._idx[index_id] = self._relations[pred].index_view(positions)
        self._cols: List = [None] * len(self.kernels.column_ids)
        for (pred, position), slot in self.kernels.column_ids.items():
            self._cols[slot] = self._relations[pred].columns[position]

    def _insert(self, pred: str, row: Tuple) -> bool:
        return self._relations[pred].add(row)

    # -- evaluation --------------------------------------------------------

    def run(self) -> Dict[str, Set[Tuple]]:
        """Evaluate to fixpoint; returns predicate → decoded row set."""
        start = time.perf_counter()
        self._init_storage()
        for pred, rows in self.program.facts.items():
            for row in rows:
                self._relations[pred].load(row)
        for rule in self.program.rules:
            if rule.is_fact():
                self._relations[rule.head.pred].load(
                    tuple(t.value for t in rule.head.args)
                )
        strata = stratify(self.program, set(self.builtins))
        for stratum in strata:
            self._evaluate_stratum(stratum)
        self.stats.seconds = time.perf_counter() - start
        # Mirror the interpreting engine's view: fact relations plus
        # every rule-head relation (body-only EDB names stay hidden).
        visible = set(self.program.facts) | {
            rule.head.pred for rule in self.program.rules
        }
        decode = self.interner.decode_row
        return {
            pred: {decode(row) for row in self._relations[pred].rows}
            for pred in visible
        }

    def _evaluate_stratum(self, stratum: Set[str]) -> None:
        full_variants = []
        by_delta: Dict[str, List[Tuple[str, object]]] = defaultdict(list)
        for variant in self.kernels.variants:
            if variant.head not in stratum:
                continue
            fn = self._functions[variant.name]
            if variant.delta_pred is None:
                full_variants.append((variant.head, fn))
            else:
                by_delta[variant.delta_pred].append((variant.head, fn))

        heads = [
            self._relations[pred]
            for pred in dict.fromkeys(v.head for v in self.kernels.variants)
            if pred in stratum
        ]

        # Round zero: full evaluation; new rows land in each head
        # relation's pending frontier.
        for (head, fn) in full_variants:
            out: List[Tuple] = []
            fn(self._cols, self._db, self._idx, (), out)
            self.stats.rule_evaluations += 1
            for row in out:
                if self._insert(head, row):
                    self.stats.facts_derived += 1
        # Semi-naive rounds: cut each frontier (pending → delta ids)
        # and run only variants whose delta predicate moved.
        delta: Dict[str, range] = {
            rel.name: rel.promote() for rel in heads if rel.pending_ids
        }
        while delta:
            self.stats.rounds += 1
            for delta_pred, ids in delta.items():
                for (head, fn) in by_delta.get(delta_pred, ()):
                    out = []
                    fn(self._cols, self._db, self._idx, ids, out)
                    self.stats.rule_evaluations += 1
                    for row in out:
                        if self._insert(head, row):
                            self.stats.facts_derived += 1
            delta = {
                rel.name: rel.promote() for rel in heads if rel.pending_ids
            }

    # -- queries & stats ---------------------------------------------------

    def query(self, pred: str) -> Set[Tuple]:
        """The decoded rows of one predicate (empty if never populated)."""
        if not hasattr(self, "_relations"):
            return set()
        relation = self._relations.get(pred)
        if relation is None:
            return set()
        decode = self.interner.decode_row
        return {decode(row) for row in relation.rows}

    def store_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-relation store counters — see
        :meth:`repro.store.columnar.ColumnarStore.describe`."""
        return self.store.describe()


def evaluate_kernel(
    program: Program, builtins=None, strict: bool = False,
    cost_order: bool = False,
) -> Dict[str, Set[Tuple]]:
    """One-shot kernel-backend evaluation convenience wrapper."""
    return KernelEngine(
        program, builtins, strict=strict, cost_order=cost_order
    ).run()

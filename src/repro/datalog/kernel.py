"""The kernel backend: semi-naive rounds over columnar integer storage.

The driver half of :mod:`repro.compile.kernels`, and the repo's one
compiled Datalog backend (the analogue of the paper's LLVM engine,
Section 8).  Where the interpreting :class:`~repro.datalog.engine.Engine`
walks rule ASTs, the :class:`KernelEngine` runs generated *column*
functions over a :class:`~repro.store.columnar.ColumnarStore`: every
constant is interned up front (:func:`intern_program`), rows are
fixed-width machine-int records, deltas are contiguous row-id ranges,
and joins probe row-id buckets keyed by bare ints.

Only live rules are compiled and run: :func:`eliminate_dead_rules`
first drops every rule that can never fire against the fact set (a
quarter to over half of an emitted analysis).  And a rule set is
compiled once per process: the generated source, its code object and
the strata are kept in a small process cache keyed by the rule set, so
a later engine over the same live rules only executes the code object
against its own builtins and interner (see :func:`_compiled_rules`).

The visible result is identical to the interpreting engine's:
predicate → decoded row set for every non-empty fact predicate and
every rule head, dead rules' heads included, as empty sets (the parity
sweeps in ``tests/datalog/test_kernel.py`` pin this bit-for-bit against
the worklist solver and the interpreting engine).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, defaultdict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.compile.kernels import KernelProgram, compile_kernels
from repro.datalog.ast import Const, Literal, Program, Rule
from repro.datalog.builtins import DEFAULT_BUILTINS, BuiltinFn
from repro.datalog.engine import EngineStats
from repro.datalog.stratify import stratify
from repro.lint.passes import eliminate_dead_rules
from repro.store import ColumnarRelation, ColumnarStore, Interner

#: Compiled rule sets one process keeps, least recently used evicted
#: first.  An emitted analysis's entry holds 3–6 MB, most of it the
#: generated source and its code object; compiling it peaks at
#: 110–210 MB.
KERNEL_CACHE_SIZE = 8

#: key hash → (key, kernels, strata); see :func:`_compiled_rules`.
_cache: "OrderedDict[int, Tuple]" = OrderedDict()
_cache_lock = threading.Lock()


def intern_program(program: Program, interner: Interner) -> Program:
    """Rewrite every constant (rule consts and fact attributes) to its
    interned symbol.  Deterministic: iteration follows program order.
    Literals and rules without a constant are kept as they are."""
    def encode_literal(literal: Literal) -> Literal:
        if not any(isinstance(term, Const) for term in literal.args):
            return literal
        return Literal(
            literal.pred,
            tuple(
                Const(interner.intern(term.value))
                if isinstance(term, Const) else term
                for term in literal.args
            ),
            negated=literal.negated,
            pos=literal.pos,
        )

    def encode_rule(rule: Rule) -> Rule:
        head = encode_literal(rule.head)
        body = tuple(encode_literal(lit) for lit in rule.body)
        if head is rule.head and all(
            new is old for new, old in zip(body, rule.body)
        ):
            return rule
        return Rule(head, body, pos=rule.pos)

    rules = [encode_rule(rule) for rule in program.rules]
    facts = {
        pred: {interner.intern_row(row) for row in sorted(rows)}
        for pred, rows in sorted(program.facts.items())
    }
    return Program(rules=rules, facts=facts)


def _compiled_rules(
    program: Program, builtin_names: FrozenSet[str]
) -> Tuple[KernelProgram, List[Set[str]], bool]:
    """The kernels and strata of an interned program's rules, compiled
    once per process.

    The cache key is the rule list with every non-fact rule as it
    stands (interned, so its constants are the ints the kernels inline)
    and every fact rule as its head's name and arity, plus the builtin
    names.  That is all the kernels and strata depend on: fact rules
    are loaded per run, never compiled, so programs that differ only in
    their facts or fact rules share an entry.

    Returns the entry's kernels copied and bound to ``program``'s fact
    relations, the strata, and whether the entry was already cached.
    Nothing returned is shared with another caller except immutable
    parts (source, code object, variants).
    """
    key = (
        tuple(
            rule if rule.body else (rule.head.pred, rule.head.arity)
            for rule in program.rules
        ),
        builtin_names,
    )
    # Hash the key once: the cache is keyed by the hash and each entry
    # keeps its key to compare against (a collision is just a miss).
    digest = hash(key)
    with _cache_lock:
        entry = _cache.get(digest)
        if entry is not None and entry[0] == key:
            _cache.move_to_end(digest)
        else:
            entry = None
    cached = entry is not None
    if entry is None:
        rules = Program(rules=list(program.rules))
        kernels = compile_kernels(rules, builtins=builtin_names)
        kernels.code = compile(kernels.source, "<datalog-kernels>", "exec")
        strata = tuple(
            frozenset(stratum)
            for stratum in stratify(rules, set(builtin_names))
        )
        entry = (key, kernels, strata)
        with _cache_lock:
            _cache[digest] = entry
            _cache.move_to_end(digest)
            while len(_cache) > KERNEL_CACHE_SIZE:
                _cache.popitem(last=False)
    _, kernels, strata = entry
    return (
        kernels.with_relations(program.facts),
        [set(stratum) for stratum in strata],
        cached,
    )


class KernelEngine:
    """Evaluates a :class:`Program` to fixpoint through fused kernels.

    Drop-in result-compatible with :class:`~repro.datalog.engine.Engine`.
    The kernel backend *always* interns —
    builtins cross the interner boundary through the decode/encode
    shims the kernel compiler emits.

    ``program`` is the interned live program the kernels were compiled
    from, ``dead_rules`` the source rules dropped as dead, and
    ``compile_cached`` whether the kernels came from the process cache.
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
        live, self.dead_rules = eliminate_dead_rules(program, self.builtins)
        if self.dead_rules and any(
            literal.negated for rule in program.rules for literal in rule.body
        ):
            # Dropping rules drops dependency edges: a program that
            # negates through recursion only via a dead rule is still
            # rejected, as the other engines reject it.
            stratify(program, set(self.builtins))
        self.interner = Interner()
        self.program = intern_program(live, self.interner)
        self.kernels: KernelProgram
        self.kernels, self._strata, self.compile_cached = _compiled_rules(
            self.program, frozenset(self.builtins)
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
        # Dead rules' relations stay in the store, empty, so it holds
        # every relation of the source program.
        for rule in self.dead_rules:
            for literal in (rule.head, *rule.body):
                pred = literal.pred
                if pred not in self._relations and pred not in self.builtins:
                    self._relations[pred] = self.store.relation(
                        pred, literal.arity
                    )

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
        for stratum in self._strata:
            self._evaluate_stratum(stratum)
        self.stats.seconds = time.perf_counter() - start
        # Mirror the interpreting engine's view: non-empty fact
        # relations plus every rule-head relation, dead ones included
        # (body-only EDB names and empty fact relations stay hidden).
        visible = {
            pred for pred, rows in self.program.facts.items() if rows
        } | {rule.head.pred for rule in self._source_program.rules}
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

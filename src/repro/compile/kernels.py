"""Fused integer join kernels over the columnar store.

The last step of the paper's Section 7 pipeline.  Configuration
specialization (:mod:`repro.compile.specialize` → :mod:`.emit`) turns
every ``comp``/``inv``/``merge`` constraint into plain Datalog over
per-configuration relations ``base__x^a w? e^b`` whose transformer
letters are ordinary attributes — at which point arities and
shared-variable positions are *statically known*, and nothing generic
needs to survive into the hot loop.  This module cashes that in: each
(rule × delta-position) variant is compiled to a straight-line Python
function over the :class:`~repro.store.columnar.ColumnarRelation`
arrays of an interned program — no ``TransformerString`` objects, no
literal dispatch, no tuple materialization on the probe path.

Differences from :mod:`repro.datalog.codegen` (the tuple-row code
generator it structurally mirrors):

* relations are columnar: the delta is a range of *row ids* and
  destructuring reads ``column[row_id]`` from hoisted ``array('q')``
  locals instead of indexing a materialized tuple;
* index probes hit row-id buckets keyed by bare ints (single column)
  or int tuples, so a probe allocates nothing;
* constants are inlined as int literals — the program must already be
  interned (see :func:`repro.datalog.kernel.intern_program`);
* builtins run through explicit decode/encode shims at the interner
  boundary, with the interpreting engine's exact semantics (repeated
  unbound variables checked for consistency, negated builtins
  supported).

The generated functions have the signature
``fn(cols, db, idx, delta, out)``: ``cols`` the flat column-array
table, ``db`` the per-predicate row dicts (membership + full scans),
``idx`` the row-id bucket indices, ``delta`` the frontier's id range,
``out`` the list head rows are appended to.  The driver —
:class:`~repro.datalog.kernel.KernelEngine` — owns the semi-naive
rounds.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from types import CodeType
from typing import Dict, List, Optional, Set, Tuple

from repro.compile.configurations import parse_tag
from repro.datalog.ast import Const, Literal, Program, Rule, Var
from repro.datalog.builtins import DEFAULT_BUILTINS, BuiltinFn
from repro.store.interner import Interner


class KernelCompilationError(ValueError):
    """A program the kernel compiler cannot lower (e.g. not interned)."""


def _mangle(name: str) -> str:
    return re.sub(r"\W", "_", name)


def relation_layout(name: str, arity: int) -> Dict:
    """The columnar layout of one relation, configuration-aware.

    A configuration-specialized name (``pts__xwe``-style suffix whose
    tag parses as ``x^a w? e^b``) splits into entity columns followed
    by flattened context-letter columns; anything else is all entity.
    """
    base, sep, tag = name.partition("__")
    if sep:
        try:
            configuration = parse_tag(tag)
        except ValueError:
            configuration = None
        if configuration is not None:
            return {
                "relation": name,
                "arity": arity,
                "base": base,
                "tag": tag,
                "context_arity": configuration.context_arity,
                "entity_arity": arity - configuration.context_arity,
            }
    return {
        "relation": name,
        "arity": arity,
        "base": None,
        "tag": None,
        "context_arity": 0,
        "entity_arity": arity,
    }


@dataclass(frozen=True)
class KernelVariant:
    """One compiled (rule × delta-position) function."""

    rule_index: int
    delta_position: Optional[int]
    head: str
    delta_pred: Optional[str]
    name: str


@dataclass
class KernelProgram:
    """The compiled kernels plus the storage-binding tables a driver
    needs: predicate → ``db`` slot, (predicate, positions) → ``idx``
    slot, (predicate, column) → ``cols`` slot.  ``code`` is ``source``
    compiled, set by the first :meth:`instantiate` unless a caller
    already holds it."""

    source: str
    variants: List[KernelVariant]
    pred_ids: Dict[str, int]
    pred_arities: Dict[str, int]
    index_ids: Dict[Tuple[str, Tuple[int, ...]], int]
    column_ids: Dict[Tuple[str, int], int]
    builtin_ids: Dict[str, int]
    var_pool: List[Var]
    variants_by_key: Dict[Tuple[int, Optional[int]], KernelVariant] = field(
        default_factory=dict
    )
    code: Optional[CodeType] = None

    def __post_init__(self) -> None:
        if not self.variants_by_key:
            self.variants_by_key = {
                (v.rule_index, v.delta_position): v for v in self.variants
            }

    def arity_of(self, pred: str) -> int:
        return self.pred_arities[pred]

    def with_relations(self, facts: Dict[str, Set[Tuple]]) -> "KernelProgram":
        """A copy with a ``db`` slot and an arity for every relation of
        ``facts`` as well.  Every table is copied; only the immutable
        source, code object and variants are shared, so a copy can be
        changed without touching the program it came from."""
        pred_ids = dict(self.pred_ids)
        pred_arities = dict(self.pred_arities)
        for pred, rows in facts.items():
            pred_ids.setdefault(pred, len(pred_ids))
            for row in rows:
                pred_arities.setdefault(pred, len(row))
                break
        return KernelProgram(
            source=self.source,
            variants=list(self.variants),
            pred_ids=pred_ids,
            pred_arities=pred_arities,
            index_ids=dict(self.index_ids),
            column_ids=dict(self.column_ids),
            builtin_ids=dict(self.builtin_ids),
            var_pool=list(self.var_pool),
            code=self.code,
        )

    def instantiate(
        self,
        builtins: Optional[Dict[str, BuiltinFn]] = None,
        interner: Optional[Interner] = None,
    ):
        """Exec the compiled source; returns ``{function name: fn}``.

        The functions close over nothing mutable per run — storage is
        passed per call — so one instantiation can be shared by many
        drivers that share the builtins and the interner.
        """
        if self.builtin_ids and interner is None:
            raise KernelCompilationError(
                "kernels with builtins need an interner for the"
                " decode/encode boundary"
            )
        table: List[Optional[BuiltinFn]] = [None] * len(self.builtin_ids)
        for name, slot in self.builtin_ids.items():
            fn = (builtins or {}).get(name, DEFAULT_BUILTINS.get(name))
            if fn is None:
                raise KernelCompilationError(f"unknown builtin {name!r}")
            table[slot] = fn
        namespace = {
            "_B": table,
            "_V": self.var_pool,
            "_EMPTY": (),
            "_dec": interner.value_of if interner is not None else None,
            "_enc": interner.intern if interner is not None else None,
        }
        if self.code is None:
            self.code = compile(self.source, "<datalog-kernels>", "exec")
        exec(self.code, namespace)
        return {v.name: namespace[v.name] for v in self.variants}

    def layout(self) -> List[Dict]:
        """Per-relation columnar layouts (configuration split included)."""
        return [
            relation_layout(pred, self.pred_arities[pred])
            for pred in sorted(self.pred_arities)
        ]


class _KernelCompiler:
    """Emits one kernel function for (rule, delta position or None)."""

    def __init__(
        self,
        rule: Rule,
        delta_position: Optional[int],
        builtin_names: Set[str],
        function_name: str,
        pred_ids: Dict[str, int],
        index_ids: Dict[Tuple[str, Tuple[int, ...]], int],
        column_ids: Dict[Tuple[str, int], int],
        builtin_ids: Dict[str, int],
        var_pool: List[Var],
    ):
        self.rule = rule
        self.delta_position = delta_position
        self.builtin_names = builtin_names
        self.function_name = function_name
        self._pred_ids = pred_ids
        self._index_ids = index_ids
        self._column_ids = column_ids
        self._builtin_ids = builtin_ids
        self._var_pool = var_pool
        self.lines: List[str] = []
        self.indent = 1
        self.loop_depth = 0
        self.bound: Dict[Var, str] = {}
        self.fresh = itertools.count()
        self._used_columns: Dict[int, None] = {}
        self._delta_index_lines: List[str] = []

    # -- plumbing ----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def emit_guard(self, condition: str) -> None:
        # Inside a loop a failed guard skips the candidate; before any
        # loop it means the whole rule yields nothing.
        self.emit(f"if {condition}:")
        self.indent += 1
        self.emit("continue" if self.loop_depth else "return")
        self.indent -= 1

    def open_loop(self, header: str) -> None:
        self.emit(header)
        self.indent += 1
        self.loop_depth += 1

    def local(self, hint: str = "t") -> str:
        return f"_{hint}{next(self.fresh)}"

    def _pred_id(self, pred: str) -> int:
        return self._pred_ids.setdefault(pred, len(self._pred_ids))

    def _index_id(self, pred: str, positions: Tuple[int, ...]) -> int:
        return self._index_ids.setdefault(
            (pred, positions), len(self._index_ids)
        )

    def _builtin_id(self, pred: str) -> int:
        return self._builtin_ids.setdefault(pred, len(self._builtin_ids))

    def _column(self, pred: str, position: int) -> str:
        slot = self._column_ids.setdefault(
            (pred, position), len(self._column_ids)
        )
        self._used_columns[slot] = None
        return f"_col{slot}"

    def _const_expr(self, term: Const) -> str:
        if not isinstance(term.value, int) or isinstance(term.value, bool):
            raise KernelCompilationError(
                f"kernel constants must be interned ints; got"
                f" {term.value!r} in {self.rule!r} — run the program"
                " through intern_program first"
            )
        return repr(term.value)

    def _term_expr(self, term) -> Optional[str]:
        if isinstance(term, Const):
            return self._const_expr(term)
        return self.bound.get(term)

    # -- code emission -----------------------------------------------------

    def compile(self) -> str:
        self.lines.append(
            f"def {self.function_name}(cols, db, idx, delta, out):"
        )
        for index, literal in enumerate(self.rule.body):
            if index == self.delta_position:
                self._emit_delta_scan(literal)
            elif literal.pred in self.builtin_names:
                self._emit_builtin(literal)
            elif literal.negated:
                self._emit_negation(literal)
            else:
                self._emit_lookup(literal)
        self._emit_head()
        # Hoist the used column arrays once, after the def line.
        preamble = [
            f"    _col{slot} = cols[{slot}]" for slot in self._used_columns
        ]
        preamble += ["    " + line for line in self._delta_index_lines]
        self.lines[1:1] = preamble
        if len(self.lines) == 1:
            self.emit("pass")
        return "\n".join(self.lines)

    def _destructure_columns(self, literal: Literal, rid: str) -> None:
        # Left-to-right, interleaving binds and equality guards (a
        # repeated variable's second occurrence checks against its
        # first; constants filter rows) — reading column[rid] instead
        # of a materialized tuple.
        pending_checks: List[str] = []
        for position, term in enumerate(literal.args):
            cell = f"{self._column(literal.pred, position)}[{rid}]"
            if isinstance(term, Const):
                pending_checks.append(f"{cell} != {self._const_expr(term)}")
            elif term in self.bound:
                pending_checks.append(f"{cell} != {self.bound[term]}")
            else:
                if pending_checks:
                    self.emit_guard(" or ".join(pending_checks))
                    pending_checks = []
                name = self.local(_mangle(term.name))
                self.emit(f"{name} = {cell}")
                self.bound[term] = name
        if pending_checks:
            self.emit_guard(" or ".join(pending_checks))

    def _destructure_tuple(self, literal: Literal, row: str) -> None:
        # Full scans iterate the row dict and hand out tuples.
        pending_checks: List[str] = []
        for position, term in enumerate(literal.args):
            cell = f"{row}[{position}]"
            if isinstance(term, Const):
                pending_checks.append(f"{cell} != {self._const_expr(term)}")
            elif term in self.bound:
                pending_checks.append(f"{cell} != {self.bound[term]}")
            else:
                if pending_checks:
                    self.emit_guard(" or ".join(pending_checks))
                    pending_checks = []
                name = self.local(_mangle(term.name))
                self.emit(f"{name} = {cell}")
                self.bound[term] = name
        if pending_checks:
            self.emit_guard(" or ".join(pending_checks))

    def _emit_delta_scan(self, literal: Literal) -> None:
        bound_positions = tuple(
            position
            for position, term in enumerate(literal.args)
            if isinstance(term, Const) or term in self.bound
        )
        rid = self.local("r")
        if bound_positions:
            # Bucket the delta ids by the probe's bound columns once per
            # invocation (the build lands in the function preamble,
            # before any outer loop opens).  Without it every prefix
            # binding would rescan the whole delta behind equality
            # guards — penalizing any body order that doesn't put the
            # delta literal first.
            build_rid = self.local("dr")
            cells = [
                f"{self._column(literal.pred, p)}[{build_rid}]"
                for p in bound_positions
            ]
            build_key = (
                cells[0] if len(cells) == 1
                else "(" + ", ".join(cells) + ")"
            )
            self._delta_index_lines = [
                "_dbuckets = {}",
                f"for {build_rid} in delta:",
                f"    _dbuckets.setdefault({build_key}, [])"
                f".append({build_rid})",
            ]
            key_terms = [literal.args[p] for p in bound_positions]
            if len(key_terms) == 1:
                key = self._term_expr(key_terms[0])
            else:
                key = (
                    "(" + ", ".join(self._term_expr(t) for t in key_terms)
                    + ")"
                )
            self.open_loop(f"for {rid} in _dbuckets.get({key}, _EMPTY):")
        else:
            self.open_loop(f"for {rid} in delta:")
        self._destructure_columns(literal, rid)

    def _emit_lookup(self, literal: Literal) -> None:
        bound_positions = tuple(
            position
            for position, term in enumerate(literal.args)
            if isinstance(term, Const) or term in self.bound
        )
        if len(bound_positions) == len(literal.args):
            # Fully bound: membership test on the row dict.
            key = ", ".join(self._term_expr(t) for t in literal.args)
            trailing = "," if len(literal.args) == 1 else ""
            self.emit_guard(
                f"({key}{trailing}) not in db[{self._pred_id(literal.pred)}]"
            )
            return
        if bound_positions:
            key_terms = [literal.args[p] for p in bound_positions]
            if len(key_terms) == 1:
                # Single-column bucket: bare int key, no tuple built.
                key = self._term_expr(key_terms[0])
            else:
                key = (
                    "(" + ", ".join(self._term_expr(t) for t in key_terms)
                    + ")"
                )
            rid = self.local("r")
            self.open_loop(
                f"for {rid} in"
                f" idx[{self._index_id(literal.pred, bound_positions)}]"
                f".get({key}, _EMPTY):"
            )
            self._destructure_columns(literal, rid)
        else:
            row = self.local("t")
            self.open_loop(f"for {row} in db[{self._pred_id(literal.pred)}]:")
            self._destructure_tuple(literal, row)

    def _emit_negation(self, literal: Literal) -> None:
        if any(self._term_expr(t) is None for t in literal.args):
            raise KernelCompilationError(
                f"negated literal {literal!r} reached with unbound"
                f" variables in {self.rule!r}"
            )
        key = ", ".join(self._term_expr(t) for t in literal.args)
        trailing = "," if len(literal.args) == 1 else ""
        self.emit_guard(
            f"({key}{trailing}) in db[{self._pred_id(literal.pred)}]"
        )

    def _emit_builtin(self, literal: Literal) -> None:
        # The interner boundary: builtins see raw values.  Bound args
        # decode (O(1) table read, no allocation); produced values for
        # unbound positions re-intern.  Semantics mirror the
        # interpreting engine's _eval_builtin exactly — including the
        # repeated-unbound-variable consistency check and negated
        # builtins (both of which repro.datalog.codegen elides).
        args: List[str] = []
        unbound: List[Tuple[int, Var]] = []
        for position, term in enumerate(literal.args):
            expr = self._term_expr(term)
            if expr is None:
                self._var_pool.append(term)
                args.append(f"_V[{len(self._var_pool) - 1}]")
                unbound.append((position, term))
            else:
                args.append(f"_dec({expr})")
        call = (
            f"_B[{self._builtin_id(literal.pred)}]"
            f"(({', '.join(args)}{',' if len(args) == 1 else ''}))"
        )
        if literal.negated:
            # Succeeds iff the builtin produces nothing; never binds
            # (unbound variables are passed through as Var objects,
            # exactly like the interpreter).
            self.emit_guard(f"next(iter({call}), None) is not None")
            return
        row = self.local("b")
        self.open_loop(f"for {row} in {call}:")
        pending_checks: List[str] = []
        for position, term in enumerate(literal.args):
            cell = f"{row}[{position}]"
            if isinstance(term, Const):
                pending_checks.append(
                    f"{cell} != _dec({self._const_expr(term)})"
                )
            elif term in self.bound:
                pending_checks.append(f"{cell} != _dec({self.bound[term]})")
            else:
                if pending_checks:
                    self.emit_guard(" or ".join(pending_checks))
                    pending_checks = []
                name = self.local(_mangle(term.name))
                self.emit(f"{name} = _enc({cell})")
                self.bound[term] = name
        if pending_checks:
            self.emit_guard(" or ".join(pending_checks))

    def _emit_head(self) -> None:
        head = self.rule.head
        key = ", ".join(self._term_expr(t) for t in head.args)
        trailing = "," if len(head.args) == 1 else ""
        self.emit(f"out.append(({key}{trailing}))")


def compile_kernels(
    program: Program,
    builtins: Optional[Dict[str, BuiltinFn]] = None,
) -> KernelProgram:
    """Compile a program's non-fact rules to columnar kernels.

    Each variant keeps its rule's position in ``program.rules``.  Delta
    variants are generated for every positive, non-builtin IDB body
    position (variant selection at run time is the driver's job).

    The program must be interned (all constants ints); the compiler
    raises :class:`KernelCompilationError` otherwise.
    """
    builtin_names = set(DEFAULT_BUILTINS)
    if builtins:
        builtin_names |= set(builtins)
    idb = program.idb_predicates()

    pred_ids: Dict[str, int] = {}
    index_ids: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    column_ids: Dict[Tuple[str, int], int] = {}
    builtin_ids: Dict[str, int] = {}
    var_pool: List[Var] = []

    sources: List[str] = []
    variants: List[KernelVariant] = []
    for rule_index, rule in enumerate(program.rules):
        if rule.is_fact():
            continue
        positions: List[Optional[int]] = [None]
        positions += [
            i for i, lit in enumerate(rule.body)
            if not lit.negated and lit.pred not in builtin_names
            and lit.pred in idb
        ]
        for variant_number, delta_position in enumerate(positions):
            name = f"_k{rule_index}_v{variant_number}"
            compiler = _KernelCompiler(
                rule, delta_position, builtin_names, name,
                pred_ids, index_ids, column_ids, builtin_ids, var_pool,
            )
            sources.append(compiler.compile())
            delta_pred = (
                None if delta_position is None
                else rule.body[delta_position].pred
            )
            variants.append(
                KernelVariant(
                    rule_index, delta_position, rule.head.pred,
                    delta_pred, name,
                )
            )

    # Every predicate mentioned anywhere — fact relations included —
    # gets a db slot and an arity: drivers bind storage for the whole
    # program once.
    pred_arities: Dict[str, int] = {}
    for rule in program.rules:
        for literal in (rule.head, *rule.body):
            if literal.pred in builtin_names:
                continue
            pred_ids.setdefault(literal.pred, len(pred_ids))
            pred_arities.setdefault(literal.pred, literal.arity)

    rules_only = KernelProgram(
        source="\n\n".join(sources),
        variants=variants,
        pred_ids=pred_ids,
        pred_arities=pred_arities,
        index_ids=index_ids,
        column_ids=column_ids,
        builtin_ids=builtin_ids,
        var_pool=var_pool,
    )
    return rules_only.with_relations(program.facts)

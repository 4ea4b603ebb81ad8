"""Columnar relation storage for the integer kernel backend.

The paper's Section 7 implementation claim is that configuration
specialization makes every join *fully indexed and fully flattened*:
once a relation's transformer-string letters are attributes, rows are
fixed-width integer records and joins are equality probes on known
column subsets.  :class:`ColumnarRelation` is the storage half of that
claim — each attribute lives in its own ``array('q')`` of machine
ints, and indices are buckets of *row ids* instead of buckets of
tuples, so the kernel compiler (:mod:`repro.compile.kernels`) can emit
straight-line loops that read ``column[row_id]`` without materializing
tuples in the hot path.

The semi-naive stable/delta/pending lifecycle of
:class:`repro.store.relation.Relation` is preserved, but becomes three
*contiguous id ranges* — rows are append-only (no retraction), so
``promote()`` is two mark advances instead of a list swap:

    ids [0, stable_end)      stable
    ids [stable_end, delta_end)   delta (the current frontier)
    ids [delta_end, len)     pending

Row *tuples* still exist exactly once, as the keys of the dedup dict
(``rows``, which the kernels probe for membership and scan in full)
and the shared id → row spine; the kernels read the arrays.

All values must be ``int`` — callers intern first (see
``repro.datalog.kernel.intern_program``).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.store.interner import Interner
from repro.store.relation import Row
from repro.store.stats import RelationCounters

#: Index keys: a bare int for single-column indices (probed without a
#: tuple allocation), a tuple of ints otherwise.
IndexKey = Union[int, Tuple[int, ...]]


class ColumnarRelation:
    """A named set of equal-arity int tuples stored column-wise."""

    __slots__ = (
        "name", "arity", "rows", "columns", "counters", "track_delta",
        "_row_of", "_indices", "_stable_end", "_delta_end",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        counters: Optional[RelationCounters] = None,
        track_delta: bool = True,
    ):
        if arity is None:
            raise ValueError(
                f"columnar relation {name!r} needs a declared arity"
            )
        self.name = name
        self.arity = arity
        #: row tuple → row id (the dedup structure; iterating yields rows).
        self.rows: Dict[Row, int] = {}
        #: one machine-int array per attribute position.
        self.columns: List[array] = [array("q") for _ in range(arity)]
        self.counters = counters if counters is not None else RelationCounters()
        self.track_delta = track_delta
        #: row id → row tuple spine (references the dict keys; no copies).
        self._row_of: List[Row] = []
        self._indices: Dict[Tuple[int, ...], Dict[IndexKey, List[int]]] = {}
        self._stable_end = 0
        self._delta_end = 0

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, row: Row) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._row_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRelation({self.name!r}/{self.arity},"
            f" {len(self._row_of)} rows)"
        )

    # -- insertion ---------------------------------------------------------

    def _check_row(self, row: Row) -> None:
        if len(row) != self.arity:
            raise ValueError(
                f"arity mismatch inserting {row!r} into"
                f" {self.name}/{self.arity}"
            )
        for value in row:
            if not isinstance(value, int):
                raise TypeError(
                    f"columnar relation {self.name!r} holds ints only;"
                    f" got {value!r} — intern values first"
                )

    def _append(self, row: Row) -> int:
        """Append a (new, checked) row to every storage structure."""
        rid = len(self._row_of)
        self.rows[row] = rid
        self._row_of.append(row)
        for position, column in enumerate(self.columns):
            column.append(row[position])
        for positions, index in self._indices.items():
            key = self._index_key(positions, row)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [rid]
            else:
                bucket.append(rid)
        self.counters.inserts += 1
        return rid

    def add(self, row: Row) -> bool:
        """Insert ``row`` into the pending frontier; True iff new."""
        self._check_row(row)
        if row in self.rows:
            self.counters.dedup_hits += 1
            return False
        rid = self._append(row)
        if not self.track_delta:
            # Worklist-style callers keep their own frontier: stabilize
            # immediately, exactly like Relation(track_delta=False).add.
            if self._stable_end == rid and self._delta_end == rid:
                self._stable_end = self._delta_end = rid + 1
        return True

    def load(self, row: Row) -> bool:
        """Insert ``row`` directly as stable (no frontier tracking).

        Stability is a *contiguous prefix* of row ids, so a load is
        only stable when no frontier has been cut yet (the extensional
        case).  A late load — after evaluation has started — lands in
        pending and joins the next frontier: harmless for semi-naive
        correctness (the row is simply re-derived against), never
        wrong.
        """
        self._check_row(row)
        if row in self.rows:
            self.counters.dedup_hits += 1
            return False
        rid = self._append(row)
        if self._stable_end == rid and self._delta_end == rid:
            self._stable_end = self._delta_end = rid + 1
        return True

    # -- semi-naive lifecycle ----------------------------------------------

    @property
    def pending_ids(self) -> range:
        return range(self._delta_end, len(self._row_of))

    def promote(self) -> range:
        """Advance the lifecycle; returns the new frontier's id range.

        Same contract as :meth:`Relation.promote` (the return value is
        the new delta, truthy iff non-empty) — just ids, not rows.
        """
        self._stable_end = self._delta_end
        self._delta_end = len(self._row_of)
        return range(self._stable_end, self._delta_end)

    # -- lookup ------------------------------------------------------------

    @staticmethod
    def _index_key(positions: Tuple[int, ...], row: Row) -> IndexKey:
        if len(positions) == 1:
            return row[positions[0]]
        return tuple(row[p] for p in positions)

    def ensure_index(
        self, positions: Tuple[int, ...]
    ) -> Dict[IndexKey, List[int]]:
        """Materialize (or fetch) the row-id bucket index for ``positions``.

        Positions must be sorted and unique (as produced by the index
        planner).  Single-column indices key buckets by the bare int.
        """
        if positions and positions[-1] >= self.arity:
            raise ValueError(
                f"index positions {positions!r} out of range for"
                f" {self.name}/{self.arity}"
            )
        index = self._indices.get(positions)
        if index is None:
            index = {}
            for rid, row in enumerate(self._row_of):
                key = self._index_key(positions, row)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [rid]
                else:
                    bucket.append(rid)
            self._indices[positions] = index
            self.counters.index_builds += 1
        return index

    def index_view(
        self, positions: Tuple[int, ...]
    ) -> Dict[IndexKey, List[int]]:
        """The live bucket dict (kernels inline ``.get`` probes on it)."""
        return self.ensure_index(positions)

    # -- introspection -------------------------------------------------------

    def index_count(self) -> int:
        return len(self._indices)

    def index_entries(self) -> int:
        return sum(len(index) for index in self._indices.values())


class ColumnarStore:
    """Registry of named columnar relations (the kernel-run store).

    Mirrors :class:`repro.store.store.TupleStore`: one shared interner,
    one :class:`RelationCounters` per relation name, and ``describe()``
    as the uniform statistics surface — so engine stats plumb through
    unchanged whether a run used tuples or columns.
    """

    def __init__(self, interner: Optional[Interner] = None):
        self.interner = interner if interner is not None else Interner()
        self._relations: Dict[str, ColumnarRelation] = {}
        self._counters: Dict[str, RelationCounters] = {}

    def counters(self, name: str) -> RelationCounters:
        counters = self._counters.get(name)
        if counters is None:
            counters = RelationCounters()
            self._counters[name] = counters
        return counters

    def relation(
        self,
        name: str,
        arity: int,
        track_delta: bool = True,
    ) -> ColumnarRelation:
        """The columnar relation called ``name``, created on first request."""
        relation = self._relations.get(name)
        if relation is None:
            relation = ColumnarRelation(
                name, arity, counters=self.counters(name),
                track_delta=track_delta,
            )
            self._relations[name] = relation
        elif arity is not None and relation.arity != arity:
            raise ValueError(
                f"relation {name!r} exists with arity {relation.arity},"
                f" requested {arity}"
            )
        return relation

    def relations(self) -> Dict[str, ColumnarRelation]:
        """Live name → relation view."""
        return self._relations

    def describe(self) -> Dict[str, Dict[str, int]]:
        """Per-relation statistics (same keys as ``TupleStore.describe``)."""
        names = sorted(set(self._counters) | set(self._relations))
        out: Dict[str, Dict[str, int]] = {}
        for name in names:
            counters = self.counters(name)
            entry = counters.as_dict()
            relation = self._relations.get(name)
            entry["rows"] = len(relation) if relation is not None else 0
            entry["indexes"] = (
                relation.index_count() if relation is not None else 0
            )
            entry["index_entries"] = (
                relation.index_entries() if relation is not None else 0
            )
            out[name] = entry
        return out

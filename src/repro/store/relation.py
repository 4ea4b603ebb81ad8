"""Delta-aware indexed relation storage.

A :class:`Relation` is a named set of equal-arity tuples plus:

* **column-subset hash indices**, planned up front via
  :meth:`ensure_index` (see :mod:`repro.store.planner`) or built
  lazily on first probe, and maintained incrementally on insert — the
  standard scheme the paper assumes when it discusses join efficiency
  (Section 7: "A standard optimization performed by a Datalog engine is
  to build indices … and to use these indices in the join");

* the **semi-naive lifecycle**: rows are partitioned into *stable*
  (seen before the current frontier), *delta* (the current frontier)
  and *pending* (discovered since the frontier was cut).
  :meth:`promote` advances the lifecycle — implemented once here
  instead of once per engine.  Worklist-style tuple-at-a-time solvers
  that keep their own frontier construct relations with
  ``track_delta=False``;

* **uniform counters** (:class:`repro.store.stats.RelationCounters`).

The lifecycle invariants (checked by property tests in
``tests/store/test_relation.py``)::

    rows  ==  stable ∪ delta ∪ pending      (disjoint union)
    promote():  stable ∪= delta;  delta = pending;  pending = ∅
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.store.stats import RelationCounters

Row = Tuple


def multimap(pairs: Iterable[Tuple]) -> Dict:
    """A one-to-many mapping ``{key: [value, …]}`` built from pairs.

    The shared helper behind the static input indices of the worklist
    and CFL solvers; lives here so no execution path hand-rolls its own
    index plumbing.
    """
    mapping: Dict = {}
    for key, value in pairs:
        bucket = mapping.get(key)
        if bucket is None:
            mapping[key] = [value]
        else:
            bucket.append(value)
    return mapping


class Relation:
    """A named tuple set with planned/lazy indices and delta lifecycle."""

    __slots__ = (
        "name", "arity", "rows", "counters", "track_delta",
        "_indices", "_delta", "_pending",
    )

    def __init__(
        self,
        name: str,
        arity: Optional[int] = None,
        counters: Optional[RelationCounters] = None,
        track_delta: bool = True,
    ):
        self.name = name
        self.arity = arity
        self.rows: Set[Row] = set()
        self.counters = counters if counters is not None else RelationCounters()
        self.track_delta = track_delta
        self._indices: Dict[Tuple[int, ...], Dict[Tuple, List[Row]]] = {}
        #: Current frontier (last promoted batch), in derivation order.
        self._delta: List[Row] = []
        #: Rows inserted since the frontier was cut, in derivation order.
        self._pending: List[Row] = []

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}/{self.arity}, {len(self.rows)} rows)"

    # -- insertion ---------------------------------------------------------

    def _check_arity(self, row: Row) -> None:
        if self.arity is not None and len(row) != self.arity:
            raise ValueError(
                f"arity mismatch inserting {row!r} into"
                f" {self.name}/{self.arity}"
            )

    def add(self, row: Row) -> bool:
        """Insert ``row`` into the pending frontier; True iff new."""
        self._check_arity(row)
        if row in self.rows:
            self.counters.dedup_hits += 1
            return False
        self.rows.add(row)
        self.counters.inserts += 1
        if self.track_delta:
            self._pending.append(row)
        for positions, index in self._indices.items():
            key = tuple(row[i] for i in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return True

    def load(self, row: Row) -> bool:
        """Insert ``row`` directly as stable (no frontier tracking).

        Used for extensional facts installed before evaluation begins:
        they must be joinable but must not appear in any delta.
        """
        self._check_arity(row)
        if row in self.rows:
            self.counters.dedup_hits += 1
            return False
        self.rows.add(row)
        self.counters.inserts += 1
        for positions, index in self._indices.items():
            key = tuple(row[i] for i in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return True

    def add_all(self, rows: Iterable[Row]) -> int:
        """Insert many rows; returns the number actually new."""
        return sum(1 for row in rows if self.add(row))

    # -- retraction ---------------------------------------------------------

    def retract(self, row: Row) -> bool:
        """Remove ``row`` everywhere it lives; True iff it was present.

        The delete half of the incremental lifecycle (DRed overdeletion
        runs through here): the row leaves the row set, every
        materialized column-subset index, *and* — when it has not yet
        been promoted past the frontier — the ``delta``/``pending``
        lists, so a retracted row can never resurface from a later
        :meth:`promote` or linger in an index bucket.
        """
        if row not in self.rows:
            return False
        self.rows.discard(row)
        self.counters.retracts += 1
        for positions, index in self._indices.items():
            key = tuple(row[i] for i in positions)
            bucket = index.get(key)
            if bucket is not None:
                try:
                    bucket.remove(row)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not bucket:
                    del index[key]
        if self.track_delta:
            if row in self._pending:
                self._pending = [r for r in self._pending if r != row]
            if row in self._delta:
                self._delta = [r for r in self._delta if r != row]
        return True

    # -- semi-naive lifecycle ----------------------------------------------

    @property
    def delta(self) -> List[Row]:
        """The current frontier (rows promoted by the last :meth:`promote`)."""
        return self._delta

    @property
    def pending(self) -> List[Row]:
        """Rows inserted since the frontier was last cut."""
        return self._pending

    @property
    def stable(self) -> Set[Row]:
        """Rows that are neither delta nor pending."""
        return self.rows.difference(self._delta, self._pending)

    def promote(self) -> List[Row]:
        """Advance the lifecycle: delta joins stable, pending becomes the
        new delta (returned)."""
        self._delta = self._pending
        self._pending = []
        return self._delta

    # -- lookup ------------------------------------------------------------

    @staticmethod
    def _normalize(
        positions: Tuple[int, ...], key: Tuple
    ) -> Optional[Tuple[Tuple[int, ...], Tuple]]:
        """Sort + dedup ``positions``, remapping ``key`` alongside.

        Returns ``None`` when a duplicated position carries two
        different key values (no row can match).  Raises ``ValueError``
        when key and positions disagree in length.
        """
        if len(key) != len(positions):
            raise ValueError(
                f"lookup key {key!r} does not match positions {positions!r}"
            )
        if all(
            positions[i] < positions[i + 1] for i in range(len(positions) - 1)
        ):
            return positions, key
        merged: Dict[int, object] = {}
        for position, value in zip(positions, key):
            if position in merged:
                if merged[position] != value:
                    return None
            else:
                merged[position] = value
        ordered = tuple(sorted(merged))
        return ordered, tuple(merged[p] for p in ordered)

    def ensure_index(self, positions: Tuple[int, ...]) -> Dict[Tuple, List[Row]]:
        """Materialize (or fetch) the index keyed by ``positions``.

        Called up front by index planning; also the lazy fallback on
        first probe.  Positions must already be sorted and unique.
        """
        if self.arity is not None and positions and positions[-1] >= self.arity:
            raise ValueError(
                f"index positions {positions!r} out of range for"
                f" {self.name}/{self.arity}"
            )
        index = self._indices.get(positions)
        if index is None:
            index = {}
            for row in self.rows:
                key = tuple(row[i] for i in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            self._indices[positions] = index
            self.counters.index_builds += 1
        return index

    def lookup(self, positions: Tuple[int, ...], key: Tuple) -> List[Row]:
        """Rows whose projection onto ``positions`` equals ``key``.

        ``positions`` in any order, duplicates allowed: they are
        normalized (sorted + deduplicated, with ``key`` remapped).  A
        duplicated position with conflicting values matches nothing.
        An empty ``positions`` scans the whole relation.
        """
        self.counters.probes += 1
        if not positions:
            return list(self.rows)
        normalized = self._normalize(positions, key)
        if normalized is None:
            return []
        positions, key = normalized
        return self.ensure_index(positions).get(key, [])

    # -- introspection -------------------------------------------------------

    def index_count(self) -> int:
        """Number of materialized indices (used by engine statistics)."""
        return len(self._indices)

    def index_entries(self) -> int:
        """Total bucket count across all materialized indices."""
        return sum(len(index) for index in self._indices.values())

    def snapshot(self) -> Set[Row]:
        """A copy of the current row set."""
        return set(self.rows)

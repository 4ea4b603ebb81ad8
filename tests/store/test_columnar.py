"""Tests for the columnar relation store.

The contract under test: :class:`ColumnarRelation` is
:class:`Relation`'s lifecycle (stable/delta/pending, promote)
re-expressed as row-id ranges over per-attribute int arrays, with
row-id bucket indices for the kernel backend's probes.
"""

import pytest

from repro.store import (
    ColumnarRelation,
    ColumnarStore,
    Interner,
    Relation,
    columnar_relation_from_payload,
    columnar_relation_to_payload,
    relation_to_payload,
)


class TestInsertion:
    def test_add_dedup_and_len(self):
        rel = ColumnarRelation("pts", 2)
        assert rel.add((1, 2)) is True
        assert rel.add((1, 2)) is False
        assert rel.add((1, 3)) is True
        assert len(rel) == 2
        assert (1, 2) in rel and (9, 9) not in rel
        assert set(rel) == {(1, 2), (1, 3)}
        assert rel.counters.inserts == 2
        assert rel.counters.dedup_hits == 1

    def test_columns_hold_attributes_by_position(self):
        rel = ColumnarRelation("pts", 3)
        rel.add((1, 2, 3))
        rel.add((4, 5, 6))
        assert list(rel.columns[0]) == [1, 4]
        assert list(rel.columns[1]) == [2, 5]
        assert list(rel.columns[2]) == [3, 6]

    def test_arity_mismatch_rejected(self):
        rel = ColumnarRelation("pts", 2)
        with pytest.raises(ValueError, match="arity mismatch"):
            rel.add((1, 2, 3))

    def test_non_int_values_rejected(self):
        rel = ColumnarRelation("pts", 2)
        with pytest.raises(TypeError, match="intern values first"):
            rel.add((1, "heap"))

    def test_missing_arity_rejected(self):
        with pytest.raises(ValueError, match="declared arity"):
            ColumnarRelation("pts", None)


def rows_of(relation, ids):
    """The row tuples of an id range, read from the column arrays the
    way the kernels read them."""
    return sorted(
        tuple(column[rid] for column in relation.columns) for rid in ids
    )


class TestLifecycle:
    def test_add_lands_in_pending_then_promotes(self):
        rel = ColumnarRelation("p", 1)
        rel.add((1,))
        rel.add((2,))
        assert rel.pending_ids == range(0, 2)
        ids = rel.promote()
        assert ids == range(0, 2) and bool(ids)
        assert not rel.pending_ids
        rel.add((3,))
        assert rel.pending_ids == range(2, 3)
        assert rel.promote() == range(2, 3)
        assert not rel.promote()  # empty frontier is falsy

    def test_load_is_stable_before_first_promote(self):
        rel = ColumnarRelation("p", 1)
        rel.load((1,))
        assert not rel.pending_ids
        assert rel.promote() == range(1, 1)  # no frontier: already stable

    def test_late_load_joins_pending(self):
        rel = ColumnarRelation("p", 1)
        rel.add((1,))
        rel.promote()
        rel.load((2,))
        assert rel.pending_ids == range(1, 2)
        assert rows_of(rel, rel.pending_ids) == [(2,)]

    def test_untracked_rows_stabilize_immediately(self):
        rel = ColumnarRelation("p", 1, track_delta=False)
        rel.add((1,))
        rel.add((2,))
        assert not rel.pending_ids
        assert rel.promote() == range(2, 2)

    def test_lifecycle_matches_row_relation(self):
        rows = [(i % 3, i % 2) for i in range(8)]
        columnar = ColumnarRelation("p", 2)
        classic = Relation("p", 2)
        for batch in (rows[:3], rows[3:6], rows[6:]):
            for row in batch:
                assert columnar.add(row) == classic.add(row)
            assert rows_of(columnar, columnar.pending_ids) == sorted(
                classic.pending
            )
            delta = columnar.promote()
            classic.promote()
            assert rows_of(columnar, delta) == sorted(classic.delta)
            assert rows_of(columnar, range(delta.start)) == sorted(
                classic.stable
            )


class TestIndexing:
    def test_single_column_index_keys_by_bare_int(self):
        rel = ColumnarRelation("p", 2)
        rel.add((1, 10))
        rel.add((1, 11))
        rel.add((2, 12))
        index = rel.index_view((0,))
        assert index[1] == [0, 1]
        assert index[2] == [2]

    def test_multi_column_index_keys_by_tuple(self):
        rel = ColumnarRelation("p", 3)
        rel.add((1, 2, 3))
        rel.add((1, 2, 4))
        index = rel.index_view((0, 1))
        assert index[(1, 2)] == [0, 1]

    def test_indices_stay_live_across_inserts(self):
        rel = ColumnarRelation("p", 2)
        rel.add((1, 10))
        index = rel.index_view((0,))
        rel.add((1, 11))
        assert index[1] == [0, 1]
        assert rel.index_count() == 1

    def test_out_of_range_positions_rejected(self):
        rel = ColumnarRelation("p", 2)
        with pytest.raises(ValueError, match="out of range"):
            rel.ensure_index((0, 5))


class TestStore:
    def test_relation_created_once_and_arity_checked(self):
        store = ColumnarStore()
        first = store.relation("p", 2)
        assert store.relation("p", 2) is first
        with pytest.raises(ValueError, match="arity"):
            store.relation("p", 3)

    def test_describe_has_tuple_store_keys(self):
        store = ColumnarStore()
        rel = store.relation("p", 2)
        rel.add((1, 2))
        rel.add((1, 2))
        rel.index_view((0,))
        entry = store.describe()["p"]
        assert entry["rows"] == 1
        assert entry["inserts"] == 1
        assert entry["dedup_hits"] == 1
        assert entry["indexes"] == 1
        assert entry["index_entries"] == 1


class TestSerialize:
    def _interned(self, rows):
        run = Interner()
        rel = ColumnarRelation("pts", 2)
        for row in rows:
            rel.add(run.intern_row(row))
        return rel, run

    def test_payload_round_trip(self):
        rows = [("v1", "h1"), ("v2", "h1"), ("v1", "h2")]
        rel, run = self._interned(rows)
        payload_interner = Interner()
        payload = columnar_relation_to_payload(
            rel, payload_interner, run_interner=run
        )
        assert payload["name"] == "pts" and payload["arity"] == 2
        fresh_run = Interner()
        rebuilt = columnar_relation_from_payload(
            payload, payload_interner, run_interner=fresh_run
        )
        decoded = {fresh_run.decode_row(row) for row in rebuilt.rows}
        assert decoded == set(rows)
        # Loaded as settled: no pending rows and no frontier to cut.
        assert not rebuilt.pending_ids
        assert not rebuilt.promote()

    def test_payload_byte_identical_to_row_store(self):
        rows = [("v2", "h1"), ("v1", "h1")]
        columnar, run = self._interned(rows)
        classic = Relation("pts", 2)
        for row in rows:
            classic.add(row)
        a, b = Interner(), Interner()
        assert columnar_relation_to_payload(
            columnar, a, run_interner=run
        ) == relation_to_payload(classic, b)

    def test_raw_int_relation_serializes_without_run_interner(self):
        rel = ColumnarRelation("p", 1)
        rel.add((7,))
        interner = Interner()
        payload = columnar_relation_to_payload(rel, interner)
        rebuilt = columnar_relation_from_payload(payload, interner)
        assert set(rebuilt.rows) == {(7,)}

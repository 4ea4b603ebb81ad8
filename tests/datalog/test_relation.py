"""Tests for indexed relation storage."""

import pytest

from repro.store import Relation


class TestRelation:
    def test_add_and_membership(self):
        rel = Relation("r", 2)
        assert rel.add(("a", "b"))
        assert not rel.add(("a", "b"))  # duplicate
        assert ("a", "b") in rel
        assert len(rel) == 1

    def test_arity_checked(self):
        rel = Relation("r", 2)
        with pytest.raises(ValueError, match="arity"):
            rel.add(("a",))

    def test_lookup_builds_index_on_demand(self):
        rel = Relation("r", 3)
        rel.add_all([("a", 1, "x"), ("a", 2, "y"), ("b", 1, "z")])
        assert rel.index_count() == 0
        rows = rel.lookup((0,), ("a",))
        assert sorted(rows) == [("a", 1, "x"), ("a", 2, "y")]
        assert rel.index_count() == 1

    def test_index_maintained_incrementally(self):
        rel = Relation("r", 2)
        rel.add(("a", 1))
        assert rel.lookup((0,), ("a",)) == [("a", 1)]
        rel.add(("a", 2))
        assert sorted(rel.lookup((0,), ("a",))) == [("a", 1), ("a", 2)]

    def test_multi_column_lookup(self):
        rel = Relation("r", 3)
        rel.add_all([("a", 1, "x"), ("a", 1, "y"), ("a", 2, "z")])
        assert sorted(rel.lookup((0, 1), ("a", 1))) == [
            ("a", 1, "x"), ("a", 1, "y"),
        ]

    def test_empty_positions_scans(self):
        rel = Relation("r", 1)
        rel.add_all([("a",), ("b",)])
        assert sorted(rel.lookup((), ())) == [("a",), ("b",)]

    def test_missing_key_is_empty(self):
        rel = Relation("r", 2)
        rel.add(("a", 1))
        assert rel.lookup((0,), ("zz",)) == []

    def test_add_all_counts_new(self):
        rel = Relation("r", 1)
        assert rel.add_all([("a",), ("a",), ("b",)]) == 2

    def test_snapshot_is_a_copy(self):
        rel = Relation("r", 1)
        rel.add(("a",))
        snap = rel.snapshot()
        rel.add(("b",))
        assert snap == {("a",)}


class TestLookupPositionsNormalized:
    """Regression for the ``lookup`` positions contract: callers may
    pass positions in any order, with duplicates; the key is remapped
    alongside and permuted spellings share a single index."""

    def _rel(self):
        rel = Relation("r", 3)
        rel.add_all([("a", 1, "x"), ("a", 2, "y"), ("b", 1, "x")])
        return rel

    def test_unsorted_positions(self):
        rel = self._rel()
        assert rel.lookup((1, 0), (1, "a")) == rel.lookup((0, 1), ("a", 1))
        assert rel.index_count() == 1

    def test_duplicate_positions_deduplicated(self):
        rel = self._rel()
        assert sorted(rel.lookup((0, 0), ("b", "b"))) == [("b", 1, "x")]

    def test_conflicting_duplicates_match_nothing(self):
        rel = self._rel()
        assert rel.lookup((1, 1), (1, 2)) == []

    def test_key_positions_length_mismatch(self):
        rel = self._rel()
        with pytest.raises(ValueError, match="does not match"):
            rel.lookup((0,), ("a", 1))

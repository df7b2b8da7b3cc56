"""Unit tests for repro.engine.hashindex."""

import pytest

from repro.engine.errors import DuplicateKeyError, RecordNotFoundError
from repro.engine.hashindex import HashIndex, MultiHashIndex


class TestHashIndex:
    def test_insert_search(self):
        index = HashIndex()
        index.insert(("w", 1), "rid-1")
        assert index.search(("w", 1)) == "rid-1"
        assert len(index) == 1
        assert ("w", 1) in index

    def test_duplicate_rejected(self):
        index = HashIndex()
        index.insert(1, "a")
        with pytest.raises(DuplicateKeyError):
            index.insert(1, "b")

    def test_missing_key(self):
        with pytest.raises(RecordNotFoundError):
            HashIndex().search(42)

    def test_get_default(self):
        assert HashIndex().get(42, "fallback") == "fallback"

    def test_replace(self):
        index = HashIndex()
        index.insert(1, "a")
        index.replace(1, "b")
        assert index.search(1) == "b"

    def test_replace_missing(self):
        with pytest.raises(RecordNotFoundError):
            HashIndex().replace(1, "x")

    def test_delete_returns_value(self):
        index = HashIndex()
        index.insert(1, "a")
        assert index.delete(1) == "a"
        assert 1 not in index

    def test_delete_missing(self):
        with pytest.raises(RecordNotFoundError):
            HashIndex().delete(1)

    def test_items(self):
        index = HashIndex()
        index.insert(1, "a")
        index.insert(2, "b")
        assert dict(index.items()) == {1: "a", 2: "b"}


class TestMultiHashIndex:
    def test_multiple_values_per_key(self):
        index = MultiHashIndex()
        index.insert("SMITH", 1)
        index.insert("SMITH", 2)
        index.insert("SMITH", 3)
        assert index.search("SMITH") == (1, 2, 3)  # insertion order
        assert len(index) == 3

    def test_get_empty_tuple_for_missing(self):
        assert MultiHashIndex().get("NOBODY") == ()

    def test_search_missing_raises(self):
        with pytest.raises(RecordNotFoundError):
            MultiHashIndex().search("NOBODY")

    def test_delete_single_posting(self):
        index = MultiHashIndex()
        index.insert("A", 1)
        index.insert("A", 2)
        index.delete("A", 1)
        assert index.search("A") == (2,)
        assert len(index) == 1

    def test_delete_last_posting_removes_key(self):
        index = MultiHashIndex()
        index.insert("A", 1)
        index.delete("A", 1)
        assert "A" not in index

    def test_delete_missing_posting(self):
        index = MultiHashIndex()
        index.insert("A", 1)
        with pytest.raises(RecordNotFoundError):
            index.delete("A", 99)

    def test_items_snapshot(self):
        index = MultiHashIndex()
        index.insert("A", 1)
        index.insert("B", 2)
        assert dict(index.items()) == {"A": (1,), "B": (2,)}


class TestFromPairs:
    def test_unique_keeps_pair_order(self):
        index = HashIndex.from_pairs([(3, "c"), (1, "a"), (2, "b")])
        assert list(index.items()) == [(3, "c"), (1, "a"), (2, "b")]
        assert len(index) == 3

    def test_unique_rejects_a_repeated_key(self):
        with pytest.raises(DuplicateKeyError):
            HashIndex.from_pairs([(1, "a"), (2, "b"), (1, "c")])

    def test_multi_equals_inserts_in_order(self):
        pairs = [("x", 1), ("y", 2), ("x", 3), ("z", 4), ("y", 5)]
        reference = MultiHashIndex()
        for key, value in pairs:
            reference.insert(key, value)
        index = MultiHashIndex.from_pairs(pairs)
        assert list(index.items()) == list(reference.items())
        assert len(index) == len(reference) == 5

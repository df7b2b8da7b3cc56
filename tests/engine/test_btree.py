"""Unit tests for repro.engine.btree."""

import numpy as np
import pytest

from repro.engine.btree import BPlusTree
from repro.engine.errors import DuplicateKeyError, RecordNotFoundError


@pytest.fixture
def tree():
    return BPlusTree(order=4)  # small order forces deep trees quickly


def build(tree, keys):
    for key in keys:
        tree.insert(key, f"v{key}")
    return tree


class TestBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert 5 not in tree
        assert tree.get(5) is None

    def test_insert_and_search(self, tree):
        tree.insert(10, "a")
        assert tree.search(10) == "a"
        assert len(tree) == 1

    def test_missing_key(self, tree):
        tree.insert(1, "a")
        with pytest.raises(RecordNotFoundError):
            tree.search(2)

    def test_duplicate_rejected(self, tree):
        tree.insert(1, "a")
        with pytest.raises(DuplicateKeyError):
            tree.insert(1, "b")

    def test_replace(self, tree):
        tree.insert(1, "a")
        tree.replace(1, "b")
        assert tree.search(1) == "b"

    def test_replace_missing(self, tree):
        with pytest.raises(RecordNotFoundError):
            tree.replace(1, "x")

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="order"):
            BPlusTree(order=3)


class TestSplitsAndOrdering:
    def test_many_sequential_inserts(self, tree):
        build(tree, range(200))
        assert len(tree) == 200
        assert [key for key, _ in tree.items()] == list(range(200))
        tree.validate()

    def test_many_reverse_inserts(self, tree):
        build(tree, reversed(range(200)))
        assert [key for key, _ in tree.items()] == list(range(200))
        tree.validate()

    def test_random_inserts(self, tree):
        keys = np.random.default_rng(0).permutation(500).tolist()
        build(tree, keys)
        assert [key for key, _ in tree.items()] == sorted(keys)
        tree.validate()

    def test_all_keys_findable_after_splits(self, tree):
        keys = list(range(0, 300, 3))
        build(tree, keys)
        for key in keys:
            assert tree.search(key) == f"v{key}"


class TestDeletion:
    def test_delete_returns_value(self, tree):
        build(tree, range(50))
        assert tree.delete(25) == "v25"
        assert 25 not in tree
        assert len(tree) == 49
        tree.validate()

    def test_delete_missing(self, tree):
        build(tree, range(5))
        with pytest.raises(RecordNotFoundError):
            tree.delete(99)

    def test_delete_everything(self, tree):
        keys = list(range(120))
        build(tree, keys)
        rng = np.random.default_rng(1)
        for key in rng.permutation(keys).tolist():
            tree.delete(key)
            tree.validate()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_delete_and_reinsert(self, tree):
        build(tree, range(60))
        for key in range(0, 60, 2):
            tree.delete(key)
        for key in range(0, 60, 2):
            tree.insert(key, "again")
        assert len(tree) == 60
        assert tree.search(4) == "again"
        tree.validate()

    def test_interleaved_operations(self, tree):
        rng = np.random.default_rng(7)
        present = set()
        for _ in range(2000):
            key = int(rng.integers(0, 300))
            if key in present:
                tree.delete(key)
                present.discard(key)
            else:
                tree.insert(key, key)
                present.add(key)
        assert len(tree) == len(present)
        assert [key for key, _ in tree.items()] == sorted(present)
        tree.validate()


class TestRangeScan:
    def test_full_scan(self, tree):
        build(tree, range(30))
        assert len(list(tree.range_scan())) == 30

    def test_bounded_scan_inclusive(self, tree):
        build(tree, range(30))
        keys = [key for key, _ in tree.range_scan(10, 15)]
        assert keys == [10, 11, 12, 13, 14, 15]

    def test_open_lower_bound(self, tree):
        build(tree, range(10))
        keys = [key for key, _ in tree.range_scan(None, 3)]
        assert keys == [0, 1, 2, 3]

    def test_bounds_outside_data(self, tree):
        build(tree, range(5, 15))
        assert [k for k, _ in tree.range_scan(100, 200)] == []
        assert [k for k, _ in tree.range_scan(-10, -1)] == []

    def test_scan_on_sparse_keys(self, tree):
        build(tree, range(0, 100, 7))
        keys = [key for key, _ in tree.range_scan(10, 40)]
        assert keys == [14, 21, 28, 35]


class TestMinMax:
    def test_min_in_range(self, tree):
        build(tree, [5, 10, 15, 20])
        assert tree.min_in_range(7, 30) == (10, "v10")

    def test_min_empty_range(self, tree):
        build(tree, [5, 10])
        assert tree.min_in_range(6, 9) is None

    def test_max_in_range(self, tree):
        build(tree, [5, 10, 15, 20])
        assert tree.max_in_range(0, 17) == (15, "v15")

    def test_max_crosses_leaf_boundary(self, tree):
        build(tree, range(100))
        assert tree.max_in_range(0, 57) == (57, "v57")

    def test_max_empty_range(self, tree):
        build(tree, [10, 20])
        assert tree.max_in_range(11, 19) is None

    def test_max_below_all_keys(self, tree):
        build(tree, range(50, 60))
        assert tree.max_in_range(0, 10) is None


class TestCompositeKeys:
    """Multi-column keys, the TPC-C usage pattern."""

    def test_tuple_keys_ordered_lexicographically(self, tree):
        keys = [(1, 2, 3), (1, 1, 9), (2, 0, 0), (1, 2, 1)]
        for key in keys:
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_prefix_range(self, tree):
        # (warehouse, district, order) keys.
        for w in (1, 2):
            for d in (1, 2):
                for o in range(5):
                    tree.insert((w, d, o), o)
        keys = [k for k, _ in tree.range_scan((1, 2), (1, 2, 10**9))]
        assert keys == [(1, 2, o) for o in range(5)]

    def test_min_max_within_prefix(self, tree):
        for o in (7, 3, 9, 5):
            tree.insert((1, 1, o), o)
        tree.insert((1, 2, 1), 1)
        assert tree.min_in_range((1, 1), (1, 1, 10**9))[0] == (1, 1, 3)
        assert tree.max_in_range((1, 1), (1, 1, 10**9))[0] == (1, 1, 9)


class TestLargeOrder:
    def test_default_order_bulk(self):
        tree = BPlusTree()
        keys = np.random.default_rng(3).permutation(5000).tolist()
        for key in keys:
            tree.insert(key, key)
        assert len(tree) == 5000
        tree.validate()
        for key in (0, 2499, 4999):
            assert tree.search(key) == key

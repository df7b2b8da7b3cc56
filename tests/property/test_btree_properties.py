"""Property-based tests for the B+ tree against a dict/sorted-list model."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import BPlusTree
from repro.engine.errors import DuplicateKeyError, RecordNotFoundError

keys = st.integers(min_value=-1000, max_value=1000)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "search"]), keys),
    min_size=1,
    max_size=400,
)


class TestModelEquivalence:
    @given(operations, st.integers(min_value=4, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_against_dict_model(self, ops, order):
        tree = BPlusTree(order=order)
        model: dict[int, int] = {}
        for op, key in ops:
            if op == "insert":
                if key in model:
                    try:
                        tree.insert(key, key)
                        raise AssertionError("expected DuplicateKeyError")
                    except DuplicateKeyError:
                        pass
                else:
                    tree.insert(key, key)
                    model[key] = key
            elif op == "delete":
                if key in model:
                    assert tree.delete(key) == key
                    del model[key]
                else:
                    try:
                        tree.delete(key)
                        raise AssertionError("expected RecordNotFoundError")
                    except RecordNotFoundError:
                        pass
            else:
                assert tree.get(key) == model.get(key)
                assert (key in tree) == (key in model)
        assert len(tree) == len(model)
        assert [k for k, _ in tree.items()] == sorted(model)
        tree.validate()

    @given(st.lists(keys, unique=True, min_size=1, max_size=200), keys, keys)
    @settings(max_examples=100, deadline=None)
    def test_range_scan_equals_sorted_slice(self, insert_keys, low, high):
        if low > high:
            low, high = high, low
        tree = BPlusTree(order=5)
        for key in insert_keys:
            tree.insert(key, key)
        expected = [k for k in sorted(insert_keys) if low <= k <= high]
        assert [k for k, _ in tree.range_scan(low, high)] == expected

    @given(st.lists(keys, unique=True, min_size=1, max_size=200), keys, keys)
    @settings(max_examples=100, deadline=None)
    def test_min_max_in_range(self, insert_keys, low, high):
        if low > high:
            low, high = high, low
        tree = BPlusTree(order=5)
        for key in insert_keys:
            tree.insert(key, key)
        in_range = [k for k in insert_keys if low <= k <= high]
        if in_range:
            assert tree.min_in_range(low, high)[0] == min(in_range)
            assert tree.max_in_range(low, high)[0] == max(in_range)
        else:
            assert tree.min_in_range(low, high) is None
            assert tree.max_in_range(low, high) is None

    @given(st.lists(keys, unique=True, min_size=2, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_delete_half_preserves_rest(self, insert_keys):
        tree = BPlusTree(order=4)
        for key in insert_keys:
            tree.insert(key, f"value-{key}")
        to_delete = insert_keys[:: 2]
        for key in to_delete:
            tree.delete(key)
        tree.validate()
        survivors = sorted(set(insert_keys) - set(to_delete))
        assert [k for k, _ in tree.items()] == survivors
        for key in survivors:
            assert tree.search(key) == f"value-{key}"


def _shape(node):
    """A node's keys and, below it, its children's shapes (values at the leaves)."""
    if node.is_leaf:
        return ("leaf", list(node.keys), list(node.values))
    return ("node", list(node.keys), [_shape(child) for child in node.children])


def _ascending(keys, order):
    tree = BPlusTree(order=order)
    for key in sorted(keys):
        tree.insert(key, -key)
    return tree


bulk_orders = st.one_of(st.sampled_from([4, 5, 64]), st.integers(min_value=4, max_value=64))
bulk_keys = st.lists(keys, unique=True, max_size=300)
tree_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "search", "range", "min", "max"]), keys, keys
    ),
    max_size=200,
)


class TestFromSorted:
    @given(bulk_keys, bulk_orders)
    @settings(max_examples=100, deadline=None)
    def test_valid_and_round_trips(self, insert_keys, order):
        pairs = [(key, -key) for key in sorted(insert_keys)]
        tree = BPlusTree.from_sorted(pairs, order)
        tree.validate()
        assert list(tree.items()) == pairs
        assert len(tree) == len(pairs)
        assert _shape(tree._root) == _shape(_ascending(insert_keys, order)._root)

    @given(bulk_keys, bulk_orders, tree_operations)
    @settings(max_examples=100, deadline=None)
    def test_matches_incremental_tree_and_sorted_list(self, insert_keys, order, ops):
        bulk = BPlusTree.from_sorted([(key, -key) for key in sorted(insert_keys)], order)
        incremental = BPlusTree(order=order)
        for key in insert_keys:  # in drawn order, not sorted
            incremental.insert(key, -key)
        model = sorted(insert_keys)
        for op, key, other in ops:
            low, high = min(key, other), max(key, other)
            if op == "insert":
                present = key in model
                outcomes = []
                for tree in (bulk, incremental):
                    try:
                        tree.insert(key, -key)
                        outcomes.append("inserted")
                    except DuplicateKeyError:
                        outcomes.append("duplicate")
                assert outcomes == ["duplicate" if present else "inserted"] * 2
                if not present:
                    bisect.insort(model, key)
            elif op == "delete":
                present = key in model
                outcomes = []
                for tree in (bulk, incremental):
                    try:
                        outcomes.append(tree.delete(key))
                    except RecordNotFoundError:
                        outcomes.append(None)
                assert outcomes == [-key if present else None] * 2
                if present:
                    model.remove(key)
            elif op == "search":
                expected = -key if key in model else None
                assert bulk.get(key) == incremental.get(key) == expected
            else:
                inside = [(k, -k) for k in model if low <= k <= high]
                if op == "range":
                    expected = inside
                    assert list(bulk.range_scan(low, high)) == expected
                    assert list(incremental.range_scan(low, high)) == expected
                elif op == "min":
                    expected = inside[0] if inside else None
                    assert bulk.min_in_range(low, high) == expected
                    assert incremental.min_in_range(low, high) == expected
                else:
                    expected = inside[-1] if inside else None
                    assert bulk.max_in_range(low, high) == expected
                    assert incremental.max_in_range(low, high) == expected
        bulk.validate()
        incremental.validate()
        assert list(bulk.items()) == list(incremental.items()) == [(k, -k) for k in model]


@pytest.mark.parametrize("order", [4, 5, 64])
@pytest.mark.parametrize("size", ["zero", "one", "order-1", "order", "order^2"])
def test_from_sorted_edge_sizes_take_the_ascending_insert_shape(order, size):
    count = {"zero": 0, "one": 1, "order-1": order - 1, "order": order, "order^2": order**2}[size]
    tree = BPlusTree.from_sorted([(key, -key) for key in range(count)], order)
    tree.validate()
    reference = _ascending(range(count), order)
    assert _shape(tree._root) == _shape(reference._root)
    # Later inserts split where they would have.
    for key in range(count, count + 2 * order):
        tree.insert(key, -key)
        reference.insert(key, -key)
    assert _shape(tree._root) == _shape(reference._root)
    tree.validate()


class TestFromSortedRejects:
    def test_duplicate_key(self):
        with pytest.raises(DuplicateKeyError):
            BPlusTree.from_sorted([(1, "a"), (2, "b"), (2, "c")])

    def test_unsorted_keys(self):
        with pytest.raises(ValueError, match="not ascending"):
            BPlusTree.from_sorted([(1, "a"), (3, "b"), (2, "c")])

    def test_order_below_four(self):
        with pytest.raises(ValueError, match="order"):
            BPlusTree.from_sorted([(1, "a")], order=3)

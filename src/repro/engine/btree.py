"""An in-memory B+ tree.

The TPC-C transactions need ordered access — "Select(Max(order-id))"
for Order-Status and "Select(Min(order-id))" for Delivery are one index
probe each when a multi-keyed ordered index exists (paper Section 2.2).
This is that index: a classic B+ tree with linked leaves supporting
point lookups, inclusive range scans, ordered min/max within a key
range, and full deletion with borrowing and merging.

Keys may be any mutually comparable values; composite keys are tuples,
which compare lexicographically — exactly what multi-keyed indexes
need.  Keys are unique (:class:`~repro.engine.errors.DuplicateKeyError`
on collision); non-unique indexes append a uniquifier at the table
layer.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

from repro.engine.errors import (
    DuplicateKeyError,
    InvariantViolationError,
    RecordNotFoundError,
)


class _Node:
    """Internal B+ tree node (leaf or interior)."""

    __slots__ = ("keys", "children", "values", "next_leaf", "prev_leaf")

    def __init__(self, leaf: bool):
        self.keys: list[Any] = []
        if leaf:
            self.values: list[Any] = []
            self.children = None
            self.next_leaf: "_Node | None" = None
            self.prev_leaf: "_Node | None" = None
        else:
            self.values = None
            self.children: list["_Node"] = []
            self.next_leaf = None
            self.prev_leaf = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _runs(count: int, most: int, half: int) -> list[tuple[int, int]]:
    """The (start, stop) slices ascending appends cut ``count`` entries into.

    Appends go to the last node; when it exceeds ``most`` it splits,
    keeping ``half`` on the left.  So every run but the last holds
    ``half`` entries, and the last holds the rest (at most ``most``).
    """
    full = max(0, -(-(count - most) // half))
    bounds = [run * half for run in range(full + 1)] + [count]
    return list(zip(bounds, bounds[1:]))


class BPlusTree:
    """A B+ tree with order ``order`` (max children per interior node)."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError(f"order must be >= 4, got {order}")
        self._order = order
        self._root = _Node(leaf=True)
        self._size = 0

    @classmethod
    def from_sorted(cls, pairs: Iterable[tuple[Any, Any]], order: int = 64) -> "BPlusTree":
        """A tree holding ``pairs``, whose keys must strictly ascend, built bottom-up.

        The result has the shape :meth:`insert` leaves when the same keys
        arrive in ascending order: every node but the last on each level
        holds half its capacity (the left half of a split), and every
        separator is the smallest key of the subtree to its right.  Later
        inserts and deletes therefore split and merge exactly where they
        would have.  A repeated key raises ``DuplicateKeyError``, a
        descending one ``ValueError``.
        """
        tree = cls(order)
        pairs = list(pairs)
        if not pairs:
            return tree
        keys = [key for key, _ in pairs]
        for position, (low, high) in enumerate(zip(keys, keys[1:]), start=1):
            if not low < high:
                if low == high:
                    raise DuplicateKeyError(f"key {high!r} already in index")
                raise ValueError(f"keys not ascending at position {position}: {high!r}")
        values = [value for _, value in pairs]

        level: list[_Node] = []
        for start, stop in _runs(len(keys), order - 1, order // 2):
            leaf = _Node(leaf=True)
            leaf.keys = keys[start:stop]
            leaf.values = values[start:stop]
            if level:
                leaf.prev_leaf = level[-1]
                level[-1].next_leaf = leaf
            level.append(leaf)
        lows = [leaf.keys[0] for leaf in level]
        while len(level) > 1:
            runs = _runs(len(level), order, order // 2 + 1)
            parents = []
            for start, stop in runs:
                parent = _Node(leaf=False)
                parent.children = level[start:stop]
                parent.keys = lows[start + 1 : stop]
                parents.append(parent)
            level, lows = parents, [lows[start] for start, _ in runs]
        tree._root = level[0]
        tree._size = len(keys)
        return tree

    # -- basic properties ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        keys = self._find_leaf(key).keys
        index = bisect.bisect_left(keys, key)
        return index < len(keys) and keys[index] == key

    @property
    def _max_keys(self) -> int:
        return self._order - 1

    @property
    def _min_keys(self) -> int:
        # Root is exempt; other nodes keep at least ceil(order/2) - 1 keys.
        return (self._order + 1) // 2 - 1

    # -- search ---------------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def search(self, key: Any) -> Any:
        """Return the value stored under ``key``; raise if absent."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        raise RecordNotFoundError(f"key {key!r} not in index")

    def get(self, key: Any, default: Any = None) -> Any:
        """Like :meth:`search` but returning ``default`` when absent."""
        try:
            return self.search(key)
        except RecordNotFoundError:
            return default

    # -- insertion -----------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a unique key; raises DuplicateKeyError on collision."""
        root = self._root
        split = self._insert_into(root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [separator]
            new_root.children = [root, right]
            self._root = new_root
        self._size += 1

    def _insert_into(self, node: _Node, key: Any, value: Any):
        """Recursive insert; returns (separator, new right node) on split."""
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                raise DuplicateKeyError(f"key {key!r} already in index")
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) > self._max_keys:
                return self._split_leaf(node)
            return None

        index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) > self._max_keys:
            return self._split_interior(node)
        return None

    def _split_leaf(self, node: _Node):
        middle = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[middle:]
        right.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        right.next_leaf = node.next_leaf
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = right
        right.prev_leaf = node
        node.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Node):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Node(leaf=False)
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    # -- update -----------------------------------------------------------------------------

    def replace(self, key: Any, value: Any) -> None:
        """Overwrite the value of an existing key."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            raise RecordNotFoundError(f"key {key!r} not in index")
        leaf.values[index] = value

    # -- deletion --------------------------------------------------------------------------------

    def delete(self, key: Any) -> Any:
        """Remove a key and return its value; rebalances underfull nodes."""
        value = self._delete_from(self._root, key)
        root = self._root
        if not root.is_leaf and len(root.children) == 1:
            self._root = root.children[0]
        self._size -= 1
        return value

    def _delete_from(self, node: _Node, key: Any) -> Any:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise RecordNotFoundError(f"key {key!r} not in index")
            node.keys.pop(index)
            return node.values.pop(index)

        index = bisect.bisect_right(node.keys, key)
        child = node.children[index]
        value = self._delete_from(child, key)
        if self._is_underfull(child):
            self._rebalance(node, index)
        return value

    def _is_underfull(self, node: _Node) -> bool:
        return len(node.keys) < self._min_keys

    def _rebalance(self, parent: _Node, index: int) -> None:
        """Fix an underfull child by borrowing from or merging a sibling."""
        child = parent.children[index]
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None

        if left is not None and len(left.keys) > self._min_keys:
            self._borrow_from_left(parent, index, left, child)
        elif right is not None and len(right.keys) > self._min_keys:
            self._borrow_from_right(parent, index, child, right)
        elif left is not None:
            self._merge(parent, index - 1, left, child)
        elif right is not None:
            self._merge(parent, index, child, right)
        else:
            raise InvariantViolationError(
                "underfull non-root node has no sibling to borrow from or "
                "merge with"
            )

    def _borrow_from_left(
        self, parent: _Node, index: int, left: _Node, child: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, parent: _Node, index: int, child: _Node, right: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Node, left_index: int, left: _Node, right: _Node) -> None:
        """Fold ``right`` into ``left`` and drop the separator."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
            if right.next_leaf is not None:
                right.next_leaf.prev_leaf = left
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # -- ordered access ------------------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in ascending key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def range_scan(
        self, low: Any = None, high: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """(key, value) pairs with ``low <= key <= high`` (None = open)."""
        if low is None:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]
            index = 0
        else:
            node = self._find_leaf(low)
            index = bisect.bisect_left(node.keys, low)
        while node is not None:
            while index < len(node.keys):
                key = node.keys[index]
                if high is not None and key > high:
                    return
                yield key, node.values[index]
                index += 1
            node = node.next_leaf
            index = 0

    def min_in_range(self, low: Any, high: Any) -> tuple[Any, Any] | None:
        """Smallest (key, value) with ``low <= key <= high`` or None.

        This is the one-probe "Select(Min(order-id))" of the Delivery
        transaction.
        """
        for pair in self.range_scan(low, high):
            return pair
        return None

    def max_in_range(self, low: Any, high: Any) -> tuple[Any, Any] | None:
        """Largest (key, value) with ``low <= key <= high`` or None.

        The "Select(Max(order-id))" of the Order-Status transaction:
        descend to the upper bound's leaf and walk backwards.
        """
        node = self._find_leaf(high)
        index = bisect.bisect_right(node.keys, high) - 1
        while node is not None:
            while index >= 0:
                key = node.keys[index]
                if key < low:
                    return None
                return key, node.values[index]
            node = node.prev_leaf
            if node is not None:
                index = len(node.keys) - 1
        return None

    # -- validation (used by property tests) ---------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants, raising a typed error on violation.

        Unlike a bare ``assert``, the checks survive ``python -O``:
        violations raise :class:`InvariantViolationError` (a subclass of
        :class:`AssertionError`) unconditionally.
        """
        keys = [key for key, _ in self.items()]
        self._require(keys == sorted(keys), "leaf chain out of order")
        self._require(len(keys) == self._size, "size counter out of sync")
        self._validate_node(self._root, is_root=True)

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise InvariantViolationError(message)

    def _validate_node(self, node: _Node, is_root: bool) -> tuple[Any, Any] | None:
        self._require(len(node.keys) <= self._max_keys, "node overfull")
        if not is_root:
            self._require(len(node.keys) >= self._min_keys, "node underfull")
        self._require(node.keys == sorted(node.keys), "node keys out of order")
        if node.is_leaf:
            return (node.keys[0], node.keys[-1]) if node.keys else None
        self._require(
            len(node.children) == len(node.keys) + 1, "fanout mismatch"
        )
        for index, child in enumerate(node.children):
            bounds = self._validate_node(child, is_root=False)
            if bounds is None:
                continue
            low, high = bounds
            if index > 0:
                self._require(
                    low >= node.keys[index - 1], "separator violated (low)"
                )
            if index < len(node.keys):
                self._require(
                    high < node.keys[index], "separator violated (high)"
                )
        return (
            (node.keys[0], node.keys[-1]) if node.keys else None
        )

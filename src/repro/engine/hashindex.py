"""Hash indexes: unique and non-unique equality lookups.

TPC-C point selects (customer by id, stock by (item, warehouse), …) are
equality probes; a hash index serves them in O(1).  The non-unique
variant backs the customer last-name lookup, where on average three
customers share a name.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.engine.errors import DuplicateKeyError, RecordNotFoundError


class HashIndex:
    """A unique hash index from keys to values (typically RecordIds)."""

    def __init__(self) -> None:
        self._entries: dict[Any, Any] = {}

    @classmethod
    def from_pairs(cls, pairs: list[tuple[Any, Any]]) -> "HashIndex":
        """An index holding ``pairs``, iterated in their order; a repeated key raises."""
        index = cls()
        index._entries = dict(pairs)
        if len(index._entries) != len(pairs):
            repeats = len(pairs) - len(index._entries)
            raise DuplicateKeyError(f"{repeats} of {len(pairs)} keys repeat an earlier key")
        return index

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def insert(self, key: Any, value: Any) -> None:
        """Add a new key; raises on duplicates."""
        if key in self._entries:
            raise DuplicateKeyError(f"key {key!r} already in index")
        self._entries[key] = value

    def search(self, key: Any) -> Any:
        """Return the value stored under ``key``; raise if absent."""
        try:
            return self._entries[key]
        except KeyError:
            raise RecordNotFoundError(f"key {key!r} not in index") from None

    def get(self, key: Any, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def replace(self, key: Any, value: Any) -> None:
        """Overwrite an existing key's value."""
        if key not in self._entries:
            raise RecordNotFoundError(f"key {key!r} not in index")
        self._entries[key] = value

    def delete(self, key: Any) -> Any:
        """Remove a key, returning its value."""
        try:
            return self._entries.pop(key)
        except KeyError:
            raise RecordNotFoundError(f"key {key!r} not in index") from None

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(self._entries.items())


class MultiHashIndex:
    """A non-unique hash index: each key maps to a list of values.

    Values under one key keep insertion order; ``search`` returns them
    as a tuple (possibly empty lookups raise, matching the unique
    index's contract).
    """

    def __init__(self) -> None:
        self._entries: dict[Any, list[Any]] = {}
        self._size = 0

    @classmethod
    def from_pairs(cls, pairs: list[tuple[Any, Any]]) -> "MultiHashIndex":
        """An index holding ``pairs``: keys and each key's postings in their order."""
        index = cls()
        for key, value in pairs:
            index._entries.setdefault(key, []).append(value)
        index._size = len(pairs)
        return index

    def __len__(self) -> int:
        """Total number of (key, value) postings."""
        return self._size

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def insert(self, key: Any, value: Any) -> None:
        self._entries.setdefault(key, []).append(value)
        self._size += 1

    def search(self, key: Any) -> tuple[Any, ...]:
        """All values under ``key``; raises if the key is absent."""
        try:
            return tuple(self._entries[key])
        except KeyError:
            raise RecordNotFoundError(f"key {key!r} not in index") from None

    def get(self, key: Any) -> tuple[Any, ...]:
        """All values under ``key`` (empty tuple when absent)."""
        return tuple(self._entries.get(key, ()))

    def delete(self, key: Any, value: Any) -> None:
        """Remove one (key, value) posting."""
        postings = self._entries.get(key)
        if not postings or value not in postings:
            raise RecordNotFoundError(f"posting ({key!r}, {value!r}) not in index")
        postings.remove(value)
        self._size -= 1
        if not postings:
            del self._entries[key]

    def items(self) -> Iterator[tuple[Any, tuple[Any, ...]]]:
        for key, postings in self._entries.items():
            yield key, tuple(postings)

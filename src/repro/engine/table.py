"""Tables: schema + heap file + index maintenance.

A :class:`Table` is the unlogged, unlocked primitive layer; transaction
semantics (locks, WAL, undo) live in :class:`repro.engine.database.
Database`.  Every table has a unique hash index on its primary key;
secondary indexes (ordered B+ tree or hash, unique or not) are declared
with :class:`IndexSpec`.  A :class:`BulkLoad` fills an empty table (the
initial population); :func:`_build_index` makes an index from its
(key, rid) entries at once, for the bulk load, a backfill and crash
recovery alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.engine.btree import BPlusTree
from repro.engine.catalog import TableSchema, key_extractor
from repro.engine.errors import DuplicateKeyError, RecordNotFoundError
from repro.engine.hashindex import HashIndex, MultiHashIndex
from repro.engine.heap import HeapFile, RecordId

#: Name of the implicit primary-key index.
PRIMARY = "primary"


@dataclass(frozen=True)
class IndexSpec:
    """Declaration of a secondary index."""

    name: str
    columns: tuple[str, ...]
    kind: str = "hash"  # "hash" or "btree"
    unique: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "btree"):
            raise ValueError(f"index kind must be 'hash' or 'btree', got {self.kind!r}")
        if not self.columns:
            raise ValueError(f"index {self.name!r} needs at least one column")
        if self.name == PRIMARY:
            raise ValueError(f"index name {PRIMARY!r} is reserved")


def _build_index(spec: IndexSpec | None, entries: list[tuple[tuple, RecordId]]) -> Any:
    """An index of kind ``spec`` (``None``: the primary key) holding ``entries``.

    The one way an index is filled in bulk: the load, :meth:`Table.add_index`
    and :meth:`Table.rebuild_indexes` all end here, and each installs the
    index only once it is built.  ``entries`` are (key, rid) pairs in heap
    order; hash postings keep that order, a B+ tree is sorted once and
    built bottom-up.
    """
    if spec is None:
        return HashIndex.from_pairs(entries)
    if spec.kind == "btree":
        if not spec.unique:
            entries = [(key + (rid.page_no, rid.slot), rid) for key, rid in entries]
        return BPlusTree.from_sorted(sorted(entries, key=itemgetter(0)))
    if spec.unique:
        return HashIndex.from_pairs(entries)
    return MultiHashIndex.from_pairs(entries)


class Table:
    """One relation stored in a heap file with hash/B+-tree indexes."""

    def __init__(
        self,
        schema: TableSchema,
        heap: HeapFile,
        indexes: list[IndexSpec] | None = None,
    ):
        if heap.record_size != schema.record_size:
            raise ValueError(
                f"heap record size {heap.record_size} != schema row size "
                f"{schema.record_size}"
            )
        self._schema = schema
        self._heap = heap
        self._specs: dict[str, IndexSpec] = {}
        #: Per secondary index, its compiled ``row -> key columns``.
        self._key_of: dict[str, Callable[[dict], tuple]] = {}
        self._indexes: dict[str, Any] = {PRIMARY: HashIndex()}
        for spec in indexes or []:
            self.add_index(spec)

    # -- accessors --------------------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def heap(self) -> HeapFile:
        return self._heap

    @property
    def row_count(self) -> int:
        return len(self._heap)

    def index_names(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    def primary_keys(self) -> list[tuple]:
        """Every primary key, read off the index: no page is touched."""
        return [key for key, _ in self._indexes[PRIMARY].items()]

    def add_index(self, spec: IndexSpec) -> None:
        """Declare (and, if rows exist, backfill) a secondary index."""
        if spec.name in self._indexes:
            raise ValueError(f"index {spec.name!r} already exists on {self.name}")
        missing = [c for c in spec.columns if c not in self._schema.column_names]
        if missing:
            raise ValueError(f"index {spec.name!r} references unknown columns {missing}")
        key_of = key_extractor(spec.columns)
        index = _build_index(spec, [(key_of(row), rid) for rid, row in self.scan()])
        self._specs[spec.name] = spec
        self._key_of[spec.name] = key_of
        self._indexes[spec.name] = index

    # -- key helpers ----------------------------------------------------------------

    def _btree_key(self, spec: IndexSpec, row: dict, rid: RecordId) -> tuple:
        """B+-tree key, uniquified with the rid for non-unique indexes."""
        key = self._key_of[spec.name](row)
        if spec.unique:
            return key
        return key + (rid.page_no, rid.slot)

    # -- row operations ---------------------------------------------------------------

    def insert(self, row: dict, record: bytes | None = None) -> RecordId:
        """Insert a row, maintaining all indexes; returns its rid.

        ``record`` is the row already packed, for a caller that needs
        the same bytes elsewhere (the WAL after-image).
        """
        key = self._schema.key_of(row)
        primary: HashIndex = self._indexes[PRIMARY]
        if key in primary:
            raise DuplicateKeyError(f"{self.name}: duplicate primary key {key!r}")
        # Check unique secondary indexes before mutating anything.
        for spec in self._specs.values():
            if spec.unique:
                index = self._indexes[spec.name]
                secondary = self._key_of[spec.name](row)
                if secondary in index:
                    raise DuplicateKeyError(
                        f"{self.name}: duplicate key {secondary!r} in {spec.name}"
                    )
        rid = self._heap.insert(record if record is not None else self._schema.pack(row))
        primary.insert(key, rid)
        for spec in self._specs.values():
            self._index_insert_one(spec, self._indexes[spec.name], row, rid)
        return rid

    def _index_insert_one(self, spec: IndexSpec, index, row: dict, rid: RecordId) -> None:
        if spec.kind == "btree":
            index.insert(self._btree_key(spec, row, rid), rid)
        else:
            index.insert(self._key_of[spec.name](row), rid)

    def read(self, rid: RecordId) -> dict:
        """Fetch a row by rid."""
        return self._schema.unpack(self._heap.read(rid))

    def rid_of(self, key: tuple) -> RecordId:
        """Primary-key lookup; raises if absent."""
        return self._indexes[PRIMARY].search(key)

    def get(self, key: tuple) -> dict:
        """Fetch a row by primary key."""
        return self.read(self.rid_of(key))

    def update(
        self, rid: RecordId, changes: dict | bytes | Callable[[dict], dict]
    ) -> tuple[dict, bytes, bytes]:
        """Overwrite a row in place; returns (new row, old bytes, new bytes).

        ``changes`` is a dict of column overrides, a callable mapping the
        old row to the new one, or the new record bytes themselves (an
        undo handing back a logged image).  Whichever it is, the page is
        requested once, the old record decoded once and the new one
        encoded at most once.  The primary key must not change (TPC-C
        never does); secondary index entries are moved when their key
        columns change.
        """
        schema = self._schema
        page = self._heap.fetch(rid, for_write=True)
        before = page.read(rid.slot)
        old_row = schema.unpack(before)
        if isinstance(changes, dict):
            new_row = {**old_row, **changes}
            after = schema.patch(before, changes)
        elif callable(changes):
            new_row = changes(dict(old_row))
            after = schema.pack(new_row)
        else:
            new_row, after = schema.unpack(changes), changes
        if schema.key_of(new_row) != schema.key_of(old_row):
            raise ValueError(f"{self.name}: primary key is immutable")
        for spec in self._specs.values():
            key_of = self._key_of[spec.name]
            old_key = key_of(old_row)
            new_key = key_of(new_row)
            if old_key == new_key:
                continue
            index = self._indexes[spec.name]
            if spec.kind == "btree":
                index.delete(self._btree_key(spec, old_row, rid))
                index.insert(self._btree_key(spec, new_row, rid), rid)
            elif spec.unique:
                index.delete(old_key)
                index.insert(new_key, rid)
            else:
                index.delete(old_key, rid)
                index.insert(new_key, rid)
        page.update(rid.slot, after)
        return new_row, before, after

    def restore(self, rid: RecordId, record: bytes) -> None:
        """Put a deleted record back at its original rid (transaction undo).

        Equivalent to :meth:`insert` except the physical location is
        dictated, keeping rids stable across delete/undo so log records
        addressing the slot stay valid.  Takes the bytes :meth:`delete`
        returned (or the WAL logged), so nothing is re-encoded.
        """
        row = self._schema.unpack(record)
        key = self._schema.key_of(row)
        primary: HashIndex = self._indexes[PRIMARY]
        if key in primary:
            raise DuplicateKeyError(f"{self.name}: duplicate primary key {key!r}")
        self._heap.insert_at(rid, record)
        primary.insert(key, rid)
        for spec in self._specs.values():
            self._index_insert_one(spec, self._indexes[spec.name], row, rid)

    def delete(self, rid: RecordId) -> tuple[dict, bytes]:
        """Remove a row; returns it, decoded and as the bytes it occupied."""
        record = self._heap.delete(rid)
        row = self._schema.unpack(record)
        self._indexes[PRIMARY].delete(self._schema.key_of(row))
        for spec in self._specs.values():
            index = self._indexes[spec.name]
            if spec.kind == "btree":
                index.delete(self._btree_key(spec, row, rid))
            elif spec.unique:
                index.delete(self._key_of[spec.name](row))
            else:
                index.delete(self._key_of[spec.name](row), rid)
        return row, record

    # -- index access --------------------------------------------------------------------

    def lookup(self, index_name: str, key: tuple) -> tuple[RecordId, ...]:
        """All rids under an equality key in a named index.

        Works for unique and non-unique hash indexes and for B+-tree
        indexes (prefix match on the declared columns).
        """
        if index_name == PRIMARY:
            try:
                return (self._indexes[PRIMARY].search(key),)
            except RecordNotFoundError:
                return ()
        spec = self._require_spec(index_name)
        index = self._indexes[index_name]
        if spec.kind == "hash":
            if spec.unique:
                rid = index.get(key)
                return (rid,) if rid is not None else ()
            return index.get(key)
        if spec.unique:
            rid = index.get(key)
            return (rid,) if rid is not None else ()
        return tuple(rid for _, rid in self.btree_prefix_scan(index_name, key))

    def btree_range(
        self, index_name: str, low: tuple | None, high: tuple | None
    ) -> Iterator[tuple[tuple, RecordId]]:
        """Ordered (key, rid) pairs with ``low <= key <= high``."""
        spec = self._require_spec(index_name)
        if spec.kind != "btree":
            raise ValueError(f"index {index_name!r} is not ordered")
        return self._indexes[index_name].range_scan(low, high)

    def btree_prefix_scan(
        self, index_name: str, prefix: tuple
    ) -> Iterator[tuple[tuple, RecordId]]:
        """Ordered (key, rid) pairs whose key starts with ``prefix``."""
        spec = self._require_spec(index_name)
        if spec.kind != "btree":
            raise ValueError(f"index {index_name!r} is not ordered")
        low = prefix
        high = prefix + (_Infinity(),)
        for key, rid in self._indexes[index_name].range_scan(low, high):
            yield key, rid

    def btree_min(self, index_name: str, prefix: tuple) -> tuple[tuple, RecordId] | None:
        """Smallest index entry under a key prefix (Delivery's Min select)."""
        for pair in self.btree_prefix_scan(index_name, prefix):
            return pair
        return None

    def btree_max(self, index_name: str, prefix: tuple) -> tuple[tuple, RecordId] | None:
        """Largest index entry under a key prefix (Order-Status's Max select)."""
        spec = self._require_spec(index_name)
        if spec.kind != "btree":
            raise ValueError(f"index {index_name!r} is not ordered")
        index: BPlusTree = self._indexes[index_name]
        return index.max_in_range(prefix, prefix + (_Infinity(),))

    def scan(self) -> Iterator[tuple[RecordId, dict]]:
        """Full scan in heap order."""
        for rid, record in self._heap.scan():
            yield rid, self._schema.unpack(record)

    def rebuild_indexes(self) -> None:
        """Recreate every index from the heap (after WAL recovery)."""
        self._heap.rebuild_metadata()
        key_of = {PRIMARY: self._schema.key_of, **self._key_of}
        entries: dict[str, list[tuple[tuple, RecordId]]] = {name: [] for name in key_of}
        for rid, row in self.scan():
            for name, extract in key_of.items():
                entries[name].append((extract(row), rid))
        self._indexes.update(
            {name: _build_index(self._specs.get(name), pairs) for name, pairs in entries.items()}
        )

    def _require_spec(self, index_name: str) -> IndexSpec:
        spec = self._specs.get(index_name)
        if spec is None:
            raise RecordNotFoundError(
                f"table {self.name} has no index {index_name!r}"
            )
        return spec


class BulkLoad:
    """An empty table's initial population: rows stored in order, indexes built at the end.

    Not a transactional path: nothing is logged or locked (the caller
    takes a backup afterwards).  ``columns`` names, in order, the values
    each :meth:`append` takes; every other column holds its value in
    ``constants`` in every row (see :meth:`TableSchema.packer`).  Each
    row is checked against the primary key and the unique secondary keys
    before anything changes, as :meth:`Table.insert` checks it, then
    packed and stored with :meth:`HeapFile.insert`.  Secondary-index
    entries are only collected; :meth:`finish` builds each index once.
    Until then those indexes are empty.
    """

    def __init__(self, table: Table, columns: tuple[str, ...], constants: dict[str, Any]):
        if table.row_count:
            raise ValueError(f"bulk load needs an empty table; {table.name} has rows")
        position = {name: i for i, name in enumerate(columns)}

        def key_of(key_columns: tuple[str, ...]) -> Callable[[tuple], tuple]:
            fixed = [name for name in key_columns if name not in position]
            if fixed:
                raise ValueError(f"{table.name}: key columns {fixed} must vary per row")
            return key_extractor(tuple(position[name] for name in key_columns))

        self._table = table
        self._pack = table.schema.packer(columns, constants)
        self._primary: HashIndex = table._indexes[PRIMARY]
        self._primary_key = key_of(table.schema.primary_key)
        self._heap = table.heap
        # Per secondary index: its name, its key and its (key, rid) entries so far.
        self._secondary = [
            (name, key_of(spec.columns), []) for name, spec in table._specs.items()
        ]
        # The keys taken so far in each unique index that can repeat a key
        # on its own: one holding every primary-key column cannot.
        covered = set(table.schema.primary_key)
        self._taken = [
            (name, key_of(spec.columns), set())
            for name, spec in table._specs.items()
            if spec.unique and not covered <= set(spec.columns)
        ]

    def append(self, values: tuple) -> RecordId:
        """Add one row, given as the values of ``columns``; returns its rid."""
        key = self._primary_key(values)
        if key in self._primary:
            raise DuplicateKeyError(f"{self._table.name}: duplicate primary key {key!r}")
        for name, key_of, taken in self._taken:
            if key_of(values) in taken:
                raise DuplicateKeyError(
                    f"{self._table.name}: duplicate key {key_of(values)!r} in {name}"
                )
        rid = self._heap.insert(self._pack(values))
        self._primary.insert(key, rid)
        for _, key_of, entries in self._secondary:
            entries.append((key_of(values), rid))
        for _, key_of, taken in self._taken:
            taken.add(key_of(values))
        return rid

    def finish(self) -> None:
        """Build every secondary index from the rows appended."""
        specs = self._table._specs
        self._table._indexes.update(
            {name: _build_index(specs[name], entries) for name, _, entries in self._secondary}
        )


class _Infinity:
    """Compares greater than everything; closes prefix-scan upper bounds."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return isinstance(other, _Infinity)

    def __gt__(self, other: Any) -> bool:
        return not isinstance(other, _Infinity)

    def __ge__(self, other: Any) -> bool:
        return True

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("_Infinity")

"""Unit tests for repro.engine.table."""

import pytest

from repro.engine.bufferpool import BufferManager
from repro.engine.catalog import TableSchema, char, integer
from repro.engine.errors import DuplicateKeyError, RecordNotFoundError
from repro.engine.heap import HeapFile
from repro.engine.page import PageStore
from repro.engine.table import IndexSpec, Table


def make_table(indexes=None):
    schema = TableSchema(
        "orders",
        [integer("w"), integer("d"), integer("o"), integer("c"), char("note", 12)],
        primary_key=("w", "d", "o"),
    )
    store = PageStore()
    buffers = BufferManager(store, 64)
    heap = HeapFile(buffers, 0, schema.record_size)
    return Table(schema, heap, indexes)


def row(w=1, d=1, o=1, c=10, note="n"):
    return {"w": w, "d": d, "o": o, "c": c, "note": note}


BTREE = IndexSpec("by_customer", ("w", "d", "c", "o"), kind="btree", unique=True)
BY_NOTE = IndexSpec("by_note", ("note",), kind="hash")


class TestInsertGet:
    def test_insert_and_get(self):
        table = make_table()
        table.insert(row(o=5))
        assert table.get((1, 1, 5))["c"] == 10

    def test_duplicate_primary_rejected(self):
        table = make_table()
        table.insert(row())
        with pytest.raises(DuplicateKeyError, match="primary"):
            table.insert(row())

    def test_missing_key(self):
        with pytest.raises(RecordNotFoundError):
            make_table().get((9, 9, 9))

    def test_row_count(self):
        table = make_table()
        for o in range(5):
            table.insert(row(o=o))
        assert table.row_count == 5


class TestSecondaryIndexes:
    def test_hash_lookup_multiple(self):
        table = make_table([BY_NOTE])
        table.insert(row(o=1, note="x"))
        table.insert(row(o=2, note="x"))
        table.insert(row(o=3, note="y"))
        rids = table.lookup("by_note", ("x",))
        assert len(rids) == 2

    def test_btree_prefix_scan_ordered(self):
        table = make_table([BTREE])
        for o, c in [(1, 30), (2, 10), (3, 10), (4, 20)]:
            table.insert(row(o=o, c=c))
        keys = [key for key, _ in table.btree_prefix_scan("by_customer", (1, 1, 10))]
        assert [key[3] for key in keys] == [2, 3]

    def test_btree_min_max(self):
        table = make_table([BTREE])
        for o in (7, 3, 9):
            table.insert(row(o=o, c=5))
        assert table.btree_min("by_customer", (1, 1, 5))[0][3] == 3
        assert table.btree_max("by_customer", (1, 1, 5))[0][3] == 9

    def test_unique_secondary_conflict(self):
        spec = IndexSpec("uniq", ("c",), kind="hash", unique=True)
        table = make_table([spec])
        table.insert(row(o=1, c=5))
        with pytest.raises(DuplicateKeyError, match="uniq"):
            table.insert(row(o=2, c=5))

    def test_failed_insert_leaves_no_trace(self):
        spec = IndexSpec("uniq", ("c",), kind="hash", unique=True)
        table = make_table([spec])
        table.insert(row(o=1, c=5))
        with pytest.raises(DuplicateKeyError):
            table.insert(row(o=2, c=5))
        assert table.row_count == 1
        assert table.lookup("primary", (1, 1, 2)) == ()

    def test_add_index_backfills(self):
        table = make_table()
        table.insert(row(o=1, c=5))
        table.insert(row(o=2, c=7))
        table.add_index(BTREE)
        assert table.btree_min("by_customer", (1, 1, 5)) is not None

    def test_unknown_index(self):
        with pytest.raises(RecordNotFoundError, match="no index"):
            make_table().lookup("ghost", (1,))

    def test_reserved_name(self):
        with pytest.raises(ValueError, match="reserved"):
            IndexSpec("primary", ("c",))

    def test_unknown_columns(self):
        table = make_table()
        with pytest.raises(ValueError, match="unknown columns"):
            table.add_index(IndexSpec("bad", ("zzz",)))


class TestUpdate:
    def test_update_in_place(self):
        table = make_table()
        rid = table.insert(row())
        new, before, after = table.update(rid, row(c=99))
        assert table.schema.unpack(before)["c"] == 10
        assert new["c"] == 99 and after == table.schema.pack(new)
        assert table.get((1, 1, 1))["c"] == 99

    def test_primary_key_immutable(self):
        table = make_table()
        rid = table.insert(row(o=1))
        with pytest.raises(ValueError, match="immutable"):
            table.update(rid, row(o=2))

    def test_update_moves_secondary_entries(self):
        table = make_table([BY_NOTE])
        rid = table.insert(row(note="before"))
        table.update(rid, row(note="after"))
        assert table.lookup("by_note", ("before",)) == ()
        assert len(table.lookup("by_note", ("after",))) == 1

    def test_update_moves_btree_entries(self):
        table = make_table([BTREE])
        rid = table.insert(row(o=1, c=5))
        table.update(rid, row(o=1, c=50))
        assert table.btree_min("by_customer", (1, 1, 5)) is None
        assert table.btree_min("by_customer", (1, 1, 50)) is not None


class TestDelete:
    def test_delete_removes_everywhere(self):
        table = make_table([BY_NOTE, BTREE])
        rid = table.insert(row(note="gone", c=5))
        deleted, record = table.delete(rid)
        assert deleted["note"] == "gone"
        assert record == table.schema.pack(deleted)
        assert table.row_count == 0
        assert table.lookup("by_note", ("gone",)) == ()
        assert table.btree_min("by_customer", (1, 1, 5)) is None
        assert table.lookup("primary", (1, 1, 1)) == ()


class TestScanAndRebuild:
    def test_scan_returns_rows(self):
        table = make_table()
        for o in range(4):
            table.insert(row(o=o))
        assert len(list(table.scan())) == 4

    def test_rebuild_indexes_consistent(self):
        table = make_table([BY_NOTE, BTREE])
        for o in range(10):
            table.insert(row(o=o, c=o % 3, note=f"n{o % 2}"))
        table.rebuild_indexes()
        assert table.row_count == 10
        assert len(table.lookup("by_note", ("n0",))) == 5
        assert table.btree_min("by_customer", (1, 1, 0))[0][3] == 0
        assert table.get((1, 1, 7))["c"] == 1


class TestSchemaHeapMismatch:
    def test_record_size_checked(self):
        schema = TableSchema("t", [integer("a")], ("a",))
        store = PageStore()
        heap = HeapFile(BufferManager(store, 4), 0, record_size=99)
        with pytest.raises(ValueError, match="record size"):
            Table(schema, heap)

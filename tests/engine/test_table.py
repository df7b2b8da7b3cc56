"""Unit tests for repro.engine.table."""

import pytest

from repro.engine.btree import BPlusTree
from repro.engine.bufferpool import BufferManager
from repro.engine.catalog import TableSchema, char, integer
from repro.engine.errors import DuplicateKeyError, RecordNotFoundError
from repro.engine.hashindex import HashIndex, MultiHashIndex
from repro.engine.heap import HeapFile
from repro.engine.page import PageStore
from repro.engine.table import BulkLoad, IndexSpec, Table


def make_table(indexes=None, frames=64):
    schema = TableSchema(
        "orders",
        [integer("w"), integer("d"), integer("o"), integer("c"), char("note", 12)],
        primary_key=("w", "d", "o"),
    )
    store = PageStore()
    buffers = BufferManager(store, frames)
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

    @pytest.mark.parametrize("kind", ["hash", "btree"])
    def test_unique_secondary_on_non_key_columns_rejects_a_duplicate(self, kind):
        # Only a unique index missing a primary-key column is checked
        # before the insert; this one must still refuse the duplicate
        # before anything changes.
        spec = IndexSpec("uniq", ("c", "note"), kind=kind, unique=True)
        table = make_table([spec])
        table.insert(row(o=1, c=5, note="a"))
        table.insert(row(o=2, c=5, note="b"))
        with pytest.raises(DuplicateKeyError, match="uniq"):
            table.insert(row(o=3, c=5, note="a"))
        assert len(table.heap) == 2
        assert table.primary_keys() == [(1, 1, 1), (1, 1, 2)]
        assert table.lookup("uniq", (5, "a")) == table.lookup("primary", (1, 1, 1))

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
        before, after = table.update(rid, row(c=99))
        assert table.schema.unpack(before)["c"] == 10
        assert after == table.schema.pack(row(c=99))
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


BY_C = IndexSpec("by_c", ("c",), kind="btree")  # non-unique: the rid uniquifies
UNIQUE_NOTE = IndexSpec("uniq_note", ("note",), kind="hash", unique=True)
EVERY_KIND = [BY_NOTE, BTREE, BY_C, UNIQUE_NOTE]


def _index_items(table):
    return {name: list(table._indexes[name].items()) for name in table.index_names()}


def _empty_index(spec):
    if spec.kind == "btree":
        return BPlusTree()
    return HashIndex() if spec.unique else MultiHashIndex()


def _rows(count):
    return [row(o=o, c=(o * 7) % 5, note=f"n{o}") for o in range(count)]


class TestBulkLoad:
    COLUMNS = ("w", "d", "o", "c", "note")

    def test_same_pages_requests_and_indexes_as_row_inserts(self):
        rows = _rows(1_000)  # twelve pages through a pool of four frames
        inserted, loaded = make_table(EVERY_KIND, 4), make_table(EVERY_KIND, 4)
        for r in rows:
            inserted.insert(r)
        load = BulkLoad(loaded, self.COLUMNS, {})
        for r in rows:
            load.append(tuple(r[name] for name in self.COLUMNS))
        load.finish()
        assert _index_items(loaded) == _index_items(inserted)
        pools = [table.heap._buffers for table in (inserted, loaded)]
        for pool in pools:
            pool.flush_all()
        assert pools[0].store._images == pools[1].store._images
        io = [(pool.store.reads, pool.store.writes) for pool in pools]
        assert io[0] == io[1] and io[0][1] > 0  # pages were evicted mid-load
        assert pools[0].stats.accesses() == pools[1].stats.accesses()
        assert list(pools[0]._frames) == list(pools[1]._frames)
        for table in (inserted, loaded):
            table._indexes["by_customer"].validate()

    def test_constants_fill_the_other_columns(self):
        table = make_table([BTREE])
        load = BulkLoad(table, ("w", "d", "o", "c"), {"note": "same"})
        load.append((1, 1, 3, 9))
        load.finish()
        assert table.get((1, 1, 3)) == row(o=3, c=9, note="same")
        assert table.btree_min("by_customer", (1, 1, 9))[0] == (1, 1, 9, 3)

    def test_needs_an_empty_table(self):
        table = make_table()
        table.insert(row())
        with pytest.raises(ValueError, match="empty"):
            BulkLoad(table, self.COLUMNS, {})

    def test_key_columns_must_vary(self):
        with pytest.raises(ValueError, match="must vary"):
            BulkLoad(make_table(), ("d", "o", "c", "note"), {"w": 1})

    def test_duplicate_primary_key_rejected_at_append(self):
        load = BulkLoad(make_table(), self.COLUMNS, {})
        load.append((1, 1, 1, 5, "a"))
        with pytest.raises(DuplicateKeyError, match="primary"):
            load.append((1, 1, 1, 6, "b"))

    def test_duplicate_unique_secondary_rejected_at_append(self):
        table = make_table([UNIQUE_NOTE, BY_C])
        load = BulkLoad(table, self.COLUMNS, {})
        first = load.append((1, 1, 1, 5, "same"))
        with pytest.raises(DuplicateKeyError, match="uniq_note"):
            load.append((1, 1, 2, 6, "same"))
        assert table.row_count == 1 and table.primary_keys() == [(1, 1, 1)]
        load.append((1, 1, 2, 6, "other"))  # the rejected row left nothing behind
        load.finish()
        assert table.lookup("uniq_note", ("same",)) == (first,)
        assert [key for key, _ in table.btree_range("by_c", None, None)] == [
            (5, 0, 0),
            (6, 0, 1),
        ]


class TestBackfill:
    def test_add_index_equals_a_row_by_row_build(self):
        table = make_table()
        rids = [table.insert(r) for r in _rows(200)]
        for rid in rids[3::4]:  # holes, refilled out of key order
            table.delete(rid)
        for o in range(200, 230):
            table.insert(row(o=o, c=o % 5, note=f"m{o}"))
        for spec in EVERY_KIND:
            table.add_index(spec)
            reference = _empty_index(spec)
            for rid, r in table.scan():
                key = tuple(r[c] for c in spec.columns)
                if spec.kind == "btree" and not spec.unique:
                    key += (rid.page_no, rid.slot)
                reference.insert(key, rid)
            assert list(table._indexes[spec.name].items()) == list(reference.items())

    def test_failed_backfill_leaves_the_table_as_it_was(self):
        table = make_table([BY_NOTE])
        table.insert(row(o=1, note="same"))
        table.insert(row(o=2, note="same"))
        with pytest.raises(DuplicateKeyError):
            table.add_index(UNIQUE_NOTE)
        assert table.index_names() == ("primary", "by_note")
        table.insert(row(o=3, note="other"))
        table.delete(table.rid_of((1, 1, 1)))
        assert table.lookup("by_note", ("same",)) == (table.rid_of((1, 1, 2)),)

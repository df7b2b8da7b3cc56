"""Regression tests for two recovery bugs found by property testing.

1. *Slot-reuse clobbering*: an aborted insert frees a slot that a later
   committed insert reuses; a recovery scheme that redoes committed work
   and then blindly undoes non-committed work deletes the committed row.
   Fixed by logging compensation records on abort and replaying the
   full log history in LSN order.

2. *Undo rid instability*: undoing a transaction that deleted several
   rows re-inserted them through the generic free-slot allocator, which
   could place a row at a different rid than its log records reference.
   Fixed by restoring deleted rows at their exact original slots.
"""

import pytest

from repro.engine.catalog import TableSchema, char, integer
from repro.engine.database import Database
from repro.engine.errors import DuplicateKeyError
from repro.engine.heap import RecordId
from repro.engine.table import IndexSpec


@pytest.fixture
def db():
    db = Database(buffer_pages=16)
    db.create_table(
        TableSchema(
            "items",
            [integer("id"), integer("value"), char("tag", 8)],
            primary_key=("id",),
        ),
        [IndexSpec("by_tag", ("tag",), kind="hash")],
    )
    return db


def row(id_, value=0, tag="t"):
    return {"id": id_, "value": value, "tag": tag}


def state(db):
    return {r["id"]: r["value"] for _, r in db.table("items").scan()}


class TestSlotReuseClobbering:
    def test_aborted_insert_then_committed_reuse_survives_crash(self, db):
        t1 = db.begin()
        t1.insert("items", row(1, value=111))
        t1.abort()
        t2 = db.begin()
        t2.insert("items", row(1, value=222))  # reuses the freed slot
        t2.commit()
        db.crash()
        db.recover()
        assert state(db) == {1: 222}

    def test_many_abort_reuse_cycles(self, db):
        for round_ in range(5):
            t = db.begin()
            t.insert("items", row(7, value=round_))
            t.abort()
        final = db.begin()
        final.insert("items", row(7, value=99))
        final.commit()
        db.crash()
        db.recover()
        assert state(db) == {7: 99}

    def test_abort_logs_compensations(self, db):
        from repro.engine.wal import LogRecordType

        t = db.begin()
        t.insert("items", row(1))
        t.abort()
        types = [record.type for record in db.wal.records()]
        # BEGIN, INSERT, compensation DELETE, ABORT.
        assert types == [
            LogRecordType.BEGIN,
            LogRecordType.INSERT,
            LogRecordType.DELETE,
            LogRecordType.ABORT,
        ]


class TestUndoRidStability:
    def test_abort_after_multiple_deletes_restores_all(self, db):
        setup = db.begin()
        for id_ in (1, 2, 3):
            setup.insert("items", row(id_, value=id_ * 10))
        setup.commit()

        t = db.begin()
        t.delete("items", (1,))
        t.delete("items", (3,))
        t.abort()
        assert state(db) == {1: 10, 2: 20, 3: 30}

    def test_restored_rows_keep_original_rids(self, db):
        setup = db.begin()
        for id_ in (1, 2, 3):
            setup.insert("items", row(id_))
        setup.commit()
        table = db.table("items")
        original_rids = {id_: table.rid_of((id_,)) for id_ in (1, 2, 3)}

        t = db.begin()
        t.delete("items", (1,))
        t.delete("items", (2,))
        t.abort()
        for id_, rid in original_rids.items():
            assert table.rid_of((id_,)) == rid

    def test_mixed_undo_then_crash(self, db):
        setup = db.begin()
        for id_ in (1, 2, 3, 4):
            setup.insert("items", row(id_, value=id_))
        setup.commit()

        t = db.begin()
        t.delete("items", (2,))
        t.insert("items", row(9, value=9))
        t.update("items", (4,), {"value": 400})
        t.delete("items", (1,))
        t.abort()
        db.crash()
        db.recover()
        assert state(db) == {1: 1, 2: 2, 3: 3, 4: 4}


class TestInsertAtAndRestore:
    def test_insert_at_requires_free_slot(self, db):
        t = db.begin()
        t.insert("items", row(1))
        t.commit()
        table = db.table("items")
        rid = table.rid_of((1,))
        with pytest.raises(ValueError, match="occupied"):
            table.heap.insert_at(rid, b"x" * table.schema.record_size)

    def test_restore_rejects_duplicate_key(self, db):
        t = db.begin()
        t.insert("items", row(1))
        t.commit()
        table = db.table("items")
        with pytest.raises(DuplicateKeyError):
            table.restore(RecordId(0, 5), table.schema.pack(row(1)))

    def test_restore_updates_secondary_indexes(self, db):
        t = db.begin()
        t.insert("items", row(1, tag="alpha"))
        t.commit()
        table = db.table("items")
        rid = table.rid_of((1,))
        _, removed = table.delete(rid)
        table.restore(rid, removed)
        assert table.lookup("by_tag", ("alpha",)) == (rid,)


class TestInFlightAtCrash:
    def test_open_transaction_rolled_back_by_recovery(self, db):
        setup = db.begin()
        setup.insert("items", row(1, value=10))
        setup.commit()

        open_txn = db.begin()
        open_txn.update("items", (1,), {"value": 999})
        open_txn.insert("items", row(2))
        db.checkpoint()  # stolen pages reach disk
        db.crash()
        db.recover()
        assert state(db) == {1: 10}

    def test_recovery_closes_open_transactions_in_log(self, db):
        open_txn = db.begin()
        open_txn.insert("items", row(1))
        db.crash()
        db.recover()
        assert not db.wal.is_active(open_txn.txn_id)
        # A second crash/recovery replays the same closed history.
        db.crash()
        db.recover()
        assert state(db) == {}

"""Unit tests for repro.engine.database (transactions, ACID behaviour)."""

import pytest

from repro.engine.catalog import TableSchema, char, integer
from repro.engine.database import Database
from repro.engine.errors import (
    LockConflictError,
    TableNotFoundError,
    TransactionStateError,
)
from repro.engine.table import IndexSpec


@pytest.fixture
def db():
    db = Database(buffer_pages=64)
    schema = TableSchema(
        "accounts",
        [integer("id"), integer("balance"), char("owner", 12)],
        primary_key=("id",),
    )
    db.create_table(schema, [IndexSpec("by_owner", ("owner",), kind="hash")])
    return db


def deposit(db, id_, balance=100, owner="alice"):
    txn = db.begin()
    txn.insert("accounts", {"id": id_, "balance": balance, "owner": owner})
    txn.commit()


class TestCatalog:
    def test_create_and_lookup(self, db):
        assert db.table("accounts").name == "accounts"
        assert "accounts" in db.table_names()

    def test_unknown_table(self, db):
        with pytest.raises(TableNotFoundError):
            db.table("ghost")

    def test_duplicate_table(self, db):
        with pytest.raises(ValueError, match="already exists"):
            db.create_table(
                TableSchema("accounts", [integer("id")], ("id",))
            )

    def test_file_id_mapping(self, db):
        file_id = db.file_id_of("accounts")
        assert db.table_of_file(file_id) == "accounts"

    def test_unknown_file_id(self, db):
        with pytest.raises(TableNotFoundError):
            db.table_of_file(999)


class TestCommit:
    def test_insert_visible_after_commit(self, db):
        deposit(db, 1)
        txn = db.begin()
        assert txn.select("accounts", (1,))["balance"] == 100
        txn.commit()

    def test_update_with_dict(self, db):
        deposit(db, 1)
        txn = db.begin()
        new_row = txn.update("accounts", (1,), {"balance": 250})
        txn.commit()
        assert new_row["balance"] == 250

    def test_update_with_callable(self, db):
        deposit(db, 1)
        txn = db.begin()
        txn.update("accounts", (1,), lambda row: {**row, "balance": row["balance"] + 1})
        txn.commit()
        txn = db.begin()
        assert txn.select("accounts", (1,))["balance"] == 101
        txn.commit()

    def test_delete(self, db):
        deposit(db, 1)
        txn = db.begin()
        txn.delete("accounts", (1,))
        txn.commit()
        assert db.table("accounts").row_count == 0

    def test_commit_releases_locks(self, db):
        deposit(db, 1)
        txn1 = db.begin()
        txn1.update("accounts", (1,), {"balance": 1})
        txn1.commit()
        txn2 = db.begin()
        txn2.update("accounts", (1,), {"balance": 2})  # no conflict
        txn2.commit()


class TestAbort:
    def test_abort_undoes_insert(self, db):
        txn = db.begin()
        txn.insert("accounts", {"id": 1, "balance": 1, "owner": "x"})
        txn.abort()
        assert db.table("accounts").row_count == 0

    def test_abort_undoes_update(self, db):
        deposit(db, 1, balance=100)
        txn = db.begin()
        txn.update("accounts", (1,), {"balance": 999})
        txn.abort()
        check = db.begin()
        assert check.select("accounts", (1,))["balance"] == 100
        check.commit()

    def test_abort_undoes_delete(self, db):
        deposit(db, 1, owner="alice")
        txn = db.begin()
        txn.delete("accounts", (1,))
        txn.abort()
        check = db.begin()
        assert check.select("accounts", (1,))["owner"] == "alice"
        check.commit()

    def test_abort_undoes_in_reverse_order(self, db):
        deposit(db, 1, balance=10)
        txn = db.begin()
        txn.update("accounts", (1,), {"balance": 20})
        txn.update("accounts", (1,), {"balance": 30})
        txn.abort()
        check = db.begin()
        assert check.select("accounts", (1,))["balance"] == 10
        check.commit()

    def test_abort_restores_secondary_indexes(self, db):
        deposit(db, 1, owner="alice")
        txn = db.begin()
        txn.update("accounts", (1,), {"owner": "mallory"})
        txn.abort()
        check = db.begin()
        rows = check.select_by_index("accounts", "by_owner", ("alice",))
        check.commit()
        assert len(rows) == 1

    def test_operations_after_abort_rejected(self, db):
        txn = db.begin()
        txn.abort()
        with pytest.raises(TransactionStateError):
            txn.select("accounts", (1,))

    def test_double_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.commit()


class TestIsolation:
    def test_write_write_conflict(self, db):
        deposit(db, 1)
        txn1 = db.begin()
        txn2 = db.begin()
        txn1.update("accounts", (1,), {"balance": 1})
        with pytest.raises(LockConflictError):
            txn2.update("accounts", (1,), {"balance": 2})
        txn1.commit()

    def test_read_write_conflict(self, db):
        deposit(db, 1)
        txn1 = db.begin()
        txn2 = db.begin()
        txn1.select("accounts", (1,))
        with pytest.raises(LockConflictError):
            txn2.update("accounts", (1,), {"balance": 2})
        txn1.commit()

    def test_blocking_conflict_without_a_scheduler_fails_at_once(self):
        """With nothing to park in, a blocking-mode wait is the conflict it is."""
        db = Database(buffer_pages=64, lock_timeout=0.5)
        db.create_table(
            TableSchema("accounts", [integer("id"), integer("balance")], ("id",))
        )
        db.run(lambda txn: txn.insert("accounts", {"id": 1, "balance": 0}))
        txn1 = db.begin()
        txn2 = db.begin()
        txn1.update("accounts", (1,), {"balance": 1})
        with pytest.raises(LockConflictError):
            txn2.update("accounts", (1,), {"balance": 2})
        assert db.locks.waits == 0  # nothing was parked
        txn2.abort()
        txn1.commit()

    def test_concurrent_readers_allowed(self, db):
        deposit(db, 1)
        txn1 = db.begin()
        txn2 = db.begin()
        assert txn1.select("accounts", (1,)) == txn2.select("accounts", (1,))
        txn1.commit()
        txn2.commit()


class TestRun:
    def test_run_commits(self, db):
        db.run(lambda txn: txn.insert("accounts", {"id": 1, "balance": 5, "owner": "z"}))
        assert db.table("accounts").row_count == 1

    def test_run_aborts_on_exception(self, db):
        def work(txn):
            txn.insert("accounts", {"id": 1, "balance": 5, "owner": "z"})
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            db.run(work)
        assert db.table("accounts").row_count == 0


class TestCensus:
    def test_counts_by_label(self, db):
        txn = db.begin("payment")
        txn.insert("accounts", {"id": 1, "balance": 5, "owner": "z"})
        txn.commit()
        txn = db.begin("payment")
        txn.select("accounts", (1,))
        txn.update("accounts", (1,), {"balance": 6})
        txn.commit()
        census = db.census("payment")
        assert census.inserts == 1
        assert census.selects == 1
        assert census.updates == 1
        assert db.finished_count("payment") == 2

    def test_aborted_transactions_not_counted(self, db):
        txn = db.begin("x")
        txn.insert("accounts", {"id": 1, "balance": 5, "owner": "z"})
        txn.abort()
        assert db.finished_count("x") == 0


class TestRecovery:
    def test_committed_survives_crash(self, db):
        deposit(db, 1, balance=77)
        db.crash()
        db.recover()
        txn = db.begin()
        assert txn.select("accounts", (1,))["balance"] == 77
        txn.commit()

    def test_uncommitted_rolled_back_after_crash(self, db):
        deposit(db, 1, balance=10)
        txn = db.begin()
        txn.update("accounts", (1,), {"balance": 999})
        db.checkpoint()  # steal: dirty uncommitted page reaches disk
        db.crash()
        db.recover()
        check = db.begin()
        assert check.select("accounts", (1,))["balance"] == 10
        check.commit()

    def test_uncommitted_insert_removed(self, db):
        txn = db.begin()
        txn.insert("accounts", {"id": 9, "balance": 1, "owner": "ghost"})
        db.checkpoint()
        db.crash()
        db.recover()
        assert db.table("accounts").row_count == 0

    def test_indexes_rebuilt_after_recovery(self, db):
        deposit(db, 1, owner="alice")
        deposit(db, 2, owner="alice")
        db.crash()
        db.recover()
        txn = db.begin()
        rows = txn.select_by_index("accounts", "by_owner", ("alice",))
        txn.commit()
        assert len(rows) == 2

    def test_crash_keeps_the_configured_policy(self):
        db = Database(buffer_pages=64, policy="clock")
        db.create_table(TableSchema("accounts", [integer("id")], ("id",)))
        db.run(lambda txn: txn.insert("accounts", {"id": 1}))
        db.crash()
        db.recover()
        assert db.buffers.policy_name == "clock"
        assert type(db.buffers._policy).__name__ == "ClockPolicy"
        txn = db.begin()
        assert txn.select("accounts", (1,)) == {"id": 1}
        txn.commit()

    def test_unflushed_committed_work_redone(self, db):
        # Commit but never checkpoint: the page images on "disk" are
        # stale and recovery must redo from the log.
        deposit(db, 1, balance=123)
        db.crash()
        db.recover()
        txn = db.begin()
        assert txn.select("accounts", (1,))["balance"] == 123
        txn.commit()


class TestStatementAccounting:
    """One page request, one decode, at most one encode per primary-key
    statement; the log carries the bytes the page held."""

    @staticmethod
    def page_of(db, id_):
        table = db.table("accounts")
        return db.buffers.get_page(table.heap.page_id(table.rid_of((id_,)).page_no))

    @staticmethod
    def measured(db, statement):
        """(page requests, WAL change records) made by one statement."""
        requests, records = db.buffers.stats.accesses(), len(db.wal)
        statement()
        return db.buffers.stats.accesses() - requests, db.wal.records()[records:]

    def test_update_insert_delete_make_one_request_and_one_record(self, db):
        deposit(db, 1)
        txn = db.begin()
        for kind, statement in [
            ("update", lambda: txn.update("accounts", (1,), {"balance": 5})),
            ("update", lambda: txn.update("accounts", (1,), lambda r: {**r, "owner": "bob"})),
            ("insert", lambda: txn.insert("accounts", {"id": 2, "balance": 0, "owner": "eve"})),
            ("delete", lambda: txn.delete("accounts", (1,))),
        ]:
            requests, records = self.measured(db, statement)
            assert requests == 1, kind
            assert [record.type.value for record in records] == [kind]
        requests, records = self.measured(db, lambda: txn.select("accounts", (2,)))
        assert (requests, records) == (1, ())
        txn.commit()

    def test_codec_calls_per_statement(self, db, monkeypatch):
        deposit(db, 1)
        calls = []
        for name in ("pack", "unpack", "patch"):
            original = getattr(TableSchema, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(TableSchema, name, counted)
        txn = db.begin()
        txn.update("accounts", (1,), {"balance": 5})
        assert calls == ["unpack", "patch"]
        del calls[:]
        txn.update("accounts", (1,), lambda row: {**row, "balance": 6})
        assert calls == ["unpack", "pack"]
        del calls[:]
        txn.insert("accounts", {"id": 2, "balance": 0, "owner": "eve"})
        assert calls == ["pack"]
        del calls[:]
        txn.delete("accounts", (1,))
        assert calls == ["unpack"]
        txn.commit()

    def test_log_images_are_the_page_bytes(self, db):
        deposit(db, 1)
        table = db.table("accounts")
        rid = table.rid_of((1,))
        on_page = table.heap.read(rid)
        txn = db.begin()
        new_row = txn.update("accounts", (1,), {"balance": 7, "owner": "carol"})
        update = db.wal.records()[-1]
        assert update.before == on_page
        assert update.after == table.heap.read(rid) == table.schema.pack(new_row)
        txn.delete("accounts", (1,))
        assert db.wal.records()[-1].before == update.after
        txn.insert("accounts", {"id": 3, "balance": 1, "owner": "dan"})
        assert db.wal.records()[-1].after == table.heap.read(table.rid_of((3,)))
        txn.commit()

    def test_update_of_unknown_column_or_key_changes_nothing(self, db):
        deposit(db, 1)
        image, logged = self.page_of(db, 1).to_bytes(), len(db.wal)
        txn = db.begin()
        with pytest.raises(KeyError):
            txn.update("accounts", (1,), {"no_such_column": 1})
        with pytest.raises(ValueError, match="immutable"):
            txn.update("accounts", (1,), {"id": 2})
        assert self.page_of(db, 1).to_bytes() == image
        assert len(db.wal) == logged + 1  # the BEGIN
        txn.commit()

    def test_abort_restores_the_page_bytes_exactly(self, db):
        deposit(db, 1)
        deposit(db, 2, owner="bob")
        image = self.page_of(db, 1).to_bytes()
        txn = db.begin()
        txn.update("accounts", (1,), {"balance": 9, "owner": "mallory"})
        txn.update("accounts", (2,), lambda row: {**row, "balance": -1})
        txn.delete("accounts", (2,))
        assert self.page_of(db, 1).to_bytes() != image
        txn.abort()
        assert self.page_of(db, 1).to_bytes() == image

    def test_abort_after_insert_frees_the_slot_again(self, db):
        deposit(db, 1)
        records = dict(self.page_of(db, 1).records())
        txn = db.begin()
        txn.insert("accounts", {"id": 2, "balance": 0, "owner": "eve"})
        txn.abort()
        # The freed slot keeps its stale bytes, so compare the live records.
        assert dict(self.page_of(db, 1).records()) == records
        assert db.table("accounts").row_count == 1

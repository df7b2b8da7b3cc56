"""Unit tests for repro.engine.wal."""

import pytest

from repro.engine.errors import WalError
from repro.engine.wal import LogRecord, LogRecordType, WriteAheadLog


@pytest.fixture
def wal():
    return WriteAheadLog()


def change(wal, txn, type_=LogRecordType.UPDATE, before=b"old", after=b"new"):
    return wal.log_change(txn, type_, "t", ("rid", 0), before, after)


class TestProtocol:
    def test_begin_commit(self, wal):
        wal.log_begin(1)
        assert wal.is_active(1)
        wal.log_commit(1)
        assert wal.is_committed(1)
        assert not wal.is_active(1)

    def test_begin_twice_rejected(self, wal):
        wal.log_begin(1)
        with pytest.raises(WalError, match="already began"):
            wal.log_begin(1)

    def test_txn_id_reuse_rejected(self, wal):
        wal.log_begin(1)
        wal.log_commit(1)
        with pytest.raises(WalError, match="already used"):
            wal.log_begin(1)

    def test_change_requires_active(self, wal):
        with pytest.raises(WalError, match="not active"):
            change(wal, 1)

    def test_commit_requires_active(self, wal):
        with pytest.raises(WalError, match="not active"):
            wal.log_commit(1)

    def test_change_type_validated(self, wal):
        wal.log_begin(1)
        with pytest.raises(WalError, match="change record"):
            wal.log_change(1, LogRecordType.COMMIT, "t", 0, None, None)

    def test_active_transactions_are_the_unended_ones_ascending(self, wal):
        assert wal.active_transactions() == ()
        for txn in (5, 2, 9, 7):
            wal.log_begin(txn)
        change(wal, 9)
        wal.log_commit(5)
        wal.log_abort(7)
        assert wal.active_transactions() == (2, 9)
        assert wal.abort_all_active() == (2, 9)
        assert wal.active_transactions() == ()

    def test_lsns_monotone(self, wal):
        wal.log_begin(1)
        lsn1 = change(wal, 1)
        lsn2 = change(wal, 1)
        assert lsn2 == lsn1 + 1
        assert wal.next_lsn == lsn2 + 1


class TestUndoRecords:
    def test_newest_first(self, wal):
        wal.log_begin(1)
        first = change(wal, 1, before=b"a")
        second = change(wal, 1, before=b"b")
        records = list(wal.undo_records(1))
        assert [r.lsn for r in records] == [second, first]

    def test_only_own_records(self, wal):
        wal.log_begin(1)
        wal.log_begin(2)
        change(wal, 1)
        change(wal, 2)
        assert all(r.txn_id == 1 for r in wal.undo_records(1))

    def test_walk_stops_at_the_transactions_begin(self, wal):
        """Aborting a late transaction reads nothing older than its BEGIN."""

        class Unread:
            @property
            def txn_id(self):
                raise AssertionError("undo walked past the transaction's BEGIN")

        for txn_id in range(1, 6):
            wal.log_begin(txn_id)
            change(wal, txn_id)
            wal.log_commit(txn_id)
        earlier = len(wal)
        wal.log_begin(9)
        wal.log_begin(10)
        first = change(wal, 10)
        change(wal, 9)
        second = change(wal, 10)
        wal._records[:earlier] = [Unread()] * earlier
        assert [r.lsn for r in wal.undo_records(10)] == [second, first]


class TestRedoRecords:
    def test_only_committed_oldest_first(self, wal):
        wal.log_begin(1)
        wal.log_begin(2)
        lsn_a = change(wal, 1)
        change(wal, 2)  # never commits
        lsn_b = change(wal, 1)
        wal.log_commit(1)
        redo = list(wal.redo_records())
        assert [r.lsn for r in redo] == [lsn_a, lsn_b]

    def test_aborted_excluded(self, wal):
        wal.log_begin(1)
        change(wal, 1)
        wal.log_abort(1)
        assert list(wal.redo_records()) == []


class TestAccounting:
    def test_bytes_written_tracks_images(self, wal):
        wal.log_begin(1)
        before = wal.bytes_written
        change(wal, 1, before=b"x" * 100, after=b"y" * 50)
        assert wal.bytes_written == before + 32 + 150

    def test_records_snapshot(self, wal):
        wal.log_begin(1)
        change(wal, 1)
        assert len(wal.records()) == 2
        assert len(wal) == 2


class TestLogRecord:
    def test_fields_are_read_only(self, wal):
        wal.log_begin(1)
        change(wal, 1)
        record = wal.records()[-1]
        for name in ("lsn", "txn_id", "type", "table", "location", "before", "after"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record.after == b"new"

    def test_defaults_of_a_terminator(self):
        record = LogRecord(7, 3, LogRecordType.COMMIT)
        assert (record.table, record.location, record.before, record.after) == (None,) * 4

    def test_sizes_of_every_record_type(self, wal):
        """32 header bytes plus the images, as the dataclass record counted."""
        wal.log_begin(1)
        wal.log_change(1, LogRecordType.INSERT, "t", ("rid", 0), None, b"a" * 60)
        wal.log_change(1, LogRecordType.UPDATE, "t", ("rid", 0), b"a" * 60, b"b" * 60)
        wal.log_change(1, LogRecordType.DELETE, "t", ("rid", 0), b"b" * 60, None)
        wal.log_commit(1)
        wal.log_begin(2)
        wal.log_abort(2)
        sizes = [record.size_bytes for record in wal.records()]
        assert sizes == [32, 92, 152, 92, 32, 32, 32]
        assert wal.bytes_written == 464

"""Property-based WAL edge cases.

Covers log-level contracts the recovery tests rely on implicitly:
``abort_all_active`` closes out crashed transactions deterministically,
``undo_records`` walks exactly one transaction's changes newest-first
even when transactions interleave in the log, and full-history replay
(redo) is idempotent — replaying the log again cannot change the state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import TableSchema, integer
from repro.engine.database import Database
from repro.engine.heap import RecordId
from repro.engine.wal import LogRecordType, WriteAheadLog

CHANGE_TYPES = (LogRecordType.INSERT, LogRecordType.UPDATE, LogRecordType.DELETE)


class TestAbortAllActive:
    @given(
        begun=st.sets(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
        committed_fraction=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_closes_survivors_in_ascending_txn_order(
        self, begun, committed_fraction
    ):
        wal = WriteAheadLog()
        for txn_id in sorted(begun):
            wal.log_begin(txn_id)
        committed = committed_fraction.draw(
            st.sets(st.sampled_from(sorted(begun)), max_size=len(begun))
        )
        for txn_id in sorted(committed):
            wal.log_commit(txn_id)

        crashed = wal.abort_all_active()

        assert crashed == tuple(sorted(begun - committed))
        assert not any(wal.is_active(txn_id) for txn_id in begun)
        # The closing ABORT records sit at the log tail, ascending.
        tail = wal.records()[-len(crashed):] if crashed else ()
        assert tuple(record.txn_id for record in tail) == crashed
        assert all(record.type is LogRecordType.ABORT for record in tail)

    def test_empty_log_is_a_noop(self):
        wal = WriteAheadLog()
        assert wal.abort_all_active() == ()
        assert len(wal) == 0


class TestInterleavedUndo:
    @given(
        interleaving=st.lists(
            st.tuples(
                st.sampled_from([1, 2]),
                st.sampled_from(CHANGE_TYPES),
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_undo_walks_one_transaction_newest_first(self, interleaving):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_begin(2)
        lsns = {1: [], 2: []}
        for txn_id, change_type, slot in interleaving:
            image = bytes([slot % 256]) * 4
            lsn = wal.log_change(
                txn_id,
                change_type,
                "items",
                RecordId(0, slot),
                before=None if change_type is LogRecordType.INSERT else image,
                after=None if change_type is LogRecordType.DELETE else image,
            )
            lsns[txn_id].append(lsn)

        for txn_id in (1, 2):
            undone = [record.lsn for record in wal.undo_records(txn_id)]
            assert undone == list(reversed(lsns[txn_id]))


def fresh_db() -> Database:
    db = Database(buffer_pages=16)
    schema = TableSchema(
        "items", [integer("id"), integer("value")], primary_key=("id",)
    )
    db.create_table(schema)
    return db


operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=1,
    max_size=6,
)
transactions = st.lists(
    st.tuples(operations, st.sampled_from(["commit", "abort"])),
    min_size=1,
    max_size=10,
)


class TestRedoIdempotence:
    @given(transactions)
    @settings(max_examples=40, deadline=None)
    def test_replaying_history_again_changes_nothing(self, txns):
        db = fresh_db()
        existing: set[int] = set()
        for ops, outcome in txns:
            txn = db.begin()
            staged = set(existing)
            for op, key, value in ops:
                row = {"id": key, "value": value}
                if op == "insert" and key not in staged:
                    txn.insert("items", row)
                    staged.add(key)
                elif op == "update" and key in staged:
                    txn.update("items", (key,), {"value": value})
                elif op == "delete" and key in staged:
                    txn.delete("items", (key,))
                    staged.discard(key)
            if outcome == "commit":
                txn.commit()
                existing = staged
            else:
                txn.abort()

        db.crash()
        db.recover()
        recovered = {row["id"]: row for _, row in db.table("items").scan()}

        # Redo again, from the already-recovered state: full-history
        # replay must be idempotent (put/clear land on the same slots).
        heap = db.table("items").heap
        for record in db.wal.change_records():
            if record.after is None:
                heap.apply_clear(record.location)
            else:
                heap.apply_put(record.location, record.after)
        heap.rebuild_metadata()
        db.table("items").rebuild_indexes()

        assert {row["id"]: row for _, row in db.table("items").scan()} == recovered

"""The recovery oracle reports each kind of violation it checks for.

``check_recovery_invariants`` compares the live tables with the state
the log implies.  Each test below builds a small database whose log
and heap agree, corrupts it in one way behind the engine's back, and
pins the exact messages the oracle reports, in order.  The last test
corrupts two tables at once to pin the order across checks and tables.
"""

import pytest

from repro.engine.catalog import TableSchema, char, integer
from repro.engine.database import Database
from repro.engine.heap import RecordId
from repro.engine.table import PRIMARY
from repro.faults import check_recovery_invariants


@pytest.fixture
def db():
    """Two tables of three committed rows each, one row aborted in ``items``."""
    db = Database(buffer_pages=16)
    for name in ("items", "parts"):
        db.create_table(
            TableSchema(
                name,
                [integer("id"), integer("value"), char("tag", 8)],
                primary_key=("id",),
            )
        )
    txn = db.begin()
    for id_ in (1, 2, 3):
        txn.insert("items", row(id_))
        txn.insert("parts", row(id_))
    txn.commit()
    aborted = db.begin()
    aborted.insert("items", row(9))
    aborted.abort()
    return db


def row(id_, value=0, tag="t"):
    return {"id": id_, "value": value, "tag": tag}


def violations(db):
    return check_recovery_invariants(db).violations


def packed(db, table, id_, value=0):
    return db.table(table).schema.pack(row(id_, value))


def test_a_consistent_database_reports_nothing(db):
    assert violations(db) == []


def test_a_committed_row_removed_from_its_heap(db):
    db.table("items").heap.apply_clear(RecordId(0, 1))
    assert violations(db) == [
        "items: 1 committed record(s) lost (durability), "
        "first at RecordId(page_no=0, slot=1)",
    ]


def test_a_rolled_back_row_left_in_place(db):
    # The aborted insert of id 9 used slot 3 and its compensation freed
    # it again; put the row back without the log or the index knowing.
    db.table("items").heap.apply_put(RecordId(0, 3), packed(db, "items", 9))
    assert violations(db) == [
        "items: 1 rolled-back record(s) survive (atomicity), "
        "first at RecordId(page_no=0, slot=3)",
        "items: primary index lost key (9,) (key (9,) not in index)",
    ]


def test_a_differing_image(db):
    db.table("parts").heap.apply_put(RecordId(0, 2), packed(db, "parts", 3, value=7))
    assert violations(db) == [
        "parts: 1 record(s) differ from the log-implied image, "
        "first at RecordId(page_no=0, slot=2)",
    ]


def test_a_primary_index_key_removed(db):
    db.table("parts")._indexes[PRIMARY].delete((2,))
    assert violations(db) == [
        "parts: primary index lost key (2,) (key (2,) not in index)",
    ]


def test_an_index_entry_pointing_at_another_rid(db):
    db.table("items")._indexes[PRIMARY].replace((1,), RecordId(0, 2))
    assert violations(db) == [
        "items: primary index maps (1,) to RecordId(page_no=0, slot=2), "
        "heap has it at RecordId(page_no=0, slot=0)",
    ]


def test_a_transaction_left_active_with_only_its_begin(db):
    txn = db.begin()
    assert violations(db) == [
        f"transactions left active after recovery: [{txn.txn_id}]",
    ]


def test_the_order_across_checks_and_tables(db):
    """Active transactions first; then each table in creation order, its
    lost, surviving and differing records before its index entries, and
    those in heap order."""
    db.wal.log_begin(1000)
    later = db.begin()
    parts = db.table("parts")
    parts.heap.apply_clear(RecordId(0, 0))
    parts.heap.apply_clear(RecordId(0, 1))
    parts._indexes[PRIMARY].delete((3,))
    items = db.table("items")
    items._indexes[PRIMARY].replace((2,), RecordId(0, 0))
    items._indexes[PRIMARY].delete((1,))
    items.heap.apply_put(RecordId(0, 0), packed(db, "items", 1, value=5))
    items.heap.apply_put(RecordId(0, 4), packed(db, "items", 8))
    assert violations(db) == [
        f"transactions left active after recovery: [{later.txn_id}, 1000]",
        "items: 1 rolled-back record(s) survive (atomicity), "
        "first at RecordId(page_no=0, slot=4)",
        "items: 1 record(s) differ from the log-implied image, "
        "first at RecordId(page_no=0, slot=0)",
        "items: primary index lost key (1,) (key (1,) not in index)",
        "items: primary index maps (2,) to RecordId(page_no=0, slot=0), "
        "heap has it at RecordId(page_no=0, slot=1)",
        "items: primary index lost key (8,) (key (8,) not in index)",
        "parts: 2 committed record(s) lost (durability), "
        "first at RecordId(page_no=0, slot=0)",
        "parts: primary index lost key (3,) (key (3,) not in index)",
    ]

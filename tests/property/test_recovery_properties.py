"""Property-based crash-recovery tests.

For any randomly generated sequence of transactions (each a batch of
inserts/updates/deletes, randomly committed or aborted, possibly left
in flight), crashing at the end and recovering must yield exactly the
state produced by the committed transactions — regardless of when
checkpoints pushed stolen pages to disk.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import TableSchema, char, integer
from repro.engine.database import Database
from repro.engine.table import IndexSpec


def fresh_db() -> Database:
    db = Database(buffer_pages=16)  # tiny: forces page steals
    schema = TableSchema(
        "items",
        [integer("id"), integer("value"), char("tag", 8)],
        primary_key=("id",),
    )
    db.create_table(schema, [IndexSpec("by_tag", ("tag",), kind="hash")])
    return db


# One transaction: list of (op, id, value) plus an outcome.
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=1,
    max_size=6,
)
transactions = st.lists(
    st.tuples(operations, st.sampled_from(["commit", "abort"])),
    min_size=1,
    max_size=12,
)

#: Optional work left in flight when the crash hits.  Strict 2PL means
#: an open transaction blocks successors, so in-flight work can only be
#: the *last* activity before the crash.
trailing_in_flight = st.one_of(st.none(), operations)


def apply_ops(txn, model: dict, ops) -> dict:
    """Apply ops to a live transaction and a shadow model copy."""
    shadow = dict(model)
    for op, key, value in ops:
        row = {"id": key, "value": value, "tag": f"t{value % 5}"}
        if op == "insert":
            if key in shadow:
                continue  # skip ops that would violate the key
            txn.insert("items", row)
            shadow[key] = row
        elif op == "update":
            if key not in shadow:
                continue
            txn.update("items", (key,), {"value": value})
            shadow[key] = {**shadow[key], "value": value}
        else:
            if key not in shadow:
                continue
            txn.delete("items", (key,))
            del shadow[key]
    return shadow


def table_state(db: Database) -> dict:
    return {row["id"]: row for _, row in db.table("items").scan()}


class TestCrashConsistency:
    @given(transactions, trailing_in_flight, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_recovery_equals_committed_prefix(
        self, txns, in_flight_ops, checkpoint_each
    ):
        db = fresh_db()
        committed_state: dict = {}
        for ops, outcome in txns:
            txn = db.begin()
            shadow = apply_ops(txn, committed_state, ops)
            if outcome == "commit":
                txn.commit()
                committed_state = shadow
            else:
                txn.abort()
            if checkpoint_each:
                db.checkpoint()  # steal pages, including uncommitted ones
        if in_flight_ops is not None:
            open_txn = db.begin()
            apply_ops(open_txn, committed_state, in_flight_ops)
            db.checkpoint()  # its dirty pages reach disk, then the crash
        db.crash()
        db.recover()
        assert table_state(db) == committed_state

    @given(transactions)
    @settings(max_examples=30, deadline=None)
    def test_double_recovery_idempotent(self, txns):
        db = fresh_db()
        committed_state: dict = {}
        for ops, outcome in txns:
            txn = db.begin()
            shadow = apply_ops(txn, committed_state, ops)
            if outcome == "commit":
                txn.commit()
                committed_state = shadow
            else:
                txn.abort()
        db.crash()
        db.recover()
        first = table_state(db)
        db.crash()
        db.recover()
        assert table_state(db) == first == committed_state

    @given(transactions)
    @settings(max_examples=30, deadline=None)
    def test_secondary_index_consistent_after_recovery(self, txns):
        db = fresh_db()
        committed_state: dict = {}
        for ops, outcome in txns:
            txn = db.begin()
            shadow = apply_ops(txn, committed_state, ops)
            if outcome == "commit":
                txn.commit()
                committed_state = shadow
            else:
                txn.abort()
        db.crash()
        db.recover()
        table = db.table("items")
        for key, row in committed_state.items():
            rids = table.lookup("by_tag", (row["tag"],))
            assert any(table.read(rid)["id"] == key for rid in rids)

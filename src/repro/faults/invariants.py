"""Recovery invariants: atomicity and durability, checked logically.

After ``Database.crash()`` + ``Database.recover()`` the engine's state
must equal the state implied by the *log*, independent of what the
heap/buffer/index machinery did: every committed transaction's effects
present (durability), every aborted or in-flight transaction's effects
absent (atomicity).  The checker rebuilds that expected state as a
plain ``{(table, rid): record-bytes}`` mapping — base backup images
plus a full-history replay of the WAL's change records (compensation
records neutralize aborted work) — and diffs it against the live
tables, including their indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.heap import RecordId
from repro.engine.page import Page


@dataclass
class InvariantReport:
    """Outcome of a recovery-invariant check."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def raise_if_violated(self) -> None:
        if not self.ok:
            raise InvariantViolation("; ".join(self.violations))


class InvariantViolation(AssertionError):
    """A recovery invariant did not hold."""


def expected_state(db: Database) -> dict[str, dict[RecordId, bytes]]:
    """Logical post-recovery state implied by backup + WAL history.

    Base state comes from the page store's backup snapshot (taken after
    the initial load); the WAL's full change-record history is then
    replayed over it in LSN order.  Because aborts log compensation
    records, the result is exactly the committed state.
    """
    state: dict[str, dict[RecordId, bytes]] = {name: {} for name in db.table_names()}
    backup = db.store.backup_images()
    for page_id, image in backup.items():
        table = db.table_of_file(page_id.file_id)
        page = Page.from_bytes(image, db.store.page_size)
        for slot, record in page.records():
            state[table][RecordId(page_id.page_no, slot)] = record
    for record in db.wal.change_records():
        table_state = state[record.table]
        if record.after is None:
            table_state.pop(record.location, None)
        else:
            table_state[record.location] = record.after
    return state


def check_recovery_invariants(db: Database) -> InvariantReport:
    """Assert atomicity + durability of the recovered database.

    Checks, per table: heap contents equal the log-implied state
    byte-for-byte, and the rebuilt primary index resolves every
    surviving row.  Also checks that no transaction is left active in
    the WAL (recovery must close out in-flight work).
    """
    report = InvariantReport()
    expected = expected_state(db)

    active = [
        record.txn_id
        for record in db.wal.records()
        if db.wal.is_active(record.txn_id)
    ]
    if active:
        report.add(f"transactions left active after recovery: {sorted(set(active))}")

    for name in db.table_names():
        table = db.table(name)
        actual = {rid: record for rid, record in table.heap.scan()}
        want = expected[name]
        missing = sorted(set(want) - set(actual))
        extra = sorted(set(actual) - set(want))
        if missing:
            report.add(
                f"{name}: {len(missing)} committed record(s) lost "
                f"(durability), first at {missing[0]}"
            )
        if extra:
            report.add(
                f"{name}: {len(extra)} rolled-back record(s) survive "
                f"(atomicity), first at {extra[0]}"
            )
        differing = [
            rid
            for rid in sorted(set(want) & set(actual))
            if want[rid] != actual[rid]
        ]
        if differing:
            report.add(
                f"{name}: {len(differing)} record(s) differ from the "
                f"log-implied image, first at {sorted(differing)[0]}"
            )
        for rid, record in actual.items():
            row = table.schema.unpack(record)
            key = table.schema.key_of(row)
            try:
                indexed = table.rid_of(key)
            except Exception as error:  # noqa: BLE001 - reported as violation
                report.add(f"{name}: primary index lost key {key!r} ({error})")
                continue
            if indexed != rid:
                report.add(
                    f"{name}: primary index maps {key!r} to {indexed}, "
                    f"heap has it at {rid}"
                )
    return report


__all__ = [
    "InvariantReport",
    "InvariantViolation",
    "check_recovery_invariants",
    "expected_state",
]

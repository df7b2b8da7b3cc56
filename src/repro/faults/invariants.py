"""Recovery invariants: atomicity and durability, checked logically.

After ``Database.crash()`` + ``Database.recover()`` the engine's state
must equal the state implied by the *log*, independent of what the
heap/buffer/index machinery did: every committed transaction's effects
present (durability), every aborted or in-flight transaction's effects
absent (atomicity).  The checker rebuilds that expected state one
table at a time, as a plain ``{rid: record-bytes}`` mapping — the
table's backup images plus a full-history replay of its WAL change
records (compensation records neutralize aborted work) — and diffs it
against the table's heap and primary index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.heap import RecordId
from repro.engine.page import Page, PageId


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
    backup = db.store.backup_images()
    return {name: _expected_table(db, name, backup) for name in db.table_names()}


def _expected_table(
    db: Database, name: str, backup: dict[PageId, bytes]
) -> dict[RecordId, bytes]:
    """:func:`expected_state` of one table: its backup pages' records,
    then its change records replayed in LSN order."""
    file_id = db.file_id_of(name)
    page_size = db.store.page_size
    state: dict[RecordId, bytes] = {}
    for page_id, image in backup.items():
        if page_id.file_id == file_id:
            for slot, record in Page.from_bytes(image, page_size).records():
                state[RecordId(page_id.page_no, slot)] = record
    for record in db.wal.change_records():
        if record.table != name:
            continue
        if record.after is None:
            state.pop(record.location, None)
        else:
            state[record.location] = record.after
    return state


def check_recovery_invariants(db: Database) -> InvariantReport:
    """Assert atomicity + durability of the recovered database.

    Checks, per table: heap contents equal the log-implied state
    byte-for-byte, and the rebuilt primary index resolves every
    surviving row.  Also checks that no transaction is left active in
    the WAL (recovery must close out in-flight work).  The log-implied
    state is built one table at a time and checked during one scan of
    that table's heap, so the check holds at most one table's expected
    records at once.
    """
    report = InvariantReport()
    active = db.wal.active_transactions()
    if active:
        report.add(f"transactions left active after recovery: {list(active)}")
    backup = db.store.backup_images()
    for name in db.table_names():
        _check_table(db, name, _expected_table(db, name, backup), report)
    return report


def _check_table(
    db: Database, name: str, expected: dict[RecordId, bytes], report: InvariantReport
) -> None:
    """Scan one table's heap against its log-implied state (consumed)."""
    table = db.table(name)
    schema = table.schema
    extra: list[RecordId] = []
    differing: list[RecordId] = []
    index_faults: list[str] = []
    for rid, record in table.heap.scan():
        want = expected.pop(rid, None)
        if want is None:
            extra.append(rid)
        elif want != record:
            differing.append(rid)
        key = schema.key_of(schema.unpack(record))
        try:
            indexed = table.rid_of(key)
        except Exception as error:  # noqa: BLE001 - reported as violation
            index_faults.append(f"{name}: primary index lost key {key!r} ({error})")
            continue
        if indexed != rid:
            index_faults.append(
                f"{name}: primary index maps {key!r} to {indexed}, "
                f"heap has it at {rid}"
            )
    # What the scan did not consume is missing from the heap.
    if expected:
        report.add(
            f"{name}: {len(expected)} committed record(s) lost "
            f"(durability), first at {min(expected)}"
        )
    if extra:
        report.add(
            f"{name}: {len(extra)} rolled-back record(s) survive "
            f"(atomicity), first at {min(extra)}"
        )
    if differing:
        report.add(
            f"{name}: {len(differing)} record(s) differ from the "
            f"log-implied image, first at {min(differing)}"
        )
    for message in index_faults:
        report.add(message)


__all__ = [
    "InvariantReport",
    "InvariantViolation",
    "check_recovery_invariants",
    "expected_state",
]

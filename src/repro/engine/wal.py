"""A write-ahead log with undo/redo records.

Every tuple mutation appends a log record carrying before- and
after-images; commit and abort append terminator records.  The log
supports the two operations the engine needs:

* **abort** — walk a live transaction's records backwards and hand the
  before-images to the caller for undo;
* **recovery** — after a simulated crash (buffer contents lost), replay
  the after-images of committed transactions and discard the effects of
  uncommitted ones (redo-only recovery is sufficient because the engine
  flushes no dirty page of an uncommitted transaction in tests; undo
  information is still logged for completeness and abort).

The paper models a dedicated log disk; ``bytes_written`` measures the
log traffic that disk would carry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.engine.errors import WalError
from repro.obs import instruments


class LogRecordType(enum.Enum):
    BEGIN = "begin"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry.

    ``location`` identifies the tuple: (table name, RecordId).  Images
    are raw record bytes (None where not applicable).
    """

    lsn: int
    txn_id: int
    type: LogRecordType
    table: str | None = None
    location: object | None = None
    before: bytes | None = None
    after: bytes | None = None

    @property
    def size_bytes(self) -> int:
        """Approximate serialized size, for log-traffic accounting."""
        size = 32  # fixed header: lsn, txn, type, table/location refs
        if self.before is not None:
            size += len(self.before)
        if self.after is not None:
            size += len(self.after)
        return size


class WriteAheadLog:
    """An append-only in-memory log.

    An optional fault injector (see :mod:`repro.faults`) is consulted
    before every append; transaction-state bookkeeping happens only
    *after* a successful append, so an injected append failure leaves
    the log consistent and the operation retryable.
    """

    def __init__(self, injector=None) -> None:
        self._records: list[LogRecord] = []
        self._active: set[int] = set()
        self._committed: set[int] = set()
        self._aborted: set[int] = set()
        self.bytes_written = 0
        self._injector = injector

    def set_injector(self, injector) -> None:
        """Arm (or disarm with None) a fault injector at the append seam."""
        self._injector = injector

    # -- accessors ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def next_lsn(self) -> int:
        return len(self._records)

    def records(self) -> tuple[LogRecord, ...]:
        return tuple(self._records)

    def is_committed(self, txn_id: int) -> bool:
        return txn_id in self._committed

    def is_active(self, txn_id: int) -> bool:
        return txn_id in self._active

    # -- appends -------------------------------------------------------------------

    def log_begin(self, txn_id: int) -> int:
        if txn_id in self._active:
            raise WalError(f"transaction {txn_id} already began")
        if txn_id in self._committed or txn_id in self._aborted:
            raise WalError(f"transaction id {txn_id} was already used")
        lsn = self._append(LogRecord(self.next_lsn, txn_id, LogRecordType.BEGIN))
        self._active.add(txn_id)
        return lsn

    def log_change(
        self,
        txn_id: int,
        type_: LogRecordType,
        table: str,
        location: object,
        before: bytes | None,
        after: bytes | None,
    ) -> int:
        """Append an insert/update/delete record."""
        self._check_active(txn_id)
        if type_ not in (
            LogRecordType.INSERT,
            LogRecordType.UPDATE,
            LogRecordType.DELETE,
        ):
            raise WalError(f"{type_} is not a change record type")
        return self._append(
            LogRecord(self.next_lsn, txn_id, type_, table, location, before, after)
        )

    def log_commit(self, txn_id: int) -> int:
        self._check_active(txn_id)
        lsn = self._append(LogRecord(self.next_lsn, txn_id, LogRecordType.COMMIT))
        self._active.discard(txn_id)
        self._committed.add(txn_id)
        return lsn

    def log_abort(self, txn_id: int) -> int:
        self._check_active(txn_id)
        lsn = self._append(LogRecord(self.next_lsn, txn_id, LogRecordType.ABORT))
        self._active.discard(txn_id)
        self._aborted.add(txn_id)
        return lsn

    def abort_all_active(self) -> tuple[int, ...]:
        """Mark every in-flight transaction aborted (crash recovery).

        Returns the transaction ids that were closed out.
        """
        crashed = tuple(sorted(self._active))
        for txn_id in crashed:
            self.log_abort(txn_id)
        return crashed

    # -- undo / redo ------------------------------------------------------------------

    def undo_records(self, txn_id: int) -> Iterator[LogRecord]:
        """A live transaction's change records, newest first (for abort).

        The walk stops at the transaction's ``BEGIN``: nothing of it
        lies further back, so an abort costs what the log has grown
        since the transaction began, not the whole log.
        """
        self._check_active(txn_id)
        for record in reversed(self._records):
            if record.txn_id != txn_id:
                continue
            if record.type is LogRecordType.BEGIN:
                return
            if record.type in (
                LogRecordType.INSERT,
                LogRecordType.UPDATE,
                LogRecordType.DELETE,
            ):
                yield record

    def redo_records(self) -> Iterator[LogRecord]:
        """Change records of committed transactions, oldest first."""
        for record in self._records:
            if record.txn_id in self._committed and record.type in (
                LogRecordType.INSERT,
                LogRecordType.UPDATE,
                LogRecordType.DELETE,
            ):
                yield record

    def change_records(self) -> Iterator[LogRecord]:
        """Every change record in LSN order (full history replay).

        Because aborts append compensation records before their ABORT
        terminator, replaying the complete history reproduces exactly
        the committed state plus the effects of still-active
        transactions (which recovery then rolls back).
        """
        for record in self._records:
            if record.type in (
                LogRecordType.INSERT,
                LogRecordType.UPDATE,
                LogRecordType.DELETE,
            ):
                yield record

    # -- internal --------------------------------------------------------------------------

    def _check_active(self, txn_id: int) -> None:
        if txn_id not in self._active:
            raise WalError(f"transaction {txn_id} is not active")

    def _append(self, record: LogRecord) -> int:
        if self._injector is not None:
            self._injector.check("wal.append")
        self._records.append(record)
        size = record.size_bytes
        self.bytes_written += size
        if instruments.REGISTRY.enabled:
            instruments.WAL_APPENDS.inc(type=record.type.value)
            instruments.WAL_BYTES.inc(size)
        return record.lsn

"""The database facade: transactions over tables with locks and a WAL.

:class:`Database` owns the page store, buffer manager, lock manager,
write-ahead log and catalog.  :class:`Transaction` provides the
SQL-call-shaped operations the TPC-C executor uses — select, non-unique
select, ordered min/max select, update, insert, delete — taking tuple
locks and logging before/after images so abort and crash recovery work.

Per-transaction call counters mirror the census of paper Table 2, so
the executable engine can *measure* what the model assumes.

Every read statement takes ``columns=``, the columns the caller reads:
the row comes back decoded for those and the primary key only (the key
names the row's lock), and ``None`` decodes the whole row.  An update
returns nothing; one that names no key column never decodes the row.

Concurrency: everything runs on one thread.  Concurrent terminals are
statement sequences interleaved by the virtual-time scheduler
(:mod:`repro.driver.scheduler`), so a statement body is atomic by
construction and tuple locks provide transaction-level isolation.
The scheduler installs a *statement gate*
(:meth:`Database.set_statement_gate`) to price each statement, and
parks a statement that blocks on a lock under the blocking policy:
the statement returns its :class:`~repro.engine.locks.LockWait`, and
the scheduler re-runs it from its start once the lock is released.
That is safe because every write statement takes its lock before it
changes anything, and re-taking a read lock already held is a no-op.
"""

from __future__ import annotations

import enum
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager

from repro.engine.bufferpool import BufferManager
from repro.engine.catalog import TableSchema
from repro.engine.errors import (
    TableNotFoundError,
    TransactionAbortedByCrashError,
    TransactionStateError,
)
from repro.engine.heap import HeapFile, RecordId
from repro.engine.locks import LockManager, LockMode, LockWait
from repro.engine.page import Page, PageStore
from repro.engine.table import IndexSpec, Table
from repro.engine.wal import LogRecordType, WriteAheadLog
from repro.obs import instruments

# Enum members, bound once: on CPython 3.10 and 3.11 a load through the
# class goes through ``EnumType.__getattr__`` (see ``locks.py``), and a
# statement makes several: its state check, lock mode and record type.
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE
_INSERT = LogRecordType.INSERT
_UPDATE = LogRecordType.UPDATE
_DELETE = LogRecordType.DELETE


@dataclass
class CallCounts:
    """SQL-call census of one transaction (paper Table 2 columns)."""

    selects: int = 0
    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    non_unique_selects: int = 0
    joins: int = 0

    def merge(self, other: "CallCounts") -> None:
        self.selects += other.selects
        self.updates += other.updates
        self.inserts += other.inserts
        self.deletes += other.deletes
        self.non_unique_selects += other.non_unique_selects
        self.joins += other.joins

    def as_dict(self) -> dict[str, int]:
        return {
            "selects": self.selects,
            "updates": self.updates,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "non_unique_selects": self.non_unique_selects,
            "joins": self.joins,
        }

    def total(self) -> int:
        """All SQL calls of the transaction."""
        return (
            self.selects
            + self.updates
            + self.inserts
            + self.deletes
            + self.non_unique_selects
            + self.joins
        )


class _TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE = _TxnState.ACTIVE
_COMMITTED = _TxnState.COMMITTED
_ABORTED = _TxnState.ABORTED


class Transaction:
    """One unit of work; obtain via :meth:`Database.begin`."""

    def __init__(self, db: "Database", txn_id: int, label: str = "all"):
        self._db = db
        self._id = txn_id
        self._label = label
        self._state = _ACTIVE
        #: Database epoch at begin; a crash bumps the epoch, making this
        #: transaction stale (recovery already rolled it back via WAL).
        self._epoch = db.epoch
        self.calls = CallCounts()
        #: Slots freed by this transaction's deletes, reserved in their
        #: heaps until commit/abort so concurrent inserts cannot reuse
        #: a slot an abort would need to restore into.
        self._freed_slots: list[tuple[str, RecordId]] = []
        db.wal.log_begin(txn_id)

    @property
    def label(self) -> str:
        """Census label (e.g. the transaction type name)."""
        return self._label

    @property
    def txn_id(self) -> int:
        return self._id

    @property
    def is_active(self) -> bool:
        return self._state is _ACTIVE

    def _statement(self, kind: str) -> ContextManager[None]:
        """Gate scope (when a gate is installed) for one SQL call.

        The SQL statements below test the gate and the transaction state
        inline instead; this serves the once-per-transaction calls.
        """
        gate = self._db._statement_gate
        return _UNGATED if gate is None else gate.statement(self, kind)

    def _parked(self, wait: LockWait, statement: Callable[..., Any], *args: Any) -> Any:
        """Hand a blocked statement to the scheduler as a retry of itself.

        Only a scheduler (a statement gate) can park it; without one no
        other transaction could run to release the lock, so the wait
        is raised as the conflict it is.
        """
        if self._db._statement_gate is None:
            raise wait
        wait.retry = lambda: statement(*args)
        return wait

    # -- reads ---------------------------------------------------------------------

    def select(
        self, table: str, key: tuple, columns: tuple[str, ...] | None = None
    ) -> dict:
        """Fetch one row by primary key under an S lock."""
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "select"):
                target = db.table(table)
                db.locks.acquire(self._id, (table, key), _SHARED)
                self.calls.selects += 1
                return target.get(key, columns)
        except LockWait as wait:
            return self._parked(wait, self.select, table, key, columns)

    def select_by_index(
        self,
        table: str,
        index: str,
        key: tuple,
        columns: tuple[str, ...] | None = None,
    ) -> list[dict]:
        """Equality lookup on a secondary index (S locks each row).

        Counted as a non-unique select plus one select per row
        returned, the paper's costing of the customer-name lookup.
        """
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "select_by_index"):
                target = db.table(table)
                rows = []
                for rid in target.lookup(index, key):
                    row = target.read(rid, columns)
                    db.locks.acquire(
                        self._id, (table, target.schema.key_of(row)), _SHARED
                    )
                    rows.append(row)
                self.calls.non_unique_selects += 1
                self.calls.selects += len(rows)
                return rows
        except LockWait as wait:
            return self._parked(
                wait, self.select_by_index, table, index, key, columns
            )

    def select_min(
        self,
        table: str,
        index: str,
        prefix: tuple,
        columns: tuple[str, ...] | None = None,
    ) -> dict | None:
        """Smallest row under an ordered-index prefix (Delivery's Min)."""
        return self._select_extreme(table, index, prefix, columns, smallest=True)

    def select_max(
        self,
        table: str,
        index: str,
        prefix: tuple,
        columns: tuple[str, ...] | None = None,
    ) -> dict | None:
        """Largest row under an ordered-index prefix (Order-Status's Max)."""
        return self._select_extreme(table, index, prefix, columns, smallest=False)

    def _select_extreme(
        self,
        table: str,
        index: str,
        prefix: tuple,
        columns: tuple[str, ...] | None,
        smallest: bool,
    ) -> dict | None:
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "select"):
                target = db.table(table)
                entry = (
                    target.btree_min(index, prefix)
                    if smallest
                    else target.btree_max(index, prefix)
                )
                self.calls.selects += 1
                if entry is None:
                    return None
                _, rid = entry
                row = target.read(rid, columns)
                db.locks.acquire(
                    self._id, (table, target.schema.key_of(row)), _SHARED
                )
                return row
        except LockWait as wait:
            return self._parked(
                wait, self._select_extreme, table, index, prefix, columns, smallest
            )

    def range_select(
        self,
        table: str,
        index: str,
        low: tuple,
        high: tuple,
        columns: tuple[str, ...] | None = None,
    ) -> list[dict]:
        """Ordered range scan, one select counted per row returned.

        Materialized eagerly (not a generator): a lazy scan would hold
        statement-boundary state across arbitrary caller code, which
        the statement gate cannot span safely.
        """
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "range_select"):
                target = db.table(table)
                rows = []
                for _, rid in target.btree_range(index, low, high):
                    row = target.read(rid, columns)
                    db.locks.acquire(
                        self._id, (table, target.schema.key_of(row)), _SHARED
                    )
                    self.calls.selects += 1
                    rows.append(row)
                return rows
        except LockWait as wait:
            return self._parked(
                wait, self.range_select, table, index, low, high, columns
            )

    # -- writes ---------------------------------------------------------------------

    def insert(self, table: str, row: dict) -> RecordId:
        """Insert a row under an X lock, logging the after-image.

        If logging the change fails (an injected WAL-append fault), the
        heap insert is compensated locally so the statement is atomic:
        either the row exists and is logged, or neither happened.
        """
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "insert"):
                target = db.table(table)
                key = target.schema.key_of(row)
                db.locks.acquire(self._id, (table, key), _EXCLUSIVE)
                record = target.schema.pack(row)
                rid = target.insert(row, record)
                try:
                    db.wal.log_change(
                        self._id, _INSERT, table, rid, before=None, after=record
                    )
                except BaseException:
                    with db.fault_exemption():
                        target.delete(rid)
                    raise
                self.calls.inserts += 1
                return rid
        except LockWait as wait:
            return self._parked(wait, self.insert, table, row)

    def update(self, table: str, key: tuple, changes: dict) -> None:
        """Update one row by primary key with a dict of column values.

        The bytes read off the page are the WAL before-image and the
        bytes written the after-image.  A caller computing a new value
        from an old one reads the old one first, under its own lock
        (``select(..., columns=...)``); nothing is decoded here unless
        ``changes`` names a key column.
        """
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "update"):
                target = db.table(table)
                db.locks.acquire(self._id, (table, key), _EXCLUSIVE)
                rid = target.rid_of(key)
                before, after = target.update(rid, changes)
                try:
                    db.wal.log_change(
                        self._id, _UPDATE, table, rid, before=before, after=after
                    )
                except BaseException:
                    with db.fault_exemption():
                        target.update(rid, before)
                    raise
                self.calls.updates += 1
        except LockWait as wait:
            return self._parked(wait, self.update, table, key, changes)

    def delete(self, table: str, key: tuple) -> dict:
        """Delete one row by primary key; returns it."""
        db = self._db
        if self._state is not _ACTIVE or self._epoch != db.epoch:
            self._check_active()
        gate = db._statement_gate
        try:
            with _UNGATED if gate is None else gate.statement(self, "delete"):
                target = db.table(table)
                db.locks.acquire(self._id, (table, key), _EXCLUSIVE)
                rid = target.rid_of(key)
                row, before = target.delete(rid)
                try:
                    db.wal.log_change(
                        self._id, _DELETE, table, rid, before=before, after=None
                    )
                except BaseException:
                    with db.fault_exemption():
                        target.restore(rid, before)
                    raise
                target.heap.reserve(rid)
                self._freed_slots.append((table, rid))
                self.calls.deletes += 1
                return row
        except LockWait as wait:
            return self._parked(wait, self.delete, table, key)

    def count_join(self) -> None:
        """Record that the transaction performed a join (census only)."""
        with self._statement("join"):
            self.calls.joins += 1

    # -- termination -------------------------------------------------------------------

    def commit(self) -> None:
        """Make the transaction durable and release its locks."""
        self._check_active()
        with self._statement("commit"):
            self._db.wal.log_commit(self._id)
            for table_name, rid in self._freed_slots:
                self._db.table(table_name).heap.release(rid, freed=True)
            self._freed_slots.clear()
            self._db.locks.release_all(self._id)
            self._state = _COMMITTED
            self._db.record_finished(self)

    def abort(self) -> None:
        """Undo all changes (via before-images) and release locks.

        Each undo action is also logged as a *compensation* change
        record, so a full-history replay of the log (crash recovery)
        reproduces the abort — without compensations, recovery could
        not distinguish an aborted insert's slot from a later committed
        reuse of the same slot.

        Aborting a transaction orphaned by a crash is a no-op state
        transition: recovery already rolled its changes back (with
        compensations) and the replacement lock manager holds nothing
        for it, so there is nothing left to undo or release.
        """
        if self._state is _ACTIVE and self._epoch != self._db.epoch:
            self._freed_slots.clear()
            self._state = _ABORTED
            return
        self._check_active()
        with self._statement("abort"):
            with self._db.fault_exemption():
                self._undo_all()
            for table_name, rid in self._freed_slots:
                # The undo restored the record into its slot.
                self._db.table(table_name).heap.release(rid, freed=False)
            self._freed_slots.clear()
            self._db.locks.release_all(self._id)
            self._state = _ABORTED

    def _undo_all(self) -> None:
        """Walk undo records newest-first, logging compensations."""
        wal = self._db.wal
        for record in list(wal.undo_records(self._id)):
            target = self._db.table(record.table)
            rid = record.location
            if record.type is _INSERT:
                target.delete(rid)
                wal.log_change(
                    self._id,
                    _DELETE,
                    record.table,
                    rid,
                    before=record.after,
                    after=None,
                )
            elif record.type is _DELETE:
                target.restore(rid, record.before)  # back into its original slot
                wal.log_change(
                    self._id,
                    _INSERT,
                    record.table,
                    rid,
                    before=None,
                    after=record.before,
                )
            else:
                target.update(rid, record.before)
                wal.log_change(
                    self._id,
                    _UPDATE,
                    record.table,
                    rid,
                    before=record.after,
                    after=record.before,
                )
        wal.log_abort(self._id)

    def _check_active(self) -> None:
        if self._state is _ACTIVE and self._epoch != self._db.epoch:
            # The database crashed since this transaction began;
            # recovery rolled its work back, so any further statement
            # must fail.  Marked ABORTED here (no undo needed) and
            # raised as a *transient* error so retry seams re-run it.
            self._freed_slots.clear()
            self._state = _ABORTED
            raise TransactionAbortedByCrashError(
                f"transaction {self._id} was rolled back by crash recovery "
                f"(began in epoch {self._epoch}, database is at epoch "
                f"{self._db.epoch})"
            )
        if self._state is not _ACTIVE:
            raise TransactionStateError(
                f"transaction {self._id} is {self._state.value}"
            )


#: The statement scope when no gate is installed (reusable, stateless).
_UNGATED = nullcontext()


class Database:
    """An embedded single-node database instance."""

    def __init__(
        self,
        buffer_pages: int = 1024,
        page_size: int = 4096,
        lock_timeout: float = 0.0,
        injector=None,
        victim_policy: str = "youngest",
    ):
        self.store = PageStore(page_size)
        self.buffers = BufferManager(self.store, buffer_pages)
        self.locks = LockManager(
            default_timeout=lock_timeout, victim_policy=victim_policy
        )
        self.wal = WriteAheadLog()
        #: Crash epoch: bumped by every :meth:`crash`, so transactions
        #: that began before the crash can tell they were rolled back.
        self.epoch = 0
        self._statement_gate: Any = None
        self._tables: dict[str, Table] = {}
        self._file_ids: dict[str, int] = {}
        self._next_file_id = 0
        self._next_txn_id = 1
        self._census: dict[str, CallCounts] = {}
        self._finished: dict[str, int] = {}
        self._injector = None
        if injector is not None:
            self.attach_injector(injector)

    # -- statement scope ----------------------------------------------------------

    def set_statement_gate(self, gate: Any) -> None:
        """Install (or clear with None) a statement gate.

        A gate exposes ``statement(txn, kind)`` returning a context
        manager; the virtual-time scheduler uses it to meter each
        statement's cost.  With a gate installed, a statement blocked
        under the blocking lock policy is parked instead of raised.
        """
        self._statement_gate = gate

    # -- fault injection ---------------------------------------------------------

    @property
    def injector(self):
        """The attached fault injector, or None."""
        return self._injector

    def attach_injector(self, injector) -> None:
        """Arm a :class:`repro.faults.FaultInjector` at every engine seam.

        Pass None to disarm.  Typically called *after* loading, so the
        initial population is never subjected to faults.
        """
        self._injector = injector
        self.store.set_injector(injector)
        self.buffers.set_injector(injector)
        self.locks.set_injector(injector)
        self.wal.set_injector(injector)

    def fault_exemption(self) -> ContextManager[None]:
        """Context manager suppressing injected faults (undo/recovery)."""
        if self._injector is None:
            return nullcontext()
        return self._injector.exempt()

    # -- catalog --------------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, indexes: list[IndexSpec] | None = None
    ) -> Table:
        """Register a table and allocate its heap file."""
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        file_id = self._next_file_id
        self._next_file_id += 1
        heap = HeapFile(self.buffers, file_id, schema.record_size)
        table = Table(schema, heap, indexes)
        self._tables[schema.name] = table
        self._file_ids[schema.name] = file_id
        self.buffers.name_file(file_id, schema.name)
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"no table named {name!r}") from None

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def file_id_of(self, table: str) -> int:
        return self._file_ids[table]

    def table_of_file(self, file_id: int) -> str:
        for name, fid in self._file_ids.items():
            if fid == file_id:
                return name
        raise TableNotFoundError(f"no table with file id {file_id}")

    # -- transactions -----------------------------------------------------------------

    def begin(self, label: str = "all") -> Transaction:
        """Start a new transaction, optionally labeled for the census."""
        txn = Transaction(self, self._next_txn_id, label)
        self._next_txn_id += 1
        return txn

    def run(self, work: Callable[[Transaction], Any], label: str = "all") -> Any:
        """Run ``work`` in a transaction: commit on return, abort on raise."""
        txn = self.begin(label)
        try:
            result = work(txn)
        except BaseException:
            if txn.is_active:
                txn.abort()
            raise
        txn.commit()
        return result

    def record_finished(self, txn: Transaction) -> None:
        """Aggregate a committed transaction's call census under its label."""
        self._census.setdefault(txn.label, CallCounts()).merge(txn.calls)
        self._finished.setdefault(txn.label, 0)
        self._finished[txn.label] += 1
        instruments.TX_COMMITS.inc(tx=txn.label)
        instruments.TX_OPS.observe(txn.calls.total(), tx=txn.label)

    def finished_count(self, label: str = "all") -> int:
        """Committed transactions recorded under a label."""
        return self._finished.get(label, 0)

    def census(self, label: str = "all") -> CallCounts:
        """Aggregated call counts (used to validate Table 2)."""
        return self._census.get(label, CallCounts())

    # -- durability ----------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush all dirty pages to the store."""
        self.buffers.flush_all()

    def backup(self) -> None:
        """Checkpoint, then snapshot every page image as the base backup.

        Call after the initial load: crash recovery restores torn pages
        from this snapshot before rolling the log forward, so base rows
        that predate the WAL survive torn writes too.
        """
        self.checkpoint()
        self.store.snapshot_backup()

    def crash(self) -> None:
        """Simulate a hard crash: volatile state (buffers, locks) is lost.

        Call :meth:`recover` afterwards.  In-flight transactions are
        rolled back (with logged compensations) by recovery; the page
        store keeps whatever images — including torn ones — reached it.
        The crash epoch is bumped, so transactions that began earlier
        fail their next statement with
        :class:`TransactionAbortedByCrashError` instead of silently
        writing against recovered state.  The buffer pool comes back
        empty, with the capacity it was configured with.
        """
        self.epoch += 1
        self.buffers = BufferManager(
            self.store, self.buffers.capacity, injector=self._injector
        )
        for name, file_id in self._file_ids.items():
            self.buffers.name_file(file_id, name)
        for table in self._tables.values():
            table.heap.rebind(self.buffers)
        replacement = LockManager(
            default_timeout=self.locks.default_timeout,
            injector=self._injector,
            victim_policy=self.locks.victim_policy,
        )
        # Lock *state* is volatile, but the run's contention
        # accounting is not: the replacement carries the
        # predecessor's counters so driver reports (and the
        # sanitizer's monotonicity check) span the crash.
        replacement.adopt_counters(self.locks)
        self.locks = replacement

    def recover(self) -> None:
        """Repair torn pages, replay the log, roll back in-flight work.

        Recovery runs under a fault exemption (rollback must not fail)
        and proceeds in four steps: (1) torn pages are restored from the
        base backup (or reformatted empty when they were created after
        the backup — the replay rebuilds their contents); (2) redo is a *full history* replay
        in LSN order: committed changes land, and aborted transactions'
        changes are neutralized by the compensation records their
        aborts logged, so slot reuse replays in the order it happened;
        (3) transactions still active at the crash are rolled back
        newest-first, logging compensations plus an ABORT so a second
        crash replays identically; (4) indexes are rebuilt and a
        checkpoint makes the recovered state durable.
        """
        with self.fault_exemption():
            self._recover()

    def _repair_torn_pages(self) -> None:
        """Restore torn pages from backup (or reformat them), in store order."""
        for page_id in self.store.corrupt_page_ids():
            if self.store.restore_from_backup(page_id):
                continue
            table = self.table_of_file(page_id.file_id)
            record_size = self.table(table).schema.record_size
            self.store.reformat(
                page_id, Page(record_size, self.store.page_size)
            )

    def _recover(self) -> None:
        self._repair_torn_pages()
        for record in self.wal.change_records():
            instruments.WAL_REPLAYS.inc(table=record.table)
            heap = self.table(record.table).heap
            if record.after is None:
                heap.apply_clear(record.location)
            else:
                heap.apply_put(record.location, record.after)

        # Roll back transactions that never reached COMMIT or ABORT.
        history = self.wal.records()  # snapshot before appending CLRs
        for record in reversed(history):
            if record.type not in (_INSERT, _UPDATE, _DELETE):
                continue
            if not self.wal.is_active(record.txn_id):
                continue
            heap = self.table(record.table).heap
            if record.type is _INSERT:
                heap.apply_clear(record.location)
                compensation = (_DELETE, record.after, None)
            elif record.type is _DELETE:
                heap.apply_put(record.location, record.before)
                compensation = (_INSERT, None, record.before)
            else:
                heap.apply_put(record.location, record.before)
                compensation = (_UPDATE, record.after, record.before)
            kind, before, after = compensation
            self.wal.log_change(
                record.txn_id, kind, record.table, record.location, before, after
            )
        self.wal.abort_all_active()

        for table in self._tables.values():
            table.rebuild_indexes()
        self.checkpoint()

"""An executable page-based storage engine.

The paper models a hypothetical DBMS; this package provides a real —
if deliberately small — one, so the workload can be *run*, not only
modeled: slotted pages over a paged store, heap files, B+-tree and hash
indexes, an LRU buffer manager with per-table hit statistics, a lock
manager, a write-ahead log with undo/redo recovery, and a catalog/table
layer tying them together.

:mod:`repro.tpcc` loads the TPC-C schema into this engine and executes
the five transactions against it; tests cross-validate the engine's
measured buffer behaviour against the trace-driven model of
:mod:`repro.buffer`.
"""

from repro.engine.bufferpool import BufferManager
from repro.engine.btree import BPlusTree
from repro.engine.catalog import Column, ColumnType, TableSchema
from repro.engine.database import Database, Transaction
from repro.engine.errors import (
    BufferEvictionError,
    CorruptPageError,
    DuplicateKeyError,
    EngineError,
    InjectedFaultError,
    LockConflictError,
    PageFullError,
    RecordNotFoundError,
    TableNotFoundError,
    TornPageWriteError,
    TransactionStateError,
    WalAppendFaultError,
)
from repro.engine.hashindex import HashIndex
from repro.engine.heap import HeapFile, RecordId
from repro.engine.locks import LockManager, LockMode
from repro.engine.page import Page, PageId, PageStore
from repro.engine.table import Table
from repro.engine.wal import WriteAheadLog

__all__ = [
    "BPlusTree",
    "BufferEvictionError",
    "BufferManager",
    "Column",
    "ColumnType",
    "CorruptPageError",
    "Database",
    "DuplicateKeyError",
    "EngineError",
    "InjectedFaultError",
    "HashIndex",
    "HeapFile",
    "LockConflictError",
    "LockManager",
    "LockMode",
    "Page",
    "PageFullError",
    "PageId",
    "PageStore",
    "RecordId",
    "RecordNotFoundError",
    "Table",
    "TableNotFoundError",
    "TableSchema",
    "TornPageWriteError",
    "Transaction",
    "TransactionStateError",
    "WalAppendFaultError",
    "WriteAheadLog",
]

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

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.engine.btree import BPlusTree as BPlusTree
    from repro.engine.bufferpool import BufferManager as BufferManager
    from repro.engine.catalog import Column as Column
    from repro.engine.catalog import ColumnType as ColumnType
    from repro.engine.catalog import TableSchema as TableSchema
    from repro.engine.database import Database as Database
    from repro.engine.database import Transaction as Transaction
    from repro.engine.errors import BufferEvictionError as BufferEvictionError
    from repro.engine.errors import CorruptPageError as CorruptPageError
    from repro.engine.errors import DuplicateKeyError as DuplicateKeyError
    from repro.engine.errors import EngineError as EngineError
    from repro.engine.errors import InjectedFaultError as InjectedFaultError
    from repro.engine.errors import LockConflictError as LockConflictError
    from repro.engine.errors import PageFullError as PageFullError
    from repro.engine.errors import RecordNotFoundError as RecordNotFoundError
    from repro.engine.errors import TableNotFoundError as TableNotFoundError
    from repro.engine.errors import TornPageWriteError as TornPageWriteError
    from repro.engine.errors import TransactionStateError as TransactionStateError
    from repro.engine.errors import WalAppendFaultError as WalAppendFaultError
    from repro.engine.hashindex import HashIndex as HashIndex
    from repro.engine.heap import HeapFile as HeapFile
    from repro.engine.heap import RecordId as RecordId
    from repro.engine.locks import LockManager as LockManager
    from repro.engine.locks import LockMode as LockMode
    from repro.engine.page import Page as Page
    from repro.engine.page import PageId as PageId
    from repro.engine.page import PageStore as PageStore
    from repro.engine.table import Table as Table
    from repro.engine.wal import WriteAheadLog as WriteAheadLog

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "BPlusTree": "repro.engine.btree",
        "BufferManager": "repro.engine.bufferpool",
        "Column": "repro.engine.catalog",
        "ColumnType": "repro.engine.catalog",
        "TableSchema": "repro.engine.catalog",
        "Database": "repro.engine.database",
        "Transaction": "repro.engine.database",
        "BufferEvictionError": "repro.engine.errors",
        "CorruptPageError": "repro.engine.errors",
        "DuplicateKeyError": "repro.engine.errors",
        "EngineError": "repro.engine.errors",
        "InjectedFaultError": "repro.engine.errors",
        "LockConflictError": "repro.engine.errors",
        "PageFullError": "repro.engine.errors",
        "RecordNotFoundError": "repro.engine.errors",
        "TableNotFoundError": "repro.engine.errors",
        "TornPageWriteError": "repro.engine.errors",
        "TransactionStateError": "repro.engine.errors",
        "WalAppendFaultError": "repro.engine.errors",
        "HashIndex": "repro.engine.hashindex",
        "HeapFile": "repro.engine.heap",
        "RecordId": "repro.engine.heap",
        "LockManager": "repro.engine.locks",
        "LockMode": "repro.engine.locks",
        "Page": "repro.engine.page",
        "PageId": "repro.engine.page",
        "PageStore": "repro.engine.page",
        "Table": "repro.engine.table",
        "WriteAheadLog": "repro.engine.wal",
    },
)

"""Exception hierarchy for the storage engine."""

from __future__ import annotations

from repro.errors import InvariantViolationError


class EngineError(Exception):
    """Base class for all storage-engine errors."""


class PageFullError(EngineError):
    """A page had no free slot for an insert."""


class RecordNotFoundError(EngineError):
    """A record id or key did not resolve to a live record."""


class DuplicateKeyError(EngineError):
    """A unique-index insert collided with an existing key."""


class TableNotFoundError(EngineError):
    """The catalog has no table with the requested name."""


class LockConflictError(EngineError):
    """A lock request conflicts with a lock held by another transaction."""


class DeadlockError(LockConflictError):
    """A waits-for cycle was found and this transaction is the victim.

    Subclasses :class:`LockConflictError` so every abort-and-retry
    seam (the executor's ``TRANSIENT_ERRORS``, the driver's retry
    policy) treats a deadlock abort like any other transient conflict.
    """


class TransactionAbortedByCrashError(EngineError):
    """The transaction's database crashed; recovery rolled it back.

    Raised when a still-open :class:`~repro.engine.database.Transaction`
    touches the database after a ``crash()``/``recover()`` cycle bumped
    the database epoch.  Transient by contract: the terminal retries
    the whole transaction against the recovered state.
    """


class TransactionStateError(EngineError):
    """An operation was attempted in an invalid transaction state."""


class WalError(EngineError):
    """The write-ahead log was malformed or used out of protocol."""


class CorruptPageError(EngineError):
    """A page image on disk is torn: a torn write left it unlike the intended image."""


class InjectedFaultError(EngineError):
    """Base class for faults fired by a :class:`repro.faults.FaultInjector`.

    Injected faults are *transient* by contract: retrying the failed
    operation (after aborting the enclosing transaction) is expected to
    succeed once the fault schedule moves on.
    """


class WalAppendFaultError(InjectedFaultError, WalError):
    """An injected write failure while appending a WAL record."""


class TornPageWriteError(InjectedFaultError):
    """An injected torn/partial page write: the on-disk image is corrupt."""


class BufferEvictionError(InjectedFaultError):
    """An injected failure while evicting a buffer-pool victim."""


__all__ = [
    "BufferEvictionError",
    "CorruptPageError",
    "DeadlockError",
    "DuplicateKeyError",
    "EngineError",
    "InjectedFaultError",
    "InvariantViolationError",
    "LockConflictError",
    "PageFullError",
    "RecordNotFoundError",
    "TableNotFoundError",
    "TornPageWriteError",
    "TransactionAbortedByCrashError",
    "TransactionStateError",
    "WalAppendFaultError",
    "WalError",
]

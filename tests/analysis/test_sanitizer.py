"""Tests for the runtime invariant sanitizer.

This module shadows the suite-wide autouse sanitizer fixture: these
tests install their own (sometimes around deliberately broken engine
behaviour) and nesting two sanitizers would double-wrap the patched
methods.
"""

import pytest

from repro.analysis.sanitizer import InvariantSanitizer, SanitizerViolation
from repro.engine.bufferpool import BufferManager
from repro.engine.catalog import TableSchema, char, integer
from repro.engine.database import Database, Transaction
from repro.engine.errors import LockConflictError
from repro.engine.locks import LockManager, LockMode
from repro.engine.page import Page, PageId, PageStore
from repro.errors import InvariantViolationError


@pytest.fixture(autouse=True)
def invariant_sanitizer():
    """Shadow the global autouse sanitizer (see module docstring)."""
    yield None


@pytest.fixture
def db():
    db = Database(buffer_pages=64)
    schema = TableSchema(
        "accounts",
        [integer("id"), integer("balance"), char("owner", 12)],
        primary_key=("id",),
    )
    db.create_table(schema)
    txn = db.begin()
    txn.insert("accounts", {"id": 1, "balance": 100, "owner": "alice"})
    txn.commit()
    return db


class TestLockLeak:
    def test_deliberate_leak_fails(self, db, monkeypatch):
        """Acceptance: a commit that keeps its locks must be caught."""
        monkeypatch.setattr(LockManager, "release_all", lambda self, txn_id: 0)
        sanitizer = InvariantSanitizer()
        with sanitizer:
            txn = db.begin()
            txn.select("accounts", (1,))
            txn.commit()
        with pytest.raises(SanitizerViolation, match="still holds 1 lock"):
            sanitizer.check()

    def test_leak_through_abort_detected(self, db, monkeypatch):
        monkeypatch.setattr(LockManager, "release_all", lambda self, txn_id: 0)
        sanitizer = InvariantSanitizer()
        with sanitizer:
            txn = db.begin()
            txn.update("accounts", (1,), {"balance": 7})
            txn.abort()
        with pytest.raises(SanitizerViolation, match="after abort"):
            sanitizer.check()

    def test_clean_transactions_pass(self, db):
        sanitizer = InvariantSanitizer()
        with sanitizer:
            txn = db.begin()
            txn.update("accounts", (1,), {"balance": 250})
            txn.commit()
            txn = db.begin()
            txn.update("accounts", (1,), {"balance": 9})
            txn.abort()
        sanitizer.check()  # must not raise
        assert sanitizer.violations == []


class TestDeadlockDetection:
    def test_waits_for_cycle_flagged(self):
        locks = LockManager()
        sanitizer = InvariantSanitizer()
        with sanitizer:
            locks.acquire(1, "A", LockMode.EXCLUSIVE)
            locks.acquire(2, "B", LockMode.EXCLUSIVE)
            with pytest.raises(LockConflictError):
                locks.acquire(2, "A", LockMode.EXCLUSIVE)
            with pytest.raises(LockConflictError):
                locks.acquire(1, "B", LockMode.EXCLUSIVE)
        with pytest.raises(SanitizerViolation, match="waits-for cycle"):
            sanitizer.check()

    def test_resolved_cycle_is_withdrawn(self):
        # Regression: under no-wait a conflicting txn is normally
        # mid-abort, so a transient mutual-wait window is benign — the
        # candidate cycle must be withdrawn once a participant releases
        # (the threads driver hit this as a false deadlock at 64
        # terminals).
        locks = LockManager()
        sanitizer = InvariantSanitizer()
        with sanitizer:
            locks.acquire(1, "A", LockMode.EXCLUSIVE)
            locks.acquire(2, "B", LockMode.EXCLUSIVE)
            with pytest.raises(LockConflictError):
                locks.acquire(2, "A", LockMode.EXCLUSIVE)
            with pytest.raises(LockConflictError):
                locks.acquire(1, "B", LockMode.EXCLUSIVE)
            locks.release_all(2)  # txn 2 aborts, as a no-wait client must
        sanitizer.check()  # must not raise: the cycle resolved

    def test_single_conflict_is_not_a_cycle(self):
        locks = LockManager()
        sanitizer = InvariantSanitizer()
        with sanitizer:
            locks.acquire(1, "A", LockMode.EXCLUSIVE)
            with pytest.raises(LockConflictError):
                locks.acquire(2, "A", LockMode.EXCLUSIVE)
        sanitizer.check()

    def test_release_clears_wait_edges(self):
        locks = LockManager()
        sanitizer = InvariantSanitizer()
        with sanitizer:
            locks.acquire(1, "A", LockMode.EXCLUSIVE)
            locks.acquire(2, "B", LockMode.EXCLUSIVE)
            with pytest.raises(LockConflictError):
                locks.acquire(2, "A", LockMode.EXCLUSIVE)
            locks.release_all(2)  # txn 2 gives up; its wait edge must vanish
            locks.acquire(1, "B", LockMode.EXCLUSIVE)  # now grantable
        sanitizer.check()
        assert sanitizer._waits_for[id(locks)] == {}

    def test_order_graph_records_acquisition_order(self):
        locks = LockManager()
        sanitizer = InvariantSanitizer()
        with sanitizer:
            locks.acquire(1, "A", LockMode.SHARED)
            locks.acquire(1, "B", LockMode.SHARED)
        assert "B" in sanitizer.order_graph["A"]


class TestBufferAccounting:
    @staticmethod
    def _store(pages=3):
        store = PageStore()
        for n in range(pages):
            page = Page(record_size=8)
            page.insert(bytes([n]) * 8)
            store.allocate(PageId(0, n), page)
        return store

    def test_over_capacity_policy_flagged(self):
        store = self._store()
        buffers = BufferManager(store, 1)
        sanitizer = InvariantSanitizer()
        with sanitizer:
            buffers.get_page(PageId(0, 0))
            # A stray frame slipped into the LRU past its capacity.
            buffers._frames[PageId(0, 1)] = store.read(PageId(0, 1))
            buffers.get_page(PageId(0, 0))
        with pytest.raises(SanitizerViolation, match="tracks 2 frames"):
            sanitizer.check()

    def test_correct_policy_passes(self):
        buffers = BufferManager(self._store(), 2)
        sanitizer = InvariantSanitizer()
        with sanitizer:
            for n in range(3):
                buffers.get_page(PageId(0, n))
        sanitizer.check()


class TestLifecycle:
    def test_uninstall_restores_originals(self):
        before = (
            LockManager._try_acquire,
            LockManager.release_all,
            Transaction.commit,
            Transaction.abort,
            BufferManager.get_page,
        )
        sanitizer = InvariantSanitizer()
        with sanitizer:
            assert LockManager._try_acquire is not before[0]
        after = (
            LockManager._try_acquire,
            LockManager.release_all,
            Transaction.commit,
            Transaction.abort,
            BufferManager.get_page,
        )
        assert after == before

    def test_double_install_rejected(self):
        sanitizer = InvariantSanitizer()
        with sanitizer:
            with pytest.raises(RuntimeError, match="already installed"):
                sanitizer.install()

    def test_violation_is_typed(self):
        assert issubclass(SanitizerViolation, InvariantViolationError)
        assert issubclass(SanitizerViolation, AssertionError)

"""Runtime invariant sanitizer for the storage engine.

This monitor is the project's one check that two-phase locking is
followed: the test suite installs it around every test
(``tests/conftest.py``) and fails if

* a transaction finishes (``commit``/``abort`` returns) while still
  holding locks — a leak the two-phase protocol forbids;
* the waits-for graph develops a cycle under the *no-wait* conflict
  policy that is still unresolved at :meth:`check` — a deadlock with
  nothing to break it.  A cycle observed mid-run is only a *candidate*:
  under no-wait every participant has already been told "conflict" and
  is normally mid-abort, so interleaved terminals transiently show
  mutual wait edges that dissolve as soon as the aborts release.  A
  candidate is withdrawn when any participant releases its locks or
  acquires another resource; one that survives to ``check()`` means
  somebody observed a conflict and then neither aborted nor progressed.
  (In blocking mode the lock manager's own waits-for detector resolves
  cycles by aborting a victim, so there a cycle is expected operation);
* any :meth:`LockManager.contention` counter ever decreases — the
  counters are documented monotone for the manager's lifetime (and
  across ``Database.crash()``, which carries them forward);
* a buffer pool's LRU (``BufferManager._frames``) ever holds more
  frames than its capacity.

It also records the resource acquisition-order graph for diagnostics.
Order-graph cycles are *not* failures: TPC-C legitimately acquires
(order, k) then (new_order, k) in one transaction type and the reverse
in another; with two-phase locking that is conflict-serializable as
long as no cycle forms in waits-for.

Everything is patched at class level (``LockManager``, ``Transaction``,
``BufferManager``) so the monitor sees every instance, including ones a
test builds itself.  Violations are *collected*, not raised at the
fault point — raising inside ``commit`` would corrupt engine state and
mask the test's own assertion — and surfaced by :meth:`check`.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Any, Callable

from repro.errors import InvariantViolationError


class SanitizerViolation(InvariantViolationError):
    """One or more runtime invariants failed during the monitored region."""


class InvariantSanitizer:
    """Monkeypatch-based monitor over LockManager/Transaction/BufferManager."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        #: waits-for edges per lock manager: txn -> txns it waits on.
        self._waits_for: dict[int, dict[int, set[int]]] = defaultdict(dict)
        #: candidate no-wait deadlocks: (mgr id, cycle members, chain,
        #: resource), withdrawn when any member releases or progresses.
        self._pending_cycles: list[tuple[int, frozenset[int], str, Any]] = []
        #: last resource each txn acquired, for the order graph.
        self._last_resource: dict[tuple[int, int], Any] = {}
        #: acquisition-order edges (resource -> resources acquired after it).
        self.order_graph: dict[Any, set[Any]] = defaultdict(set)
        #: last contention() snapshot per live lock manager
        #: (monotonicity); weak keys so a freed manager's id cannot be
        #: recycled into a stale comparison.
        self._last_contention: "weakref.WeakKeyDictionary[Any, dict[str, int]]" = (
            weakref.WeakKeyDictionary()
        )
        self._originals: dict[str, Callable[..., Any]] = {}
        self._installed = False

    # -- lifecycle -----------------------------------------------------------------

    def install(self) -> InvariantSanitizer:
        if self._installed:
            raise RuntimeError("sanitizer already installed")
        from repro.engine.bufferpool import BufferManager
        from repro.engine.database import Transaction
        from repro.engine.locks import LockManager

        self._originals = {
            "try_acquire": LockManager._try_acquire,
            "release_all": LockManager.release_all,
            "commit": Transaction.commit,
            "abort": Transaction.abort,
            "get_page": BufferManager.get_page,
        }
        sanitizer = self

        def patched_try_acquire(
            mgr: Any, txn_id: int, resource: Any, mode: Any
        ) -> None:
            try:
                sanitizer._originals["try_acquire"](mgr, txn_id, resource, mode)
            except Exception:
                sanitizer._record_wait(mgr, txn_id, resource)
                sanitizer._check_monotone(mgr)
                raise
            sanitizer._record_grant(mgr, txn_id, resource)
            sanitizer._check_monotone(mgr)

        def patched_release_all(mgr: Any, txn_id: int) -> int:
            sanitizer._waits_for[id(mgr)].pop(txn_id, None)
            sanitizer._last_resource.pop((id(mgr), txn_id), None)
            sanitizer._withdraw_cycles(mgr, txn_id)
            released = sanitizer._originals["release_all"](mgr, txn_id)
            sanitizer._check_monotone(mgr)
            return released

        def patched_commit(txn: Any) -> None:
            sanitizer._originals["commit"](txn)
            sanitizer._check_leak(txn, "commit")

        def patched_abort(txn: Any) -> None:
            sanitizer._originals["abort"](txn)
            sanitizer._check_leak(txn, "abort")

        def patched_get_page(
            mgr: Any, page_id: Any, for_write: bool = False
        ) -> Any:
            page = sanitizer._originals["get_page"](mgr, page_id, for_write)
            # Orphaned frames (failed eviction write-backs) live outside
            # the LRU order; the LRU itself never holds more than capacity.
            if len(mgr._frames) > mgr.capacity:
                sanitizer.violations.append(
                    f"buffer LRU tracks {len(mgr._frames)} frames, "
                    f"capacity {mgr.capacity} (after get_page({page_id}))"
                )
            return page

        LockManager._try_acquire = patched_try_acquire
        LockManager.release_all = patched_release_all
        Transaction.commit = patched_commit
        Transaction.abort = patched_abort
        BufferManager.get_page = patched_get_page
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        from repro.engine.bufferpool import BufferManager
        from repro.engine.database import Transaction
        from repro.engine.locks import LockManager

        LockManager._try_acquire = self._originals["try_acquire"]
        LockManager.release_all = self._originals["release_all"]
        Transaction.commit = self._originals["commit"]
        Transaction.abort = self._originals["abort"]
        BufferManager.get_page = self._originals["get_page"]
        self._installed = False

    def __enter__(self) -> InvariantSanitizer:
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def check(self) -> None:
        """Raise if any invariant failed since installation."""
        self._fold_pending_cycles()
        if self.violations:
            summary = "\n  ".join(self.violations)
            raise SanitizerViolation(
                f"{len(self.violations)} runtime invariant violation(s):\n  {summary}"
            )

    # -- recording -----------------------------------------------------------------

    def _record_grant(self, mgr: Any, txn_id: int, resource: Any) -> None:
        waits = self._waits_for[id(mgr)]
        waits.pop(txn_id, None)
        self._withdraw_cycles(mgr, txn_id)
        key = (id(mgr), txn_id)
        previous = self._last_resource.get(key)
        if previous is not None and previous != resource:
            self.order_graph[previous].add(resource)
        self._last_resource[key] = resource

    def _record_wait(self, mgr: Any, txn_id: int, resource: Any) -> None:
        shared, exclusive = mgr.holders(resource)
        blockers = set(shared)
        if exclusive is not None:
            blockers.add(exclusive)
        blockers.discard(txn_id)
        if not blockers:
            return
        waits = self._waits_for[id(mgr)]
        waits[txn_id] = blockers
        if getattr(mgr, "default_timeout", 0) > 0:
            # Blocking mode: the manager's own waits-for detector dooms
            # a victim, so a cycle here is resolved, not stuck.
            return
        cycle = self._find_cycle(waits, txn_id)
        if cycle:
            # A candidate only: under no-wait every member has already
            # seen its conflict raised and is normally mid-abort, so a
            # concurrent driver shows this transiently.  Reported by
            # check() only if no member ever releases or progresses.
            members = frozenset(cycle)
            if not any(
                mgr_id == id(mgr) and pending == members
                for mgr_id, pending, _, _ in self._pending_cycles
            ):
                chain = " -> ".join(str(txn) for txn in cycle)
                self._pending_cycles.append(
                    (id(mgr), members, chain, resource)
                )

    def _withdraw_cycles(self, mgr: Any, txn_id: int) -> None:
        """Drop pending cycles a releasing/progressing txn was part of."""
        self._pending_cycles = [
            entry
            for entry in self._pending_cycles
            if entry[0] != id(mgr) or txn_id not in entry[1]
        ]

    def _fold_pending_cycles(self) -> None:
        """Surface cycles still unresolved when the region is checked."""
        for _, _, chain, resource in self._pending_cycles:
            self.violations.append(
                f"waits-for cycle (deadlock): {chain} on resource {resource!r}"
            )
        self._pending_cycles = []

    def _check_monotone(self, mgr: Any) -> None:
        """Assert the manager's contention counters never decrease."""
        snapshot = mgr.contention()
        last = self._last_contention.get(mgr)
        if last is not None:
            for name, value in snapshot.items():
                before = last.get(name, 0)
                if value < before:
                    self.violations.append(
                        f"lock counter {name!r} decreased "
                        f"{before} -> {value} (non-monotone accounting)"
                    )
        self._last_contention[mgr] = snapshot

    def _check_leak(self, txn: Any, action: str) -> None:
        held = txn._db.locks.locks_held(txn._id)
        if held:
            self.violations.append(
                f"txn {txn._id} still holds {held} lock(s) after {action}() returned"
            )

    @staticmethod
    def _find_cycle(waits: dict[int, set[int]], start: int) -> list[int] | None:
        """A waits-for path from ``start`` back to itself, if one exists."""
        path: list[int] = []
        seen: set[int] = set()

        def visit(txn: int) -> bool:
            if txn == start and path:
                return True
            if txn in seen:
                return False
            seen.add(txn)
            path.append(txn)
            for blocker in sorted(waits.get(txn, ())):
                if visit(blocker):
                    return True
            path.pop()
            return False

        return path + [start] if visit(start) else None


__all__ = ["InvariantSanitizer", "SanitizerViolation"]

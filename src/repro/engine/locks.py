"""A strict two-phase lock manager with waits-for deadlock resolution.

The throughput model charges 1K instructions per lock release and the
distributed discussion hinges on which concurrency-control protocol is
assumed; the executable engine therefore takes real tuple locks.
Conflicting requests fail fast with
:class:`~repro.engine.errors.LockConflictError` (no-wait policy) by
default; a positive timeout waits instead, and waiters participate in
real deadlock detection: each blocked request registers in a waits-for
graph, every wait iteration searches for a cycle through the waiter,
and a found cycle dooms one member under a configurable victim policy
(``youngest`` / ``oldest`` / ``fewest_locks``), aborting it with
:class:`~repro.engine.errors.DeadlockError`.  The timeout remains only
as a starvation backstop.

Thread-safety audit (for the concurrent driver in
:mod:`repro.driver`): the lock tables (``_shared`` / ``_exclusive`` /
``_held``), the waits-for registry (``_waiting`` / ``_doomed``) and
*every* counter are compound state, so all of them are read and
written exclusively under the internal mutex.  The mutex lives
*inside* :meth:`_try_acquire` / :meth:`release_all` rather than in
:meth:`acquire` so class-level monkeypatching (the invariant
sanitizer) keeps wrapping the guarded bodies, and so the wait loop in
:meth:`acquire` never sleeps while holding it.  Counters are therefore
monotone non-decreasing for the manager's lifetime — the sanitizer
asserts exactly that.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Callable, ContextManager, Hashable

from repro.engine.deadlock import VICTIM_POLICIES, choose_victim, find_cycle
from repro.engine.errors import DeadlockError, LockConflictError
from repro.obs import instruments

Resource = Hashable


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) lock."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockManager:
    """Tracks S/X locks per resource for multiple transaction ids.

    Counters ``acquisitions`` and ``releases`` feed the cost model's
    lock-overhead accounting; ``deadlocks`` / ``victims`` /
    ``wait_chain_max`` feed the driver's chaos report.

    ``default_timeout`` selects the conflict policy: with the default
    of 0 a conflicting request fails fast (the no-wait policy the
    single-threaded engine and the deterministic virtual driver have
    always used); a positive timeout waits — via the injectable
    ``clock``/``sleep`` hooks — running deadlock detection on every
    iteration, and raises :class:`LockConflictError` only if the
    deadline passes with no cycle found (starvation backstop).

    ``wait_scope`` is an optional callable returning a context manager
    entered around every sleep; the :class:`~repro.engine.database.
    Database` wires it to a latch-release scope so a waiter never
    sleeps while holding the global statement latch (which would block
    the very holder it waits for).
    """

    def __init__(
        self,
        default_timeout: float = 0.0,
        poll_interval: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        injector=None,
        victim_policy: str = "youngest",
        wait_scope: Callable[[], ContextManager[None]] | None = None,
    ) -> None:
        if default_timeout < 0:
            raise ValueError(f"default_timeout must be >= 0, got {default_timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        if victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"victim_policy must be one of {VICTIM_POLICIES}, "
                f"got {victim_policy!r}"
            )
        self._mutex = threading.RLock()
        self._shared: dict[Resource, set[int]] = defaultdict(set)  # guarded-by: _mutex
        self._exclusive: dict[Resource, int] = {}  # guarded-by: _mutex
        self._held: dict[int, set[Resource]] = defaultdict(set)  # guarded-by: _mutex
        self.default_timeout = default_timeout
        self.poll_interval = poll_interval
        self.victim_policy = victim_policy
        self._clock = clock
        self._sleep = sleep
        self._injector = injector
        self._wait_scope = wait_scope
        #: Resource each blocked transaction currently waits for.
        self._waiting: dict[int, Resource] = {}  # guarded-by: _mutex
        #: Transactions doomed as deadlock victims -> wait-chain text.
        self._doomed: dict[int, str] = {}  # guarded-by: _mutex
        self.acquisitions = 0  # guarded-by: _mutex
        self.releases = 0  # guarded-by: _mutex
        self.conflicts = 0  # guarded-by: _mutex
        self.timeouts = 0  # guarded-by: _mutex
        self.waits = 0  # guarded-by: _mutex
        self.deadlocks = 0  # guarded-by: _mutex
        self.victims = 0  # guarded-by: _mutex
        self.wait_chain_max = 0  # guarded-by: _mutex

    def set_injector(self, injector) -> None:
        """Arm (or disarm with None) a fault injector at the acquire seam."""
        self._injector = injector

    def set_wait_scope(
        self, wait_scope: Callable[[], ContextManager[None]] | None
    ) -> None:
        """Install the context entered around every blocking-wait sleep."""
        self._wait_scope = wait_scope

    # -- queries -----------------------------------------------------------------

    def holders(self, resource: Resource) -> tuple[set[int], int | None]:
        """(shared holders, exclusive holder) of a resource."""
        with self._mutex:
            return set(self._shared.get(resource, ())), self._exclusive.get(resource)

    def locks_held(self, txn_id: int) -> int:
        """Number of resources a transaction currently locks."""
        with self._mutex:
            return len(self._held.get(txn_id, ()))

    def mode_held(self, txn_id: int, resource: Resource) -> LockMode | None:
        """The strongest mode a transaction holds on a resource."""
        with self._mutex:
            return self._mode_held_locked(txn_id, resource)

    def _mode_held_locked(self, txn_id: int, resource: Resource) -> LockMode | None:
        if self._exclusive.get(resource) == txn_id:
            return LockMode.EXCLUSIVE
        if txn_id in self._shared.get(resource, ()):
            return LockMode.SHARED
        return None

    def waits_for(self) -> dict[int, set[int]]:
        """The current waits-for graph: waiter -> transactions blocking it."""
        with self._mutex:
            return self._waits_for_locked()

    def _waits_for_locked(self) -> dict[int, set[int]]:
        graph: dict[int, set[int]] = {}
        for txn_id, resource in self._waiting.items():
            blockers = set(self._shared.get(resource, ()))
            exclusive = self._exclusive.get(resource)
            if exclusive is not None:
                blockers.add(exclusive)
            blockers.discard(txn_id)
            if blockers:
                graph[txn_id] = blockers
        return graph

    def contention(self) -> dict[str, int]:
        """The contention counters as one dict (for driver reports)."""
        with self._mutex:
            return {
                "acquisitions": self.acquisitions,
                "releases": self.releases,
                "conflicts": self.conflicts,
                "timeouts": self.timeouts,
                "waits": self.waits,
                "deadlocks": self.deadlocks,
                "victims": self.victims,
                "wait_chain_max": self.wait_chain_max,
            }

    def adopt_counters(self, other: "LockManager") -> None:
        """Carry another manager's counters forward (crash survivors).

        :meth:`Database.crash` replaces the lock manager — locks are
        volatile — but the *accounting* describes the whole run, so the
        replacement starts from the predecessor's totals.  This also
        keeps the counters monotone across crashes, which the invariant
        sanitizer checks.
        """
        with self._mutex:
            snapshot = other.contention()
            self.acquisitions = snapshot["acquisitions"]
            self.releases = snapshot["releases"]
            self.conflicts = snapshot["conflicts"]
            self.timeouts = snapshot["timeouts"]
            self.waits = snapshot["waits"]
            self.deadlocks = snapshot["deadlocks"]
            self.victims = snapshot["victims"]
            self.wait_chain_max = snapshot["wait_chain_max"]

    # -- acquisition -----------------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        timeout: float | None = None,
    ) -> None:
        """Take (or upgrade to) a lock; raises LockConflictError on conflict.

        A positive ``timeout`` (or ``default_timeout``) keeps retrying
        the request until it is granted, the waiter is aborted as a
        deadlock victim, or the deadline passes, so a holder releasing
        concurrently (or a fault schedule moving on) unblocks the
        waiter instead of failing it spuriously.
        """
        if self._injector is not None:
            try:
                self._injector.check("lock.acquire")
            except DeadlockError:
                # An injected deadlock fault models this transaction
                # losing a victim pick; count it like a detected one so
                # chaos reports stay comparable across schedulers.
                with self._mutex:
                    self.deadlocks += 1
                    self.victims += 1
                instruments.LOCK_DEADLOCKS.inc(kind="injected")
                instruments.LOCK_VICTIMS.inc(policy="injected")
                raise
        budget = self.default_timeout if timeout is None else timeout
        if budget <= 0:
            self._try_acquire(txn_id, resource, mode)
            return
        deadline = self._clock() + budget
        waiting = False
        try:
            while True:
                with self._mutex:
                    doom_chain = self._doomed.pop(txn_id, None)
                if doom_chain is not None:
                    raise DeadlockError(
                        f"txn {txn_id} aborted as deadlock victim "
                        f"(waits-for cycle {doom_chain})"
                    )
                try:
                    self._try_acquire(txn_id, resource, mode)
                    return
                except LockConflictError as error:
                    if self._clock() >= deadline:
                        with self._mutex:
                            self.timeouts += 1
                        instruments.LOCK_TIMEOUTS.inc(mode=mode.value)
                        raise LockConflictError(
                            f"txn {txn_id} timed out after {budget}s waiting for "
                            f"{mode.value} on {resource!r}: {error}"
                        ) from error
                    if not waiting:
                        waiting = True
                        with self._mutex:
                            self.waits += 1
                            self._waiting[txn_id] = resource
                        instruments.LOCK_WAIT_DEPTH.inc()
                    victim = self._resolve_deadlock(txn_id)
                    if victim == txn_id:
                        with self._mutex:
                            chain = self._doomed.pop(txn_id, "")
                        raise DeadlockError(
                            f"txn {txn_id} aborted as deadlock victim "
                            f"(waits-for cycle {chain})"
                        ) from error
                    self._wait_one_interval()
        finally:
            if waiting:
                with self._mutex:
                    self._waiting.pop(txn_id, None)
                    self._doomed.pop(txn_id, None)
                instruments.LOCK_WAIT_DEPTH.dec()

    def _wait_one_interval(self) -> None:
        """Sleep one poll interval inside the installed wait scope.

        REP009 sees a sleep reachable with ``Database.latch`` held (via
        ``statement_scope`` → ``acquire`` → here).  That is exactly the
        hazard ``wait_scope`` exists for: the Database installs a scope
        that *releases* the latch around the sleep and reacquires it
        after, so the statement latch is never actually held across the
        blocking call.  The analyzer cannot see through the injected
        callable, hence the inline justification.
        """
        scope = (
            self._wait_scope() if self._wait_scope is not None else nullcontext()
        )
        with scope:
            self._sleep(self.poll_interval)  # reprolint: disable=REP009 (wait_scope released the latch)

    def _resolve_deadlock(self, txn_id: int) -> int | None:
        """Detect a cycle through ``txn_id``; doom and return its victim.

        Returns None when no (new) cycle exists.  A cycle that already
        contains a doomed member is being resolved by an earlier
        detection, so it is neither recounted nor given a second
        victim — every member polls its doom flag, and exactly one
        abort breaks the cycle.
        """
        with self._mutex:
            cycle = find_cycle(self._waits_for_locked(), start=txn_id)
            if cycle is None:
                return None
            if any(member in self._doomed for member in cycle):
                return None
            self.deadlocks += 1
            self.wait_chain_max = max(self.wait_chain_max, len(cycle))
            victim = choose_victim(
                cycle,
                self.victim_policy,
                lambda txn: len(self._held.get(txn, ())),
            )
            self.victims += 1
            chain = " -> ".join(str(member) for member in cycle)
            self._doomed[victim] = chain
            policy = self.victim_policy
        instruments.LOCK_DEADLOCKS.inc(kind="detected")
        instruments.LOCK_VICTIMS.inc(policy=policy)
        instruments.LOCK_WAIT_CHAIN.observe(len(cycle))
        return victim

    def _try_acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> None:
        """One no-wait grant attempt (the original acquire semantics)."""
        with self._mutex:
            current = self._mode_held_locked(txn_id, resource)
            if current is LockMode.EXCLUSIVE:
                return  # already as strong as possible
            if current is LockMode.SHARED and mode is LockMode.SHARED:
                return

            exclusive_holder = self._exclusive.get(resource)
            if exclusive_holder is not None and exclusive_holder != txn_id:
                self.conflicts += 1
                instruments.LOCK_CONFLICTS.inc(mode=mode.value)
                raise LockConflictError(
                    f"txn {txn_id} blocked on {resource!r}: "
                    f"X-held by {exclusive_holder}"
                )
            if mode is LockMode.EXCLUSIVE:
                others = self._shared.get(resource, set()) - {txn_id}
                if others:
                    self.conflicts += 1
                    instruments.LOCK_CONFLICTS.inc(mode=mode.value)
                    raise LockConflictError(
                        f"txn {txn_id} blocked on {resource!r}: "
                        f"S-held by {sorted(others)}"
                    )
                self._shared.get(resource, set()).discard(txn_id)
                self._exclusive[resource] = txn_id
            else:
                self._shared[resource].add(txn_id)
            self._held[txn_id].add(resource)
            self.acquisitions += 1
        if instruments.REGISTRY.enabled:
            instruments.LOCK_ACQUISITIONS.inc(mode=mode.value)

    # -- release ------------------------------------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Drop every lock of a transaction (commit/abort); returns count."""
        with self._mutex:
            resources = self._held.pop(txn_id, set())
            for resource in resources:
                if self._exclusive.get(resource) == txn_id:
                    del self._exclusive[resource]
                holders = self._shared.get(resource)
                if holders is not None:
                    holders.discard(txn_id)
                    if not holders:
                        del self._shared[resource]
            self.releases += len(resources)
            # A finished transaction is no waiter and needs no doom flag.
            self._waiting.pop(txn_id, None)
            self._doomed.pop(txn_id, None)
        return len(resources)

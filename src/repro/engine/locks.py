"""A strict two-phase lock manager with waits-for deadlock resolution.

The throughput model charges 1K instructions per lock release and the
distributed discussion hinges on which concurrency-control protocol is
assumed; the executable engine therefore takes real tuple locks.

``default_timeout`` selects the conflict policy.  With the default of 0
a conflicting request fails fast with
:class:`~repro.engine.errors.LockConflictError` (no-wait).  A positive
timeout makes conflicts *blocking*: the request raises
:class:`LockWait`, a ``LockConflictError`` carrying what the virtual-time
scheduler (:mod:`repro.driver.scheduler`) needs to park the blocked
statement.  :meth:`LockManager.park` registers the waiter in the
waits-for graph and searches it for a cycle once; a found cycle dooms
one member under the victim policy (``youngest`` / ``oldest`` /
``fewest_locks``).  :meth:`LockManager.release_all` wakes the waiters of
every resource it frees, in park order, and the scheduler re-runs their
statements.  The timeout is the starvation backstop, charged in virtual
time by the scheduler (:meth:`LockManager.time_out`).

Bookkeeping: ``_held`` maps each transaction to ``{resource: mode}`` in
grant order (an upgrade keeps the resource's place), so
:meth:`LockManager.mode_held` is one lookup and
:meth:`LockManager.release_all` frees each resource by the mode it was
granted.  Beside it, ``_exclusive`` maps a resource to its X holder and
``_shared`` to its set of S holders; an upgrade moves the transaction
from the one to the other, and no resource keeps an empty holder set.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Hashable

from repro.engine.deadlock import VICTIM_POLICIES, choose_victim, find_cycle
from repro.engine.errors import DeadlockError, LockConflictError
from repro.obs import instruments

Resource = Hashable


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) lock."""

    SHARED = "S"
    EXCLUSIVE = "X"


# The members, bound once: on CPython 3.10 and 3.11 a load through the
# class goes through ``EnumType.__getattr__`` (~190 ns against ~25 ns for
# a module global), and the grant path compares modes on every statement.
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE


class LockWait(LockConflictError):
    """A conflict under the blocking policy: park the statement, retry it later.

    The blocked statement sets :attr:`retry` to a re-run of itself
    before handing the wait to the scheduler.  Whoever cannot park it
    (no scheduler) sees a plain conflict: nothing else could ever run
    to release the lock.
    """

    def __init__(
        self, message: str, txn_id: int, resource: Resource, mode: LockMode, timeout: float
    ) -> None:
        super().__init__(message)
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.timeout = timeout
        self.retry: Callable[[], Any] | None = None


class LockManager:
    """Tracks S/X locks per resource for multiple transaction ids.

    Counters ``acquisitions`` and ``releases`` feed the cost model's
    lock-overhead accounting; ``waits`` / ``timeouts`` / ``deadlocks`` /
    ``victims`` / ``wait_chain_max`` feed the driver's report.  All of
    them are monotone for the manager's lifetime (and across
    ``Database.crash()``, see :meth:`adopt_counters`).
    """

    def __init__(
        self,
        default_timeout: float = 0.0,
        injector=None,
        victim_policy: str = "youngest",
    ) -> None:
        if default_timeout < 0:
            raise ValueError(f"default_timeout must be >= 0, got {default_timeout}")
        if victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"victim_policy must be one of {VICTIM_POLICIES}, "
                f"got {victim_policy!r}"
            )
        self._shared: dict[Resource, set[int]] = {}
        self._exclusive: dict[Resource, int] = {}
        self._held: dict[int, dict[Resource, LockMode]] = {}
        self.default_timeout = default_timeout
        self.victim_policy = victim_policy
        self._injector = injector
        #: Parked transactions -> the resource each waits for, in park order.
        self._waiting: dict[int, Resource] = {}
        #: Parked transactions woken by releases, in park order; the
        #: scheduler takes them after every step.
        self.woken: list[int] = []
        self.acquisitions = 0
        self.releases = 0
        self.conflicts = 0
        self.timeouts = 0
        self.waits = 0
        self.deadlocks = 0
        self.victims = 0
        self.wait_chain_max = 0

    def set_injector(self, injector) -> None:
        """Arm (or disarm with None) a fault injector at the acquire seam."""
        self._injector = injector

    # -- queries -----------------------------------------------------------------

    def holders(self, resource: Resource) -> tuple[set[int], int | None]:
        """(shared holders, exclusive holder) of a resource."""
        return set(self._shared.get(resource, ())), self._exclusive.get(resource)

    def locks_held(self, txn_id: int) -> int:
        """Number of resources a transaction currently locks."""
        return len(self._held.get(txn_id, ()))

    def mode_held(self, txn_id: int, resource: Resource) -> LockMode | None:
        """The strongest mode a transaction holds on a resource."""
        held = self._held.get(txn_id)
        return None if held is None else held.get(resource)

    def waits_for(self) -> dict[int, set[int]]:
        """The current waits-for graph: waiter -> transactions blocking it."""
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
        for name, value in other.contention().items():
            setattr(self, name, value)

    # -- acquisition -----------------------------------------------------------------

    def acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> None:
        """Take (or upgrade to) a lock.

        A conflict raises :class:`LockConflictError` under no-wait and
        :class:`LockWait` under the blocking policy.
        """
        if self._injector is not None:
            try:
                self._injector.check("lock.acquire")
            except DeadlockError:
                # An injected deadlock fault models this transaction
                # losing a victim pick; count it like a detected one so
                # chaos reports stay comparable across policies.
                self.deadlocks += 1
                self.victims += 1
                instruments.LOCK_DEADLOCKS.inc(kind="injected")
                instruments.LOCK_VICTIMS.inc(policy="injected")
                raise
        if self.default_timeout <= 0:
            self._try_acquire(txn_id, resource, mode)
            return
        try:
            self._try_acquire(txn_id, resource, mode)
        except LockConflictError as error:
            raise LockWait(
                str(error), txn_id, resource, mode, self.default_timeout
            ) from None

    def _try_acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> None:
        """One no-wait grant attempt."""
        held = self._held.get(txn_id)
        current = None if held is None else held.get(resource)
        if current is _EXCLUSIVE or (current is not None and mode is _SHARED):
            return  # already held at least as strongly

        # The transaction holds no X lock here (checked above), so any X
        # holder is another transaction.
        exclusive_holder = self._exclusive.get(resource)
        if exclusive_holder is not None:
            self.conflicts += 1
            instruments.LOCK_CONFLICTS.inc(mode=mode.value)
            raise LockConflictError(
                f"txn {txn_id} blocked on {resource!r}: "
                f"X-held by {exclusive_holder}"
            )
        holders = self._shared.get(resource)
        if mode is _EXCLUSIVE:
            if holders is not None and (current is None or len(holders) > 1):
                others = sorted(holder for holder in holders if holder != txn_id)
                self.conflicts += 1
                instruments.LOCK_CONFLICTS.inc(mode=mode.value)
                raise LockConflictError(
                    f"txn {txn_id} blocked on {resource!r}: S-held by {others}"
                )
            if current is not None:  # upgrade: the sole S holder becomes the X holder
                del self._shared[resource]
            self._exclusive[resource] = txn_id
        elif holders is None:
            self._shared[resource] = {txn_id}
        else:
            holders.add(txn_id)
        if held is None:
            self._held[txn_id] = {resource: mode}
        else:
            held[resource] = mode
        self.acquisitions += 1
        if instruments.REGISTRY.enabled:
            instruments.LOCK_ACQUISITIONS.inc(mode=mode.value)

    # -- waiting --------------------------------------------------------------------

    def park(self, txn_id: int, resource: Resource) -> tuple[int, DeadlockError] | None:
        """Register a blocked transaction and resolve a deadlock it closes.

        The cycle search runs once, from the new waiter.  Returns
        ``(victim, error)`` when the park closed a cycle: the victim —
        possibly ``txn_id`` itself — waits no longer, and the caller
        throws the error into it.
        """
        self.waits += 1
        self._waiting[txn_id] = resource
        instruments.LOCK_WAIT_DEPTH.inc()
        cycle = find_cycle(self.waits_for(), start=txn_id)
        if cycle is None:
            return None
        self.deadlocks += 1
        self.wait_chain_max = max(self.wait_chain_max, len(cycle))
        victim = choose_victim(cycle, self.victim_policy, self.locks_held)
        self.victims += 1
        self.unpark(victim)
        instruments.LOCK_DEADLOCKS.inc(kind="detected")
        instruments.LOCK_VICTIMS.inc(policy=self.victim_policy)
        instruments.LOCK_WAIT_CHAIN.observe(len(cycle))
        chain = " -> ".join(str(member) for member in cycle)
        return victim, DeadlockError(
            f"txn {victim} aborted as deadlock victim (waits-for cycle {chain})"
        )

    def unpark(self, txn_id: int) -> None:
        """Take a transaction out of the waits-for graph."""
        if txn_id in self._waiting:
            del self._waiting[txn_id]
            instruments.LOCK_WAIT_DEPTH.dec()

    def time_out(self, wait: LockWait) -> LockConflictError:
        """Unpark a waiter whose budget ran out; returns the error it gets."""
        self.unpark(wait.txn_id)
        self.timeouts += 1
        instruments.LOCK_TIMEOUTS.inc(mode=wait.mode.value)
        return LockConflictError(
            f"txn {wait.txn_id} timed out after {wait.timeout}s waiting for "
            f"{wait.mode.value} on {wait.resource!r}: {wait}"
        )

    # -- release ------------------------------------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Drop every lock of a transaction (commit/abort); returns count.

        Waiters parked on any freed resource are woken (appended to
        :attr:`woken` in park order).
        """
        held = self._held.pop(txn_id, None)
        if held is None:
            return 0
        for resource, mode in held.items():
            if mode is _EXCLUSIVE:
                del self._exclusive[resource]
            else:
                holders = self._shared[resource]
                holders.discard(txn_id)
                if not holders:
                    del self._shared[resource]
        self.releases += len(held)
        if self._waiting:
            woken = [
                waiter
                for waiter, resource in self._waiting.items()
                if resource in held
            ]
            for waiter in woken:
                self.unpark(waiter)
            self.woken.extend(woken)
        return len(held)

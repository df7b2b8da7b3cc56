"""The fault injector armed at the storage-engine seams.

Engine components call :meth:`FaultInjector.check` (raise on fire) or
:meth:`FaultInjector.fire` (record and return the event, letting the
caller implement the failure semantics — e.g. the page store actually
writing a torn image).  The injector counts operations per site,
evaluates the plan's rules in order, and logs every firing as a
:class:`~repro.faults.plan.FaultEvent`, so a run's complete fault
sequence can be compared across replays.

Determinism: probability triggers draw from one ``random.Random``
seeded by the plan; given the same plan and the same workload, the
sequence of ``fire``/``check`` calls — and therefore every draw and
every firing — is identical.  Under the deterministic virtual-time
driver the scheduler serializes the call sequence itself, so a seeded
plan fires at the same virtual instant every run.

The *scope* (which terminal / transaction type is operating) spans a
whole transaction attempt, and the virtual scheduler interleaves many
attempts statement by statement — so it lives in a context variable:
each scheduler task, resumed inside its own ``contextvars.Context``,
sees only its own.  An exemption never spans a suspension (undo and
recovery run inside one statement), so its depth is a plain counter.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, error_for

#: ``(terminal, tx_type)`` on whose behalf the current context operates.
_SCOPE: ContextVar[tuple[int | None, str | None]] = ContextVar(
    "repro.faults.scope", default=(None, None)
)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at engine seams."""

    def __init__(self, plan: FaultPlan, armed: bool = True):
        self._plan = plan
        self._rng = random.Random(plan.seed)
        self._site_ops: Counter[str] = Counter()
        self._rule_fires: Counter[int] = Counter()
        self._rules_by_site: dict[str, list[tuple[int, object]]] = {}
        for index, rule in enumerate(plan.rules):
            self._rules_by_site.setdefault(rule.site, []).append((index, rule))
        self.events: list[FaultEvent] = []
        self.armed = armed
        self._exempt_depth = 0
        self._clock: Callable[[], float] | None = None

    # -- configuration -------------------------------------------------------

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Install the clock ``after_seconds`` scopes are judged against.

        The driver wires the virtual scheduler's clock here, so a
        time-scoped rule arms at the same *virtual* instant every run.
        Without a clock, time-scoped rules never arm.
        """
        self._clock = clock

    @contextmanager
    def exempt(self) -> Iterator[None]:
        """Suppress firing (and operation counting) inside the block.

        Used by the engine around paths that must not fail mid-way —
        transaction abort (undo) and crash recovery — mirroring real
        systems, where rollback I/O is not allowed to fail the rollback.
        """
        self._exempt_depth += 1
        try:
            yield
        finally:
            self._exempt_depth -= 1

    @contextmanager
    def scoped(
        self, *, terminal: int | None = None, tx_type: str | None = None
    ) -> Iterator[None]:
        """Declare on whose behalf this context's operations run.

        The driver's executor enters this scope around each transaction
        attempt; rules carrying ``terminals`` / ``tx_types`` scopes
        match only operations performed inside a matching scope.
        Scopes nest (inner values shadow outer ones) and are local to
        the current ``contextvars`` context, so the block must be
        entered and left in the same one.
        """
        outer_terminal, outer_tx_type = _SCOPE.get()
        token = _SCOPE.set(
            (
                outer_terminal if terminal is None else terminal,
                outer_tx_type if tx_type is None else tx_type,
            )
        )
        try:
            yield
        finally:
            _SCOPE.reset(token)

    # -- introspection -------------------------------------------------------

    def operations(self, site: str) -> int:
        """Operations observed at a site so far."""
        return self._site_ops[site]

    def fired(self, kind: FaultKind | None = None) -> int:
        """Total faults fired (optionally of one kind)."""
        if kind is None:
            return len(self.events)
        return sum(1 for event in self.events if event.kind is kind)

    def event_summary(self) -> tuple[tuple[int, str, str, int], ...]:
        """Comparable firing log (asserting replay determinism)."""
        return tuple(event.as_tuple() for event in self.events)

    # -- the seams -----------------------------------------------------------

    def fire(self, site: str) -> FaultEvent | None:
        """Count one operation at a site; return an event if a rule fires.

        At most one rule fires per operation (the first matching one in
        plan order); the caller decides what failing means.
        """
        if not self.armed or self._exempt_depth:
            return None
        terminal, tx_type = _SCOPE.get()
        now = self._clock() if self._clock is not None else None
        self._site_ops[site] += 1
        op_index = self._site_ops[site]
        for rule_index, rule in self._rules_by_site.get(site, ()):
            if not self._in_scope(rule, terminal, tx_type, now):
                continue
            if not self._rule_fires_now(rule_index, rule, op_index):
                continue
            self._rule_fires[rule_index] += 1
            event = FaultEvent(
                sequence=len(self.events) + 1,
                kind=rule.kind,
                site=site,
                op_index=op_index,
            )
            self.events.append(event)
            return event
        return None

    def check(self, site: str) -> None:
        """Count one operation; raise the mapped error if a rule fires."""
        event = self.fire(site)
        if event is not None:
            raise error_for(event.kind, event.op_index)

    # -- internal ------------------------------------------------------------

    @staticmethod
    def _in_scope(
        rule, terminal: int | None, tx_type: str | None, now: float | None
    ) -> bool:
        """Whether the operation falls inside the rule's scope.

        Out-of-scope operations skip the rule *before* any probability
        draw, so narrowing a rule's scope never perturbs the seeded
        stream consumed by operations that remain in scope.
        """
        if rule.terminals and (terminal is None or terminal not in rule.terminals):
            return False
        if rule.tx_types and (tx_type is None or tx_type not in rule.tx_types):
            return False
        if rule.after_seconds is not None:
            if now is None or now < rule.after_seconds:
                return False
        return True

    def _rule_fires_now(self, rule_index: int, rule, op_index: int) -> bool:
        if rule.max_fires is not None and self._rule_fires[rule_index] >= rule.max_fires:
            return False
        if op_index in rule.at_ops:
            return True
        if rule.every is not None and op_index % rule.every == 0:
            return True
        if rule.probability > 0.0:
            # Always consume the draw so the stream stays aligned even
            # when max_fires has been reached for *other* rules.
            return self._rng.random() < rule.probability
        return False


__all__ = ["FaultInjector"]

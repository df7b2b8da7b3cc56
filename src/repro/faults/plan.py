"""Deterministic fault schedules.

A :class:`FaultPlan` is a seeded, declarative description of *which*
faults fire *when*: each :class:`FaultRule` names a fault kind (and
thereby the engine seam it arms) and a trigger — explicit operation
indexes, a periodic stride, or a per-operation probability drawn from
the plan's seeded stream.  Rules can additionally be *scoped* to
specific driver terminals, transaction types, or a start time, so a
concurrent benchmark can aim chaos at part of the workload.  Two runs
of the same workload under the same plan observe the identical fault
sequence, which is what lets the chaos suite assert byte-identical
recovery outcomes across replays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.engine.errors import (
    BufferEvictionError,
    DeadlockError,
    InjectedFaultError,
    LockConflictError,
    TornPageWriteError,
    WalAppendFaultError,
)


class FaultKind(enum.Enum):
    """The fault vocabulary, one per armed engine seam."""

    WAL_APPEND = "wal_append"
    TORN_PAGE_WRITE = "torn_page_write"
    BUFFER_EVICTION = "buffer_eviction"
    LOCK_CONFLICT = "lock_conflict"
    DEADLOCK = "deadlock"


#: Engine seam (injector site name) armed by each fault kind.
SITE_OF_KIND: dict[FaultKind, str] = {
    FaultKind.WAL_APPEND: "wal.append",
    FaultKind.TORN_PAGE_WRITE: "store.write",
    FaultKind.BUFFER_EVICTION: "buffer.evict",
    FaultKind.LOCK_CONFLICT: "lock.acquire",
    FaultKind.DEADLOCK: "lock.acquire",
}

#: Exception type raised (or recorded) when each kind fires.
ERROR_OF_KIND: dict[FaultKind, type[Exception]] = {
    FaultKind.WAL_APPEND: WalAppendFaultError,
    FaultKind.TORN_PAGE_WRITE: TornPageWriteError,
    FaultKind.BUFFER_EVICTION: BufferEvictionError,
    FaultKind.LOCK_CONFLICT: LockConflictError,
    FaultKind.DEADLOCK: DeadlockError,
}


@dataclass(frozen=True)
class FaultRule:
    """When one fault kind fires at its seam.

    Triggers combine with OR: the rule fires on every operation index
    listed in ``at_ops`` (1-based, counted per site), on every
    ``every``-th operation, and independently with ``probability`` per
    operation (drawn from the plan's seeded stream).  ``max_fires``
    caps the total firings of the rule.

    Scopes combine with AND and narrow *whether the rule is considered
    at all* for an operation: ``terminals`` restricts it to operations
    performed on behalf of the listed driver terminals, ``tx_types`` to
    the listed TPC-C transaction types, and ``after_seconds`` arms the
    rule only once the injector's clock (virtual time under the
    deterministic scheduler) has reached that instant.  Operations
    outside a rule's scope neither fire it nor consume a probability
    draw — but they still advance the site's operation count, so
    ``at_ops``/``every`` indexes mean the same thing with or without
    scoped rules in the plan.
    """

    kind: FaultKind
    at_ops: tuple[int, ...] = ()
    every: int | None = None
    probability: float = 0.0
    max_fires: int | None = None
    terminals: tuple[int, ...] = ()
    tx_types: tuple[str, ...] = ()
    after_seconds: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.at_ops, tuple):
            object.__setattr__(self, "at_ops", tuple(self.at_ops))
        if not isinstance(self.terminals, tuple):
            object.__setattr__(self, "terminals", tuple(self.terminals))
        if not isinstance(self.tx_types, tuple):
            object.__setattr__(self, "tx_types", tuple(self.tx_types))
        if not self.at_ops and self.every is None and self.probability == 0.0:
            raise ValueError(
                f"rule for {self.kind.value} has no trigger "
                "(at_ops, every or probability)"
            )
        if any(index < 1 for index in self.at_ops):
            raise ValueError(f"at_ops are 1-based, got {self.at_ops}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")
        if any(terminal < 0 for terminal in self.terminals):
            raise ValueError(f"terminals must be >= 0, got {self.terminals}")
        if self.after_seconds is not None and self.after_seconds < 0:
            raise ValueError(
                f"after_seconds must be >= 0, got {self.after_seconds}"
            )

    @property
    def site(self) -> str:
        return SITE_OF_KIND[self.kind]

    @property
    def uses_randomness(self) -> bool:
        return self.probability > 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (enum flattened to its value)."""
        return {
            "kind": self.kind.value,
            "at_ops": list(self.at_ops),
            "every": self.every,
            "probability": self.probability,
            "max_fires": self.max_fires,
            "terminals": list(self.terminals),
            "tx_types": list(self.tx_types),
            "after_seconds": self.after_seconds,
        }


@dataclass(frozen=True)
class FaultEvent:
    """One fault firing: what fired, where, and on which operation."""

    sequence: int  # global firing order across all sites
    kind: FaultKind
    site: str
    op_index: int  # 1-based operation count at the site when it fired

    def as_tuple(self) -> tuple[int, str, str, int]:
        """Comparable summary (used to assert identical replays)."""
        return (self.sequence, self.kind.value, self.site, self.op_index)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules (the unit the chaos suite iterates)."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = "plan"

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def rules_for(self, site: str) -> tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.site == site)

    @classmethod
    def chaos(
        cls,
        seed: int,
        *,
        wal_append: float = 0.0,
        torn_write: float = 0.0,
        eviction: float = 0.0,
        lock_conflict: float = 0.0,
        deadlock: float = 0.0,
        name: str = "chaos",
    ) -> "FaultPlan":
        """A probability-per-operation plan over any subset of seams."""
        probabilities = {
            FaultKind.WAL_APPEND: wal_append,
            FaultKind.TORN_PAGE_WRITE: torn_write,
            FaultKind.BUFFER_EVICTION: eviction,
            FaultKind.LOCK_CONFLICT: lock_conflict,
            FaultKind.DEADLOCK: deadlock,
        }
        rules = tuple(
            FaultRule(kind=kind, probability=probability)
            for kind, probability in probabilities.items()
            if probability > 0.0
        )
        if not rules:
            raise ValueError("chaos plan needs at least one non-zero probability")
        return cls(rules=rules, seed=seed, name=name)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (used by spec/report serialization)."""
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "seed": self.seed,
            "name": self.name,
        }


def error_for(kind: FaultKind, op_index: int) -> Exception:
    """The exception instance describing a firing of ``kind``."""
    error_type = ERROR_OF_KIND[kind]
    return error_type(
        f"injected {kind.value} fault at {SITE_OF_KIND[kind]} op {op_index}"
    )


__all__ = [
    "ERROR_OF_KIND",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "SITE_OF_KIND",
    "error_for",
    "InjectedFaultError",
]

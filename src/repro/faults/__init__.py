"""Deterministic fault injection and crash-recovery checking.

The paper's throughput model assumes transactions complete cleanly;
this package stress-tests the executable engine beyond that happy
path.  A seeded :class:`FaultPlan` describes which faults fire when
(WAL-append failures, torn page writes, buffer-eviction errors, forced
lock conflicts); a :class:`FaultInjector` evaluates it at the engine
seams; and :func:`check_recovery_invariants` asserts — against a
logical replay of the log, not the engine's own recovery code path —
that after ``Database.crash()`` + ``recover()`` every committed
transaction survived and no aborted or in-flight one did.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.engine.errors import BufferEvictionError as BufferEvictionError
    from repro.engine.errors import CorruptPageError as CorruptPageError
    from repro.engine.errors import DeadlockError as DeadlockError
    from repro.engine.errors import InjectedFaultError as InjectedFaultError
    from repro.engine.errors import TornPageWriteError as TornPageWriteError
    from repro.engine.errors import WalAppendFaultError as WalAppendFaultError
    from repro.faults.injector import FaultInjector as FaultInjector
    from repro.faults.invariants import InvariantReport as InvariantReport
    from repro.faults.invariants import InvariantViolation as InvariantViolation
    from repro.faults.invariants import check_recovery_invariants as check_recovery_invariants
    from repro.faults.invariants import expected_state as expected_state
    from repro.faults.plan import ERROR_OF_KIND as ERROR_OF_KIND
    from repro.faults.plan import SITE_OF_KIND as SITE_OF_KIND
    from repro.faults.plan import FaultEvent as FaultEvent
    from repro.faults.plan import FaultKind as FaultKind
    from repro.faults.plan import FaultPlan as FaultPlan
    from repro.faults.plan import FaultRule as FaultRule
    from repro.faults.plan import error_for as error_for

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "BufferEvictionError": "repro.engine.errors",
        "CorruptPageError": "repro.engine.errors",
        "DeadlockError": "repro.engine.errors",
        "InjectedFaultError": "repro.engine.errors",
        "TornPageWriteError": "repro.engine.errors",
        "WalAppendFaultError": "repro.engine.errors",
        "FaultInjector": "repro.faults.injector",
        "InvariantReport": "repro.faults.invariants",
        "InvariantViolation": "repro.faults.invariants",
        "check_recovery_invariants": "repro.faults.invariants",
        "expected_state": "repro.faults.invariants",
        "ERROR_OF_KIND": "repro.faults.plan",
        "SITE_OF_KIND": "repro.faults.plan",
        "FaultEvent": "repro.faults.plan",
        "FaultKind": "repro.faults.plan",
        "FaultPlan": "repro.faults.plan",
        "FaultRule": "repro.faults.plan",
        "error_for": "repro.faults.plan",
    },
)

"""Concurrency correctness tooling: static lock model + dynamic checkers.

Static side (:mod:`.project`, :mod:`.annotations`): a whole-project
lock/call model consumed by reprolint rules REP007–REP009 and the
interprocedural REP005 fix.

Dynamic side (:mod:`.locksets`): an Eraser-style lockset race detector,
wired into :class:`repro.analysis.sanitizer.InvariantSanitizer`.
"""

from repro.analysis.concurrency.annotations import (
    GUARDED_BY,
    guarded_fields,
    guarded_fields_of_node,
)
from repro.analysis.concurrency.locksets import RaceDetector, RaceReport
from repro.analysis.concurrency.project import (
    LockKey,
    ProjectIndex,
    holds_attr,
    same_lock,
)

__all__ = [
    "GUARDED_BY",
    "LockKey",
    "ProjectIndex",
    "RaceDetector",
    "RaceReport",
    "guarded_fields",
    "guarded_fields_of_node",
    "holds_attr",
    "same_lock",
]

"""Parallel experiment-execution subsystem.

Decomposes sweep-shaped experiments into independent, picklable work
units (:mod:`repro.exec.units`), runs each once, serially or over a
process pool, with structured progress (:mod:`repro.exec.engine`),
memoizes unit results in an on-disk content-addressed cache
(:mod:`repro.exec.cache`), and exposes the unified run-request API
(:mod:`repro.exec.request`) used by the CLI and
:func:`repro.experiments.run_experiment`.
"""

from repro.exec.cache import ResultCache, cache_key, stable_fingerprint
from repro.exec.engine import (
    ExecutionEngine,
    ExecutionError,
    RunManifest,
    UnitRecord,
)
from repro.exec.request import (
    RunContext,
    RunRequest,
    build_engine,
    execute,
)
from repro.exec.units import SweepSpec, WorkUnit

__all__ = [
    "ExecutionEngine",
    "ExecutionError",
    "ResultCache",
    "RunContext",
    "RunManifest",
    "RunRequest",
    "SweepSpec",
    "UnitRecord",
    "WorkUnit",
    "build_engine",
    "cache_key",
    "execute",
    "stable_fingerprint",
]

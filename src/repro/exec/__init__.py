"""Parallel experiment-execution subsystem.

Decomposes sweep-shaped experiments into independent, picklable work
units (:mod:`repro.exec.units`), runs each once, serially or over a
process pool, with structured progress (:mod:`repro.exec.engine`),
memoizes unit results in an on-disk content-addressed cache
(:mod:`repro.exec.cache`), and exposes the unified run-request API
(:mod:`repro.exec.request`) used by the CLI and
:func:`repro.experiments.run_experiment`.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache as ResultCache
    from repro.exec.cache import cache_key as cache_key
    from repro.exec.cache import stable_fingerprint as stable_fingerprint
    from repro.exec.engine import ExecutionEngine as ExecutionEngine
    from repro.exec.engine import ExecutionError as ExecutionError
    from repro.exec.engine import RunManifest as RunManifest
    from repro.exec.engine import UnitRecord as UnitRecord
    from repro.exec.request import RunContext as RunContext
    from repro.exec.request import RunRequest as RunRequest
    from repro.exec.request import build_engine as build_engine
    from repro.exec.request import execute as execute
    from repro.exec.units import SweepSpec as SweepSpec
    from repro.exec.units import WorkUnit as WorkUnit

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "ResultCache": "repro.exec.cache",
        "cache_key": "repro.exec.cache",
        "stable_fingerprint": "repro.exec.cache",
        "ExecutionEngine": "repro.exec.engine",
        "ExecutionError": "repro.exec.engine",
        "RunManifest": "repro.exec.engine",
        "UnitRecord": "repro.exec.engine",
        "RunContext": "repro.exec.request",
        "RunRequest": "repro.exec.request",
        "build_engine": "repro.exec.request",
        "execute": "repro.exec.request",
        "SweepSpec": "repro.exec.units",
        "WorkUnit": "repro.exec.units",
    },
)

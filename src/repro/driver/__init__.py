"""Concurrent multi-terminal TPC-C driver (ROADMAP open item 1).

:mod:`repro.driver.spec` declares the kw-only :class:`BenchmarkSpec`;
:mod:`repro.driver.scheduler` executes it deterministically in virtual
time (the paper's closed network with the real engine in the loop);
:mod:`repro.driver.pool` executes it with real worker threads;
:mod:`repro.driver.runner` ties them together into a
:class:`DriverReport`; :mod:`repro.driver.validate` closes the loop
against exact MVA.
"""

from repro.driver.pool import WorkerPool
from repro.driver.report import (
    DeadlockStats,
    DriverReport,
    RecoveryWindow,
    ShedStats,
    TxStats,
    percentile,
)
from repro.driver.runner import build_executors, run_benchmark
from repro.driver.scheduler import RunOutcome, StatementGate, VirtualScheduler
from repro.driver.spec import SCHEDULERS, BenchmarkSpec
from repro.driver.validate import (
    DriverValidation,
    ValidationPoint,
    validate_against_mva,
    validate_reports,
)

__all__ = [
    "SCHEDULERS",
    "BenchmarkSpec",
    "DeadlockStats",
    "DriverReport",
    "DriverValidation",
    "RecoveryWindow",
    "RunOutcome",
    "ShedStats",
    "StatementGate",
    "TxStats",
    "ValidationPoint",
    "VirtualScheduler",
    "WorkerPool",
    "build_executors",
    "percentile",
    "run_benchmark",
    "validate_against_mva",
    "validate_reports",
]

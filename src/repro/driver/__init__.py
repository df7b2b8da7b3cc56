"""Concurrent multi-terminal TPC-C driver (ROADMAP open item 1).

:mod:`repro.driver.spec` declares the kw-only :class:`BenchmarkSpec`;
:mod:`repro.driver.scheduler` executes it deterministically in virtual
time (the paper's closed network with the real engine in the loop);
:mod:`repro.driver.runner` turns a run into a :class:`DriverReport`;
:mod:`repro.driver.validate` closes the loop against exact MVA.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.driver.report import DeadlockStats as DeadlockStats
    from repro.driver.report import DriverReport as DriverReport
    from repro.driver.report import RecoveryWindow as RecoveryWindow
    from repro.driver.report import ShedStats as ShedStats
    from repro.driver.report import TxStats as TxStats
    from repro.driver.report import percentile as percentile
    from repro.driver.runner import build_executors as build_executors
    from repro.driver.runner import run_benchmark as run_benchmark
    from repro.driver.scheduler import RunOutcome as RunOutcome
    from repro.driver.scheduler import StatementGate as StatementGate
    from repro.driver.scheduler import VirtualScheduler as VirtualScheduler
    from repro.driver.spec import BenchmarkSpec as BenchmarkSpec
    from repro.driver.validate import DriverValidation as DriverValidation
    from repro.driver.validate import ValidationPoint as ValidationPoint
    from repro.driver.validate import validate_against_mva as validate_against_mva
    from repro.driver.validate import validate_reports as validate_reports

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "DeadlockStats": "repro.driver.report",
        "DriverReport": "repro.driver.report",
        "RecoveryWindow": "repro.driver.report",
        "ShedStats": "repro.driver.report",
        "TxStats": "repro.driver.report",
        "percentile": "repro.driver.report",
        "build_executors": "repro.driver.runner",
        "run_benchmark": "repro.driver.runner",
        "RunOutcome": "repro.driver.scheduler",
        "StatementGate": "repro.driver.scheduler",
        "VirtualScheduler": "repro.driver.scheduler",
        "BenchmarkSpec": "repro.driver.spec",
        "DriverValidation": "repro.driver.validate",
        "ValidationPoint": "repro.driver.validate",
        "validate_against_mva": "repro.driver.validate",
        "validate_reports": "repro.driver.validate",
    },
)

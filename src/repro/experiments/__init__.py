"""Experiment harness: regenerate every table and figure of the paper.

Each experiment is a function returning an :class:`ExperimentResult`
(rows plus headline numbers and the paper's reference values).  The
registry in :mod:`repro.experiments.runner` maps experiment ids
("table1" … "fig12") to those functions; ``python -m repro run`` and
``tests/experiments/`` call them through :func:`run_experiment`, and
``EXPERIMENTS.md`` records paper-vs-measured for each.
"""

from repro.experiments.report import render_table
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentResult,
    Preset,
    list_experiments,
    resolve,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "Preset",
    "list_experiments",
    "render_table",
    "resolve",
    "run_experiment",
]

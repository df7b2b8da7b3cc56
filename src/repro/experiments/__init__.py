"""Experiment harness: regenerate every table and figure of the paper.

Each experiment is a function returning an :class:`ExperimentResult`
(rows plus headline numbers and the paper's reference values).  The
registry in :mod:`repro.experiments.runner` maps experiment ids
("table1" … "fig12") to those functions; ``python -m repro run`` and
``tests/experiments/`` call them through :func:`run_experiment`, and
``EXPERIMENTS.md`` records paper-vs-measured for each.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.experiments.report import render_table as render_table
    from repro.experiments.runner import EXPERIMENTS as EXPERIMENTS
    from repro.experiments.runner import ExperimentResult as ExperimentResult
    from repro.experiments.runner import Preset as Preset
    from repro.experiments.runner import list_experiments as list_experiments
    from repro.experiments.runner import resolve as resolve
    from repro.experiments.runner import run_experiment as run_experiment

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "render_table": "repro.experiments.report",
        "EXPERIMENTS": "repro.experiments.runner",
        "ExperimentResult": "repro.experiments.runner",
        "Preset": "repro.experiments.runner",
        "list_experiments": "repro.experiments.runner",
        "resolve": "repro.experiments.runner",
        "run_experiment": "repro.experiments.runner",
    },
)

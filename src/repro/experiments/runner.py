"""Experiment registry and result container."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.experiments.report import render_table
from repro.obs.metrics import MetricsSnapshot
from repro.results import ReportMixin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.request import RunContext


class Preset(enum.Enum):
    """Simulation effort levels.

    ``QUICK`` finishes in seconds (reduced warehouses / batches /
    grids) for CI; ``PAPER`` runs the paper's protocol: 20 warehouses,
    30 batches of 100 000 references, a 64-point buffer grid.
    """

    QUICK = "quick"
    PAPER = "paper"


@dataclass(frozen=True)
class ExperimentResult(ReportMixin):
    """The output of one experiment.

    ``metrics`` holds the observability snapshot collected while the
    experiment ran (None unless the run requested metrics); attach one
    with :meth:`repro.results.ReportMixin.with_metrics`.
    """

    experiment: str
    title: str
    rows: list[dict[str, object]]
    headline: dict[str, float] = field(default_factory=dict)
    paper_reference: dict[str, float] = field(default_factory=dict)
    notes: str = ""
    metrics: MetricsSnapshot | None = None

    def to_csv(self, path) -> None:
        """Write the data rows as CSV (for external plotting).

        Columns are the union of row keys in first-seen order, so the
        file plots directly with gnuplot/pandas/spreadsheets.
        """
        import csv
        from pathlib import Path

        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        with Path(path).open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def render(self) -> str:
        """Human-readable text report."""
        parts = [render_table(self.rows, title=f"{self.experiment}: {self.title}")]
        if self.headline:
            comparison = []
            for key, measured in self.headline.items():
                row: dict[str, object] = {"metric": key, "measured": round(measured, 4)}
                if key in self.paper_reference:
                    row["paper"] = self.paper_reference[key]
                comparison.append(row)
            parts.append(render_table(comparison, title="headline vs paper"))
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts)


#: An experiment function receives a :class:`repro.exec.request.RunContext`
#: (preset plus execution services) and returns an ExperimentResult.
ExperimentFunction = Callable[["RunContext"], ExperimentResult]

#: Registry of experiment id -> function; populated by tables.py / figures.py.
EXPERIMENTS: dict[str, ExperimentFunction] = {}


def register(experiment_id: str):
    """Decorator adding an experiment function to the registry."""

    def wrap(function: ExperimentFunction) -> ExperimentFunction:
        if experiment_id in EXPERIMENTS:
            raise ValueError(f"experiment {experiment_id!r} registered twice")
        EXPERIMENTS[experiment_id] = function
        return function

    return wrap


def resolve(experiment_id: str) -> ExperimentFunction:
    """The registered function for an id, importing experiments lazily."""
    # Importing the experiment modules populates the registry lazily,
    # avoiding import cycles at package-import time.
    from repro.experiments import figures, tables  # noqa: F401

    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str, preset: Preset | str = Preset.QUICK, **options
) -> ExperimentResult:
    """Run one experiment by id ("table1", "fig8", …).

    Thin wrapper over the unified run-request API: keyword ``options``
    (``jobs``, ``cache_dir``, ``seed_override``, ``manifest_path``,
    ``progress``, …) are forwarded to
    :class:`repro.exec.request.RunRequest`.
    """
    from repro.exec.request import RunRequest, execute

    request = RunRequest(experiment=experiment_id, preset=preset, **options)
    return execute(request)


def list_experiments() -> list[str]:
    """All registered experiment ids."""
    from repro.experiments import figures, tables  # noqa: F401

    return sorted(EXPERIMENTS)

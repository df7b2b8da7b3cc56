"""Predicted-vs-measured validation against the exact MVA model.

The virtual driver *measures* throughput and residence time with the
real engine (locks, aborts, retries) in the loop; the closed queueing
model (`repro.throughput.mva`) *predicts* them from service demands
alone.  This harness runs the same spec at several terminal counts,
takes the measured per-transaction CPU/disk demands, feeds them to
:func:`~repro.throughput.mva.mva_curve` with the same think time, and
reports the ratio at every population — the paper's Figure 9–10 claim
made falsifiable: the curves agree while contention is light and the
measured curve falls below the prediction as lock conflicts and
retries (which MVA does not model) take hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.driver.report import DriverReport
from repro.driver.runner import run_benchmark
from repro.driver.spec import BenchmarkSpec
from repro.results import ReportMixin
from repro.throughput.mva import mva_curve


@dataclass(frozen=True)
class ValidationPoint(ReportMixin):
    """Measured vs predicted figures at one terminal population."""

    terminals: int
    measured_tps: float
    predicted_tps: float
    throughput_ratio: float
    measured_response_seconds: float
    predicted_response_seconds: float
    lock_conflicts: int
    aborts: int


@dataclass(frozen=True)
class DriverValidation(ReportMixin):
    """The full predicted-vs-measured comparison across populations."""

    think_time_seconds: float
    cpu_demand_seconds: float
    disk_demand_seconds: float
    points: list[ValidationPoint]

    @property
    def max_abs_ratio_error(self) -> float:
        """Largest |measured/predicted - 1| across the points."""
        return max(
            (abs(point.throughput_ratio - 1.0) for point in self.points),
            default=0.0,
        )

    def as_rows(self) -> list[dict[str, object]]:
        return [
            {
                "terminals": point.terminals,
                "measured tx/s": round(point.measured_tps, 3),
                "predicted tx/s": round(point.predicted_tps, 3),
                "ratio": round(point.throughput_ratio, 3),
                "measured R s": round(point.measured_response_seconds, 4),
                "predicted R s": round(point.predicted_response_seconds, 4),
                "conflicts": point.lock_conflicts,
                "aborts": point.aborts,
            }
            for point in self.points
        ]

    def render(self) -> str:
        from repro.experiments.report import render_table

        header = (
            f"demands: cpu {self.cpu_demand_seconds * 1000:.2f} ms, "
            f"disk {self.disk_demand_seconds * 1000:.2f} ms, "
            f"think {self.think_time_seconds:.2f} s; "
            f"max |ratio-1| = {self.max_abs_ratio_error:.3f}"
        )
        return header + "\n\n" + render_table(
            self.as_rows(), title="measured vs exact MVA"
        )


def validate_reports(reports: list[DriverReport]) -> DriverValidation:
    """Compare already-run driver reports against the MVA prediction.

    Demands are taken from the smallest-population report (station busy
    time per committed transaction is a pure service demand, so any
    report would do; the smallest population has the least abort-and-
    redo inflation).
    """
    if not reports:
        raise ValueError("validate_reports needs at least one report")
    ordered = sorted(reports, key=lambda report: report.spec.terminals)
    base = ordered[0]
    think = base.spec.cycle_delay_seconds
    curve = mva_curve(
        base.cpu_demand_seconds,
        base.disk_demand_seconds,
        think,
        ordered[-1].spec.terminals,
    )
    points = []
    for report in ordered:
        predicted = curve[report.spec.terminals - 1]
        ratio = (
            report.throughput_tps / predicted.throughput_tps
            if predicted.throughput_tps > 0
            else 0.0
        )
        points.append(
            ValidationPoint(
                terminals=report.spec.terminals,
                measured_tps=report.throughput_tps,
                predicted_tps=predicted.throughput_tps,
                throughput_ratio=ratio,
                measured_response_seconds=report.response_seconds,
                predicted_response_seconds=predicted.response_seconds,
                lock_conflicts=report.lock_conflicts,
                aborts=report.aborts,
            )
        )
    return DriverValidation(
        think_time_seconds=think,
        cpu_demand_seconds=base.cpu_demand_seconds,
        disk_demand_seconds=base.disk_demand_seconds,
        points=points,
    )


def validate_against_mva(
    spec: BenchmarkSpec, terminal_counts: list[int]
) -> DriverValidation:
    """Run the spec at each terminal count (fresh database per run)."""
    if spec.scheduler != "virtual":
        raise ValueError(
            "MVA validation requires the virtual scheduler "
            "(wall-clock latencies are not comparable with Table 4 demands)"
        )
    reports = [
        run_benchmark(spec.replace(terminals=count))
        for count in sorted(set(terminal_counts))
    ]
    return validate_reports(reports)

"""Tests for the unified Report protocol.

Every result class in the repo must satisfy :class:`repro.results.
Report`: ``to_dict`` produces a JSON-serializable, version-tagged dict
that survives actual JSON unchanged, so tuples/numpy leakage would fail
here.
"""

import json

import pytest

from repro.distributed.model import DistributedResult
from repro.driver import BenchmarkSpec, DriverReport, TxStats
from repro.exec.engine import UnitRecord
from repro.experiments.runner import ExperimentResult
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.results import Report, ReportMixin
from repro.stats.batch_means import BatchMeansSummary
from repro.core.skew import SkewSummary
from repro.throughput.model import ThroughputResult
from repro.tpcc.executor import ExecutionSummary


def _sample_snapshot():
    registry = MetricsRegistry(enabled=True)
    registry.counter("c").inc(3, relation="stock")
    registry.histogram("h").observe(5, tx="payment")
    return registry.snapshot()


THROUGHPUT = ThroughputResult(
    throughput_tps=41.2,
    new_order_tpm=1112.4,
    cpu_demand_k_per_tx=194.0,
    disk_reads_per_tx=3.4,
    disk_arms_for_bandwidth=12,
    cpu_utilization=0.8,
    per_transaction_cpu_k={"new_order": 310.0, "payment": 92.0},
)

SAMPLES = [
    ExperimentResult(
        experiment="fig8",
        title="miss rates",
        rows=[{"buffer_mb": 2.0, "miss_rate": 0.31}],
        headline={"knee": 24.0},
        paper_reference={"knee": 28.0},
        notes="quick preset",
        metrics=_sample_snapshot(),
    ),
    UnitRecord(
        experiment="fig8",
        unit_id="fig8/2MB",
        status="done",
        wall_seconds=0.25,
        cpu_seconds=0.24,
        error=None,
        profile=[{"function": "f.py:1(f)", "calls": 3, "total_s": 0.1,
                  "cumulative_s": 0.2}],
    ),
    THROUGHPUT,
    BatchMeansSummary(mean=0.31, half_width=0.01, confidence=0.9, batches=30),
    ExecutionSummary(
        executed={"new_order": 10, "payment": 9},
        rolled_back=1,
        skipped_deliveries=2,
        aborted={"delivery": 1},
        retries=3,
        gave_up=0,
    ),
    SkewSummary(hottest_2pct=0.39, hottest_10pct=0.71, hottest_20pct=0.84,
                gini=0.81),
    DistributedResult(nodes=4, per_node=THROUGHPUT, item_replicated=True),
    TxStats(committed=9, aborted=2, p50_ms=14.0, p95_ms=55.0, p99_ms=61.0,
            mean_ms=19.5),
    DriverReport(
        spec=BenchmarkSpec(terminals=2, transactions=20),
        elapsed_seconds=12.5,
        committed=19,
        tpmc=41.3,
        throughput_tps=1.52,
        per_tx={
            "new_order": TxStats(committed=9, aborted=1, p50_ms=120.0,
                                 p95_ms=300.0, p99_ms=310.0, mean_ms=150.0),
            "payment": TxStats(committed=10, p50_ms=40.0, p95_ms=90.0,
                               p99_ms=95.0, mean_ms=48.0),
        },
        aborts=1,
        retries=1,
        gave_up=0,
        lock_conflicts=1,
        lock_timeouts=0,
        lock_waits=0,
        cpu_busy_seconds=2.4,
        disk_busy_seconds=0.3,
        cpu_utilization=0.19,
        disk_utilization=0.02,
        cpu_demand_seconds=0.126,
        disk_demand_seconds=0.016,
        deterministic=True,
        summary=ExecutionSummary(
            executed={"new_order": 10, "payment": 10},
            aborted={"new_order": 1},
            retries=1,
        ),
        metrics=_sample_snapshot(),
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "report", SAMPLES, ids=[type(r).__name__ for r in SAMPLES]
    )
    def test_through_actual_json(self, report):
        data = report.to_dict()
        assert data["kind"] == type(report).__name__
        assert data["schema_version"] == type(report).schema_version
        assert json.loads(json.dumps(data)) == data

    @pytest.mark.parametrize(
        "report", SAMPLES, ids=[type(r).__name__ for r in SAMPLES]
    )
    def test_satisfies_protocol(self, report):
        assert isinstance(report, Report)

    def test_nested_report_serialized_with_its_own_tags(self):
        distributed = DistributedResult(
            nodes=2, per_node=THROUGHPUT, item_replicated=False
        )
        assert distributed.to_dict()["per_node"] == THROUGHPUT.to_dict()


class TestMetricsAttachment:
    def test_with_metrics_round_trips(self):
        result = ExperimentResult(experiment="e", title="t", rows=[])
        snapshot = _sample_snapshot()
        attached = result.with_metrics(snapshot)
        assert attached.metrics == snapshot
        assert result.metrics is None  # original untouched
        data = json.loads(json.dumps(attached.to_dict()))
        assert MetricsSnapshot.from_dict(data["metrics"]) == snapshot

    def test_reports_without_metrics_field_refuse_attachment(self):
        summary = SkewSummary(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(TypeError, match="no metrics field"):
            summary.with_metrics(_sample_snapshot())


class TestMixinIsGeneric:
    def test_new_report_classes_need_no_custom_code(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Custom(ReportMixin):
            name: str
            values: tuple[int, ...]

        assert Custom("x", (1, 2)).to_dict() == {
            "schema_version": 1,
            "kind": "Custom",
            "name": "x",
            "values": [1, 2],
        }

"""DriverReport/TxStats shapes, percentile math, and the JSON schema."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.driver import BenchmarkSpec, DriverReport, TxStats, percentile, run_benchmark
from repro.tpcc import TpccConfig
from repro.tpcc.executor import ExecutionSummary

REPO_ROOT = Path(__file__).parents[2]
SCHEMA = REPO_ROOT / "schemas" / "driver_report.schema.json"


def _check_schema():
    """The CI validator's schema interpreter, imported from scripts/."""
    spec = importlib.util.spec_from_file_location(
        "validate_metrics", REPO_ROOT / "scripts" / "validate_metrics.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_schema


class TestPercentile:
    def test_empty_sample(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 1.0) == 4.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestTxStats:
    def test_from_latencies(self):
        stats = TxStats.from_latencies([0.010, 0.030, 0.020], aborted=2)
        assert stats.committed == 3
        assert stats.aborted == 2
        assert stats.p50_ms == pytest.approx(20.0)
        assert stats.p99_ms == pytest.approx(30.0)
        assert stats.mean_ms == pytest.approx(20.0)

    def test_empty_sample(self):
        stats = TxStats.from_latencies([])
        assert stats.committed == 0
        assert stats.mean_ms == 0.0


def _tiny_report():
    return DriverReport(
        spec=BenchmarkSpec(terminals=1, transactions=5),
        elapsed_seconds=2.0,
        committed=5,
        tpmc=60.0,
        throughput_tps=2.5,
        per_tx={
            "new_order": TxStats.from_latencies([0.1, 0.2]),
            "payment": TxStats.from_latencies([0.05, 0.05, 0.06]),
        },
        aborts=0,
        retries=0,
        gave_up=0,
        lock_conflicts=0,
        lock_timeouts=0,
        lock_waits=0,
        cpu_busy_seconds=0.5,
        disk_busy_seconds=0.1,
        cpu_utilization=0.25,
        disk_utilization=0.05,
        cpu_demand_seconds=0.1,
        disk_demand_seconds=0.02,
        deterministic=True,
        summary=ExecutionSummary(executed={"new_order": 2, "payment": 3}),
    )


class TestDriverReport:
    def test_response_seconds_pools_all_types(self):
        report = _tiny_report()
        # (150ms * 2 + ~53.33ms * 3) / 5 committed
        expected = (0.150 * 2 + (0.05 + 0.05 + 0.06) / 3 * 3) / 5
        assert report.response_seconds == pytest.approx(expected)

    def test_as_rows_follow_benchmark_order(self):
        rows = _tiny_report().as_rows()
        assert [row["tx"] for row in rows] == ["new_order", "payment"]

    def test_render_mentions_the_headline_figures(self):
        text = _tiny_report().render()
        assert "tpmC 60.0" in text
        assert "scheduler=virtual" in text


class TestSchema:
    def test_real_report_validates(self):
        spec = BenchmarkSpec(
            terminals=2,
            transactions=20,
            tpcc=TpccConfig(
                warehouses=2,
                customers_per_district=30,
                items=200,
                initial_orders_per_district=10,
                pending_orders_per_district=5,
                buffer_pages=300,
            ),
        )
        document = json.loads(json.dumps(run_benchmark(spec).to_dict()))
        schema = json.loads(SCHEMA.read_text())
        errors: list[str] = []
        _check_schema()(document, schema, "$", errors)
        assert not errors, errors

    def test_schema_catches_a_broken_document(self):
        document = json.loads(json.dumps(_tiny_report().to_dict()))
        del document["per_tx"]["new_order"]["p99_ms"]
        document["spec"]["scheduler"] = "fibers"
        schema = json.loads(SCHEMA.read_text())
        errors: list[str] = []
        _check_schema()(document, schema, "$", errors)
        assert any("p99_ms" in error for error in errors)
        assert any("fibers" in error for error in errors)


class TestOldReports:
    def test_reads_a_report_that_names_the_buffer_policy(self):
        """Reports written before the engine became LRU-only carry
        ``spec.tpcc.policy``; reading one drops the key."""
        report = _tiny_report()
        document = json.loads(json.dumps(report.to_dict()))
        document["spec"]["tpcc"]["policy"] = "lru"
        restored = DriverReport.from_dict(document)
        assert restored.spec.tpcc == report.spec.tpcc
        assert restored.to_dict() == report.to_dict()

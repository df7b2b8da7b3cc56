"""End-to-end integration tests: the full paper pipeline.

Simulation -> miss-rate inputs -> throughput model -> price/performance
and distributed scale-up, plus the executable engine cross-validation
and the runnable examples.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.buffer.simulator import SimulationConfig
from repro.distributed.scaleup import scaleup_curve
from repro.throughput.model import ThroughputModel
from repro.throughput.params import MissRateInputs
from repro.throughput.pricing import (
    InterpolatingMissRateProvider,
    optimal_point,
    price_performance_sweep,
)
from repro.workload.trace import TraceConfig

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def simulation_reports():
    """A small Figure 8 sweep shared by the pipeline tests."""
    from repro.experiments.figures import sweep_buffer_sizes

    base = SimulationConfig(
        trace=TraceConfig(warehouses=2, seed=31),
        buffer_mb=4,
        batches=3,
        batch_size=10_000,
        warmup_references=15_000,
    )
    return sweep_buffer_sizes(base, [4.0, 12.0, 24.0])


class TestPaperPipeline:
    def test_simulation_to_throughput(self, simulation_reports):
        """Miss rates from the buffer sim drive the throughput model."""
        for report in simulation_reports.values():
            miss = MissRateInputs.from_report(report)
            result = ThroughputModel(miss_rates=miss).solve()
            assert result.new_order_tpm > 0

    def test_throughput_monotone_in_buffer(self, simulation_reports):
        tpms = []
        for size in sorted(simulation_reports):
            miss = MissRateInputs.from_report(simulation_reports[size])
            tpms.append(ThroughputModel(miss_rates=miss).solve().new_order_tpm)
        assert tpms == sorted(tpms)

    def test_simulation_to_price_performance(self, simulation_reports):
        provider = InterpolatingMissRateProvider.from_reports(simulation_reports)
        points = price_performance_sweep([4.0, 8.0, 16.0, 24.0], provider)
        best = optimal_point(points)
        assert best.cost_per_tpm > 0
        assert best.disks >= 1

    def test_simulation_to_scaleup(self, simulation_reports):
        miss = MissRateInputs.from_report(simulation_reports[24.0])
        curve = scaleup_curve([1, 4, 16], miss)
        assert curve[-1].replicated_efficiency > 0.9
        assert curve[-1].replication_gain > 0


class TestEngineModelCrossValidation:
    """The executable engine must agree with the analytic artifacts."""

    def test_census_matches_table2(self, small_tpcc_db, small_tpcc_config):
        from repro.tpcc import TpccExecutor
        from repro.workload.access import transaction_call_counts
        from repro.workload.mix import TransactionType

        executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=13)
        executor.run_mix(transactions=250)
        expected = transaction_call_counts()

        # New-Order and Delivery have deterministic call counts.
        census = small_tpcc_db.census("new_order")
        runs = small_tpcc_db.finished_count("new_order")
        assert census.selects / runs == expected[TransactionType.NEW_ORDER].selects
        assert census.updates / runs == expected[TransactionType.NEW_ORDER].updates
        assert census.inserts / runs == expected[TransactionType.NEW_ORDER].inserts

        if small_tpcc_db.finished_count("payment") >= 40:
            census = small_tpcc_db.census("payment")
            runs = small_tpcc_db.finished_count("payment")
            assert census.selects / runs == pytest.approx(4.2, abs=0.5)
            assert census.updates / runs == 3.0

    def test_engine_buffer_ordering_matches_model(
        self, small_tpcc_config
    ):
        """Customer pages miss more than item pages in the engine too.

        The engine's buffer is sized so the hot set fits but the full
        customer/stock data does not, reproducing the Figure 8 regime.
        """
        from dataclasses import replace

        from repro.tpcc import TpccExecutor, load_tpcc
        from repro.tpcc.executor import buffer_miss_rates

        config = replace(small_tpcc_config, buffer_pages=120, seed=3)
        db = load_tpcc(config)
        executor = TpccExecutor(db=db, config=config, seed=17)
        executor.run_mix(transactions=400)
        rates = buffer_miss_rates(db)
        assert rates["warehouse"] < 0.05
        assert rates["district"] < 0.05
        assert rates["customer"] > rates["item"]

    def test_engine_locks_match_lock_count_assumption(
        self, small_tpcc_db, small_tpcc_config
    ):
        """The model charges ~46 lock releases per New-Order."""
        from repro.tpcc import TpccExecutor

        executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=23)
        before = small_tpcc_db.locks.releases
        executor.new_order()
        released = small_tpcc_db.locks.releases - before
        # 23 selects + 11 updates + 12 inserts = 46 calls; locks are per
        # distinct tuple so repeated district/stock touches merge.
        assert 30 <= released <= 46

    def test_engine_log_traffic_positive(self, small_tpcc_db, small_tpcc_config):
        from repro.tpcc import TpccExecutor

        executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=29)
        before = small_tpcc_db.wal.bytes_written
        executor.new_order()
        assert small_tpcc_db.wal.bytes_written > before


class TestExamples:
    @pytest.mark.parametrize(
        "script", sorted((ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
    )
    def test_runs_from_any_directory(self, script, tmp_path):
        """Every example is a runnable demo with its default arguments."""
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr

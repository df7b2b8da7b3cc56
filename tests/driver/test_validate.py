"""Predicted-vs-measured validation against the exact MVA model."""

import json

import pytest

from repro.driver import BenchmarkSpec, run_benchmark, validate_against_mva, validate_reports
from repro.faults.invariants import check_recovery_invariants
from repro.tpcc import TpccConfig, load_tpcc

from .conftest import ytd_state

CONFIG = TpccConfig(
    warehouses=2,
    customers_per_district=30,
    items=200,
    initial_orders_per_district=10,
    pending_orders_per_district=5,
    buffer_pages=300,
)


@pytest.fixture(scope="module")
def validation():
    spec = BenchmarkSpec(
        terminals=1, transactions=40, think_time_seconds=0.5, tpcc=CONFIG
    )
    return validate_against_mva(spec, [1, 2, 4])


class TestValidateAgainstMva:
    def test_one_point_per_population(self, validation):
        assert [point.terminals for point in validation.points] == [1, 2, 4]

    def test_single_terminal_tracks_the_model(self, validation):
        # One terminal cannot conflict with itself: MVA's no-contention
        # assumption holds exactly, so the only gap is stochastic think
        # time over a finite run.
        point = validation.points[0]
        assert point.lock_conflicts == 0
        assert point.throughput_ratio == pytest.approx(1.0, abs=0.25)

    def test_measured_never_beats_the_model_by_much(self, validation):
        # MVA is an upper bound up to think-time sampling noise: the
        # real engine only adds contention on top of the demands.
        for point in validation.points:
            assert point.throughput_ratio < 1.3

    def test_light_load_tracks_the_model(self):
        # Four warehouses and a one-second think: up to four terminals
        # meet too rarely for contention to move throughput off MVA.
        spec = BenchmarkSpec(
            terminals=1,
            transactions=60,
            think_time_seconds=1.0,
            seed=0,
            tpcc=TpccConfig(warehouses=4),
        )
        for point in validate_against_mva(spec, [1, 2, 4]).points:
            assert point.throughput_ratio == pytest.approx(1.0, abs=0.35)

    def test_blocking_waits_validate_against_the_model(self):
        """Blocking lock waits run, stay consistent and stay under MVA."""
        spec = BenchmarkSpec(
            terminals=1,
            transactions=40,
            think_time_seconds=0.5,
            tpcc=CONFIG,
            lock_timeout_seconds=0.2,
        )
        reports = []
        for terminals in (1, 4):
            db = load_tpcc(CONFIG)
            before = ytd_state(db, CONFIG.warehouses)
            report = run_benchmark(spec.replace(terminals=terminals), db=db)
            assert report.committed + report.gave_up == spec.transactions
            for warehouse, (w_ytd, d_total) in ytd_state(db, CONFIG.warehouses).items():
                w_before, d_before = before[warehouse]
                assert w_ytd - w_before == pytest.approx(d_total - d_before)
            check_recovery_invariants(db).raise_if_violated()
            reports.append(report)
        assert reports[0].lock_waits == 0  # one terminal never waits on itself
        for point in validate_reports(reports).points:
            assert point.throughput_ratio < 1.3

    def test_render_and_round_trip(self, validation):
        assert "measured vs exact MVA" in validation.render()
        data = validation.to_dict()
        assert data["kind"] == type(validation).__name__
        assert json.loads(json.dumps(data)) == data

"""Predicted-vs-measured validation against the exact MVA model."""

import pytest

from repro.driver import BenchmarkSpec, validate_against_mva
from repro.tpcc import TpccConfig

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

    def test_rejects_wall_clock_scheduler(self):
        spec = BenchmarkSpec(scheduler="threads", tpcc=CONFIG)
        with pytest.raises(ValueError, match="virtual"):
            validate_against_mva(spec, [1, 2])

    def test_render_and_round_trip(self, validation):
        assert "measured vs exact MVA" in validation.render()
        restored = type(validation).from_dict(validation.to_dict())
        assert restored == validation

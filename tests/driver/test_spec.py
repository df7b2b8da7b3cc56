"""BenchmarkSpec construction, validation, and replacement."""

import dataclasses

import pytest

from repro.driver import BenchmarkSpec
from repro.workload.mix import TransactionMix


class TestValidation:
    def test_defaults_are_valid(self):
        spec = BenchmarkSpec()
        assert spec.terminals == 8
        assert spec.transactions == 400
        assert spec.duration_seconds is None
        assert spec.scheduler == "virtual"

    def test_is_keyword_only(self):
        with pytest.raises(TypeError):
            BenchmarkSpec(16)  # noqa: the API is kw-only by design

    def test_is_frozen(self):
        spec = BenchmarkSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.terminals = 2  # type: ignore[misc]

    def test_exactly_one_stopping_rule(self):
        with pytest.raises(ValueError, match="exactly one"):
            BenchmarkSpec(transactions=100, duration_seconds=10.0)
        with pytest.raises(ValueError, match="exactly one"):
            BenchmarkSpec(transactions=None, duration_seconds=None)

    def test_duration_mode_is_valid(self):
        spec = BenchmarkSpec(transactions=None, duration_seconds=30.0)
        assert spec.duration_seconds == 30.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"terminals": 0},
            {"transactions": 0},
            {"transactions": None, "duration_seconds": -1.0},
            {"think_time_seconds": -0.1},
            {"keying_time_seconds": -0.1},
            {"scheduler": "fibers"},
            {"scheduler": "threads"},
            {"max_in_flight": 0},
            {"disk_arms": 0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            BenchmarkSpec(**overrides)

    def test_threads_scheduler_was_removed(self):
        with pytest.raises(ValueError, match="threads scheduler was removed"):
            BenchmarkSpec(scheduler="threads")
        assert not hasattr(BenchmarkSpec(), "workers")

    def test_blocking_lock_waits_are_virtual(self):
        spec = BenchmarkSpec(lock_timeout_seconds=0.2, victim_policy="oldest")
        assert spec.scheduler == "virtual" and spec.lock_timeout_seconds == 0.2

    def test_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(
                mix=TransactionMix(
                    new_order=0.9,
                    payment=0.9,
                    order_status=0.0,
                    delivery=0.0,
                    stock_level=0.0,
                )
            )


class TestReplace:
    def test_replace_returns_new_spec(self):
        spec = BenchmarkSpec(terminals=8)
        scaled = spec.replace(terminals=64)
        assert scaled.terminals == 64
        assert spec.terminals == 8
        assert scaled.tpcc == spec.tpcc

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            BenchmarkSpec().replace(terminals=-1)

    def test_cycle_delay(self):
        spec = BenchmarkSpec(think_time_seconds=2.0, keying_time_seconds=0.5)
        assert spec.cycle_delay_seconds == 2.5


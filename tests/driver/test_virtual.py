"""The virtual-time scheduler: determinism, accounting, admission."""

import itertools

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.driver.scheduler import VirtualScheduler
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import TpccExecutor


@pytest.fixture(scope="module")
def report(small_spec_module):
    return run_benchmark(small_spec_module)


CONFIG = TpccConfig(
    warehouses=2,
    customers_per_district=60,
    items=300,
    initial_orders_per_district=25,
    pending_orders_per_district=8,
    buffer_pages=400,
    seed=99,
)


@pytest.fixture(scope="module")
def small_spec_module():
    return BenchmarkSpec(
        terminals=4, transactions=60, think_time_seconds=0.5, tpcc=CONFIG
    )


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, small_spec_module, report):
        again = run_benchmark(small_spec_module)
        assert again.to_dict() == report.to_dict()

    def test_seed_changes_the_run(self, small_spec_module, report):
        other = run_benchmark(small_spec_module.replace(seed=1))
        assert other.elapsed_seconds != report.elapsed_seconds

    def test_report_is_flagged_deterministic(self, report):
        assert report.deterministic


class TestAccounting:
    def test_every_started_transaction_resolves(self, report):
        resolved = report.committed + report.gave_up
        assert resolved == report.spec.transactions

    def test_latency_percentiles_are_ordered(self, report):
        for stats in report.per_tx.values():
            assert 0.0 <= stats.p50_ms <= stats.p95_ms <= stats.p99_ms

    def test_throughput_and_tpmc_consistent(self, report):
        assert report.throughput_tps == pytest.approx(
            report.committed / report.elapsed_seconds
        )
        new_orders = report.summary.executed.get("new_order", 0)
        assert report.tpmc == pytest.approx(
            new_orders / report.elapsed_seconds * 60.0
        )

    def test_station_utilization_is_feasible(self, report):
        assert 0.0 < report.cpu_utilization <= 1.0
        assert 0.0 <= report.disk_utilization <= 1.0
        assert report.cpu_busy_seconds <= report.elapsed_seconds

    def test_conflicts_match_aborts_under_no_wait(self, report):
        # No-wait locking converts every conflict into an abort (and the
        # scheduler never blocks a lock request), so waits stay zero.
        assert report.lock_waits == 0
        assert report.aborts == report.lock_conflicts + report.summary.rolled_back


class TestAdmissionControl:
    def test_max_in_flight_serializes_the_run(self, small_spec_module):
        gated = run_benchmark(small_spec_module.replace(max_in_flight=1))
        # One transaction at a time: no lock conflicts are possible.
        assert gated.lock_conflicts == 0
        assert gated.committed + gated.gave_up == gated.spec.transactions

    def test_duration_mode_stops_the_clock(self, small_spec_module):
        timed = run_benchmark(
            small_spec_module.replace(transactions=None, duration_seconds=5.0)
        )
        assert timed.committed > 0
        # Terminals retire at the deadline; only in-flight work drains.
        assert timed.elapsed_seconds >= 5.0
        assert timed.elapsed_seconds < 15.0


def test_an_exception_out_of_the_loop_closes_leftovers_in_spawn_order(monkeypatch):
    """The closes (and their compensation and ABORT records) follow spawn order.

    Spawn order, not memory addresses: a set of in-flight tasks would
    close them in hash order, which moves from one process to the next.
    """
    spawned = itertools.count()
    closed: list[int] = []
    finished: set[int] = set()
    prepared_steps = TpccExecutor.prepared_steps

    def numbered(self, prepared):
        number = next(spawned)
        inner = prepared_steps(self, prepared)

        def steps():
            try:
                result = yield from inner
            except GeneratorExit:
                closed.append(number)
                raise
            except BaseException:
                finished.add(number)
                raise
            finished.add(number)
            return result

        return steps()

    def boom(self):
        raise RuntimeError("recovery failed")

    monkeypatch.setattr(TpccExecutor, "prepared_steps", numbered)
    monkeypatch.setattr(VirtualScheduler, "_handle_crash", boom)
    spec = BenchmarkSpec(
        terminals=16,
        transactions=200,
        think_time_seconds=0.2,
        crash_at_seconds=1.0,
        tpcc=CONFIG,
    )
    db = load_tpcc(CONFIG)
    with pytest.raises(RuntimeError, match="recovery failed"):
        run_benchmark(spec, db=db)
    leftover = [n for n in range(next(spawned)) if n not in finished]
    assert len(leftover) > 8  # the crash instant found a crowd in flight
    assert closed == leftover  # every leftover closed, oldest spawn first
    assert not any(db.wal.is_active(r.txn_id) for r in db.wal.records())

"""The seeded chaos benchmark: crash + deadlocks + overload, replayed.

The acceptance scenario of the chaos PR: a virtual-time run with many
terminals in flight crashes the database at a fixed virtual instant,
injects deadlock victim picks, and pushes an overload phase through
the admission gate and circuit breaker — and must still lose zero
updates (WAL-implied state plus TPC-C consistency condition 1), emit a
byte-identical :class:`DriverReport` when replayed with the same seed,
and keep tail latency bounded past the knee by shedding instead of
queueing into livelock.
"""

import json

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.faults.invariants import check_recovery_invariants
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import BreakerPolicy, RetryPolicy

from .conftest import ytd_state

CONFIG = TpccConfig(
    warehouses=2,
    customers_per_district=60,
    items=300,
    initial_orders_per_district=25,
    pending_orders_per_district=8,
    buffer_pages=400,
    seed=99,
)

#: ≥16 terminals so the 2.0 s crash lands with a crowd in flight.
CHAOS_SPEC = BenchmarkSpec(
    terminals=20,
    transactions=150,
    think_time_seconds=0.25,
    retry=RetryPolicy(max_attempts=6),
    seed=13,
    tpcc=CONFIG,
    max_in_flight=8,
    queue_deadline_seconds=0.5,
    crash_at_seconds=2.0,
    faults=FaultPlan(
        rules=(
            FaultRule(FaultKind.DEADLOCK, every=40, max_fires=3),
            FaultRule(FaultKind.WAL_APPEND, probability=0.002, max_fires=4),
        ),
        seed=29,
        name="chaos-driver",
    ),
    breaker=BreakerPolicy(
        failure_threshold=8, window_seconds=1.0, cooldown_seconds=2.0
    ),
)


@pytest.fixture(scope="module")
def chaos_report():
    db = load_tpcc(CONFIG)
    before = ytd_state(db, CONFIG.warehouses)
    report = run_benchmark(CHAOS_SPEC, db=db)
    return db, before, report


class TestChaosScenario:
    def test_every_transaction_resolves(self, chaos_report):
        _db, _before, report = chaos_report
        assert report.committed + report.gave_up == CHAOS_SPEC.transactions

    def test_chaos_actually_happened(self, chaos_report):
        """The scenario is not vacuous: crash, deadlocks and shedding all fired."""
        _db, _before, report = chaos_report
        assert report.recovery is not None
        assert report.recovery.at_seconds == CHAOS_SPEC.crash_at_seconds
        assert report.recovery.replayed_records > 0
        assert report.recovery.in_flight_aborted > 0
        assert report.deadlocks.injected == 3
        assert report.deadlocks.victims >= report.deadlocks.injected
        assert report.faults_fired >= report.deadlocks.injected
        assert report.shed.admission > 0
        assert report.shed.max_queue_depth > 0

    def test_zero_lost_updates(self, chaos_report):
        """Consistency condition 1 + WAL-implied state, post-chaos."""
        db, before, _report = chaos_report
        after = ytd_state(db, CONFIG.warehouses)
        for warehouse, (w_ytd, d_total) in after.items():
            w_before, d_before = before[warehouse]
            assert w_ytd - w_before == pytest.approx(d_total - d_before)
        check_recovery_invariants(db).raise_if_violated()

    def test_survives_a_second_crash(self, chaos_report):
        """The post-run state is durable: crash again, nothing moves."""
        db, _before, _report = chaos_report
        state = ytd_state(db, CONFIG.warehouses)
        db.crash()
        db.recover()
        assert ytd_state(db, CONFIG.warehouses) == state


class TestSeededReplay:
    def test_byte_identical_reports(self):
        """Two runs of the same seeded chaos spec serialize identically."""
        first = run_benchmark(CHAOS_SPEC).to_dict()
        second = run_benchmark(CHAOS_SPEC).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


_UNGATED = dict(max_in_flight=None, queue_deadline_seconds=None, breaker=None)

#: CHAOS_SPEC's faults one at a time, each with the counter that shows
#: its fault actually fired.
CELLS = {
    "crash": (
        CHAOS_SPEC.replace(
            faults=FaultPlan(
                rules=(
                    FaultRule(FaultKind.WAL_APPEND, probability=0.002, max_fires=4),
                ),
                seed=14,
                name="crash-noise",
            ),
            **_UNGATED,
        ),
        lambda report: report.recovery.in_flight_aborted,
    ),
    "deadlock": (
        CHAOS_SPEC.replace(
            crash_at_seconds=None,
            faults=FaultPlan(
                rules=(FaultRule(FaultKind.DEADLOCK, every=40, max_fires=3),),
                seed=15,
                name="deadlock-storm",
            ),
            **_UNGATED,
        ),
        lambda report: report.deadlocks.injected,
    ),
    "overload": (
        CHAOS_SPEC.replace(
            terminals=48, think_time_seconds=0.05, crash_at_seconds=None, faults=None
        ),
        lambda report: report.shed.admission,
    ),
}


@pytest.fixture(scope="module", params=sorted(CELLS))
def cell(request):
    spec, fired = CELLS[request.param]
    db = load_tpcc(spec.tpcc)
    before = ytd_state(db, spec.tpcc.warehouses)
    report = run_benchmark(spec, db=db)
    return spec, fired, db, before, report


class TestChaosCells:
    def test_resolves_without_lost_updates(self, cell):
        spec, _fired, db, before, report = cell
        assert report.committed + report.gave_up == spec.transactions
        for warehouse, (w_ytd, d_total) in ytd_state(db, spec.tpcc.warehouses).items():
            w_before, d_before = before[warehouse]
            assert w_ytd - w_before == pytest.approx(d_total - d_before)
        check_recovery_invariants(db).raise_if_violated()

    def test_fault_fired(self, cell):
        _spec, fired, _db, _before, report = cell
        assert fired(report) > 0

    def test_replay_is_byte_identical(self, cell):
        spec, _fired, _db, _before, report = cell
        replay = run_benchmark(spec)
        assert json.dumps(replay.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )


class TestOverloadShedding:
    """Past the knee, the gate sheds instead of queueing into livelock."""

    @staticmethod
    def _spec(**overrides):
        base = dict(
            terminals=48,
            transactions=200,
            think_time_seconds=0.05,  # far past the knee for one CPU
            retry=RetryPolicy(max_attempts=4),
            seed=17,
            tpcc=CONFIG,
        )
        base.update(overrides)
        return BenchmarkSpec(**base)

    def test_p99_bounded_by_shedding(self):
        open_loop = run_benchmark(self._spec())
        gated = run_benchmark(
            self._spec(
                max_in_flight=8,
                queue_deadline_seconds=0.5,
                breaker=BreakerPolicy(
                    failure_threshold=8,
                    window_seconds=1.0,
                    cooldown_seconds=2.0,
                ),
            )
        )
        assert gated.shed.admission > 0

        def worst(report):
            return max(stats.p99_ms for stats in report.per_tx.values())

        assert worst(gated) < worst(open_loop)

    def test_accounting_still_closes_under_shedding(self):
        gated = run_benchmark(
            self._spec(max_in_flight=8, queue_deadline_seconds=0.5)
        )
        assert gated.committed + gated.gave_up == 200
        assert gated.shed.max_queue_depth <= 48


class TestThreadsModeWiring:
    def test_blocking_locks_under_worker_pool(self):
        """lock_timeout routes the pool through the blocking/deadlock path."""
        spec = BenchmarkSpec(
            terminals=4,
            transactions=24,
            think_time_seconds=0.0,
            scheduler="threads",
            workers=4,
            retry=RetryPolicy(max_attempts=8, base_delay=0.001, max_delay=0.01),
            seed=3,
            tpcc=CONFIG,
            lock_timeout_seconds=0.2,
            victim_policy="fewest_locks",
        )
        report = run_benchmark(spec)
        assert report.committed + report.gave_up == 24
        assert report.deadlocks.policy == "fewest_locks"
        # Victims and timeouts are load-dependent, but the counters must
        # be internally consistent: every detection picked one victim.
        assert report.deadlocks.victims == report.deadlocks.detected

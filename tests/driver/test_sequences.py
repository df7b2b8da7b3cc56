"""The statement-sequence protocol between executor and event loop.

A TPC-C profile is a generator that executes one SQL call, yields its
result and is sent it back; ``drain`` runs one on the calling thread,
``VirtualScheduler`` resumes many from one heap.  The digests in
``test_event_loop_identity.py`` pin what a whole run produces; these
tests pin the rules the protocol rests on, one at a time.
"""

import threading

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.driver.scheduler import VirtualScheduler, _Task
from repro.engine.errors import LockConflictError
from repro.engine.wal import LogRecordType
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import RetryPolicy, TpccExecutor, drain
from repro.workload.mix import TransactionType

CONFIG = TpccConfig(
    warehouses=2,
    customers_per_district=60,
    items=300,
    initial_orders_per_district=25,
    pending_orders_per_district=8,
    buffer_pages=400,
    seed=99,
)

#: One terminal, one transaction, no think time: the run's elapsed
#: virtual time is exactly what its statements were charged.
ONE = BenchmarkSpec(terminals=1, transactions=1, think_time_seconds=0.0, tpcc=CONFIG)


def _last_transaction(db) -> int:
    """Id of the most recently begun transaction."""
    return max(
        record.txn_id
        for record in db.wal.records()
        if record.type is LogRecordType.BEGIN
    )


def _prepared(executor, tx):
    """The executor's next prepared input of one type."""
    while True:
        prepared = executor.prepare()
        if prepared.tx is tx:
            return prepared


class _Scripted(TpccExecutor):
    """An executor whose sequences are whatever the test wrote."""

    def __init__(self, script, **kwargs):
        super().__init__(**kwargs)
        self._script = script

    def prepared_steps(self, prepared):
        return self._script(self)


def _run_script(script, db=None):
    """Run one scripted sequence under the scheduler; returns the outcome."""
    db = load_tpcc(CONFIG) if db is None else db
    scheduler = VirtualScheduler(db, ONE)
    executor = _Scripted(script, db=db, config=CONFIG, sleep=scheduler.gate.sleep)
    return scheduler.run([executor])


def test_a_virtual_run_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("the virtual scheduler started a thread")

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = run_benchmark(
        BenchmarkSpec(terminals=8, transactions=40, think_time_seconds=0.2, tpcc=CONFIG)
    )
    assert report.committed + report.gave_up == 40
    assert report.aborts > 0  # retries and back-off sleeps ran on the loop too
    assert threading.active_count() == before


def test_two_statements_in_one_step_raise():
    def forgot_a_yield(executor):
        def profile(self, txn, params):
            txn.select("warehouse", (1,))
            yield txn.select("district", (1, 1))  # the first is still unserved

        executor._profiles = {TransactionType.PAYMENT: profile}
        return executor._transaction(TransactionType.PAYMENT, None)

    db = load_tpcc(CONFIG)
    with pytest.raises(RuntimeError, match="must yield after every statement"):
        _run_script(forgot_a_yield, db)
    # Surfaced after the run; the profile wrapper still rolled it back.
    txn_id = _last_transaction(db)
    assert db.locks.locks_held(txn_id) == 0 and not db.wal.is_active(txn_id)


def test_a_sequence_ending_on_an_unserved_statement_raises():
    def forgot_the_last_yield(executor):
        txn = executor.db.begin("scripted")
        yield txn.select("warehouse", (1,))
        txn.commit()

    with pytest.raises(RuntimeError, match="unserved request"):
        _run_script(forgot_the_last_yield)


def test_a_suspension_without_a_request_costs_no_virtual_time():
    def plain(executor):
        txn = executor.db.begin("scripted")
        yield txn.select("warehouse", (1,))
        yield txn.commit()

    def with_empty_suspensions(executor):
        yield
        txn = executor.db.begin("scripted")
        yield
        yield txn.select("warehouse", (1,))
        yield
        yield
        yield txn.commit()
        yield

    reference = _run_script(plain)
    outcome = _run_script(with_empty_suspensions)
    assert outcome.completed == 1
    assert outcome.elapsed_seconds == reference.elapsed_seconds > 0.0


def test_a_failed_statement_is_served_before_its_abort():
    """Four suspensions, four requests: the failure's and the abort's are two."""
    db = load_tpcc(CONFIG)
    scheduler = VirtualScheduler(db, ONE)
    gate = scheduler.gate
    db.attach_injector(
        FaultInjector(
            FaultPlan(rules=(FaultRule(FaultKind.LOCK_CONFLICT, at_ops=(3,)),), seed=1)
        )
    )
    executor = TpccExecutor(
        db=db, config=CONFIG, retry_policy=RetryPolicy(max_attempts=1), sleep=gate.sleep
    )
    prepared = _prepared(executor, TransactionType.NEW_ORDER)
    steps = executor.prepared_steps(prepared)
    db.set_statement_gate(gate)
    gate.task = _Task(0, prepared, 0.0, steps)
    requests = []
    with pytest.raises(LockConflictError):
        value = None
        while True:
            value = steps.send(value)
            requests.append(gate.take())
    db.set_statement_gate(None)
    kinds = [request[0] for request in requests]
    assert kinds == ["stmt"] * 4  # select, select, failed update, abort
    txn_id = _last_transaction(db)
    assert not db.wal.is_active(txn_id) and not db.wal.is_committed(txn_id)


@pytest.mark.parametrize(
    "fail_at, steps_taken",
    [
        (None, 7),  # between statements, two inserts and an update done
        (7, 7),  # inside the failure handler, before the abort began
    ],
)
def test_closing_a_suspended_sequence_aborts_its_transaction(fail_at, steps_taken):
    db = load_tpcc(CONFIG)
    if fail_at is not None:
        rule = FaultRule(FaultKind.LOCK_CONFLICT, at_ops=(fail_at,))
        db.attach_injector(FaultInjector(FaultPlan(rules=(rule,), seed=1)))
    executor = TpccExecutor(db=db, config=CONFIG)
    steps = executor.prepared_steps(_prepared(executor, TransactionType.NEW_ORDER))
    value = None
    for _ in range(steps_taken):
        value = steps.send(value)
    txn_id = _last_transaction(db)
    assert db.locks.locks_held(txn_id) > 0 and db.wal.is_active(txn_id)
    records = len(db.wal)

    steps.close()

    assert db.locks.locks_held(txn_id) == 0
    assert not db.wal.is_active(txn_id) and not db.wal.is_committed(txn_id)
    assert db.wal.records()[-1].type is LogRecordType.ABORT
    assert len(db.wal) > records + 1  # compensations for the writes, then ABORT
    assert executor.summary.total == 0 and executor.summary.total_aborted == 0


def test_drain_propagates_a_transient_error_after_exactly_one_abort():
    db = load_tpcc(CONFIG)
    db.attach_injector(
        FaultInjector(
            FaultPlan(rules=(FaultRule(FaultKind.LOCK_CONFLICT, at_ops=(5,)),), seed=1)
        )
    )
    executor = TpccExecutor(
        db=db, config=CONFIG, retry_policy=RetryPolicy(max_attempts=1)
    )
    prepared = _prepared(executor, TransactionType.NEW_ORDER)
    with pytest.raises(LockConflictError):
        drain(executor.prepared_steps(prepared))
    txn_id = _last_transaction(db)
    aborts = [r for r in db.wal.records() if r.type is LogRecordType.ABORT]
    assert [record.txn_id for record in aborts] == [txn_id]
    assert db.locks.locks_held(txn_id) == 0
    summary = executor.summary
    assert (summary.total_aborted, summary.gave_up, summary.retries) == (1, 1, 0)
    # The same input runs clean on the next call: nothing was left behind.
    assert executor.execute_prepared(prepared) is not None


def test_an_exception_out_of_the_loop_closes_every_suspended_sequence(monkeypatch):
    def boom(self):
        raise RuntimeError("recovery failed")

    monkeypatch.setattr(VirtualScheduler, "_handle_crash", boom)
    db = load_tpcc(CONFIG)
    spec = BenchmarkSpec(
        terminals=8,
        transactions=80,
        think_time_seconds=0.2,
        crash_at_seconds=1.0,
        tpcc=CONFIG,
        # Never fires; with an injector attached every attempt holds a
        # fault scope open across its suspensions, closed with it.
        faults=FaultPlan(rules=(FaultRule(FaultKind.WAL_APPEND, at_ops=(10**9,)),)),
    )
    with pytest.raises(RuntimeError, match="recovery failed"):
        run_benchmark(spec, db=db)
    begun = {r.txn_id for r in db.wal.records() if r.type is LogRecordType.BEGIN}
    assert len(begun) > 8  # the crash instant found a crowd in flight
    assert not any(db.wal.is_active(txn_id) for txn_id in begun)
    assert not any(db.locks.locks_held(txn_id) for txn_id in begun)

"""No lost updates under the concurrent driver.

After a driver run every transaction has resolved, so the live heap
must equal the state implied by the WAL (atomicity: aborted work fully
compensated) and TPC-C consistency condition 1 must hold: each
warehouse's ``w_ytd`` delta equals the sum of its districts' ``d_ytd``
deltas, i.e. no payment was half-applied or applied twice despite
lock conflicts, aborts and retries.
"""

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.faults.invariants import check_recovery_invariants
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import RetryPolicy, TpccExecutor

from .conftest import ytd_state


@pytest.mark.parametrize("terminals", [2, 16, 256])
def test_no_lost_updates(terminals):
    config = TpccConfig(
        warehouses=2,
        customers_per_district=60,
        items=300,
        initial_orders_per_district=25,
        pending_orders_per_district=8,
        buffer_pages=400,
        seed=99,
    )
    spec = BenchmarkSpec(
        terminals=terminals,
        transactions=max(60, terminals),
        think_time_seconds=0.25,
        tpcc=config,
    )
    db = load_tpcc(config)
    before = ytd_state(db, config.warehouses)

    report = run_benchmark(spec, db=db)

    assert report.committed + report.gave_up == spec.transactions
    after = ytd_state(db, config.warehouses)
    for warehouse, (w_before, d_before) in before.items():
        w_after, d_after = after[warehouse]
        w_delta = w_after - w_before
        d_delta = d_after - d_before
        assert w_delta == pytest.approx(d_delta), (
            f"warehouse {warehouse}: w_ytd moved {w_delta} but districts "
            f"moved {d_delta} — a payment was lost or double-applied"
        )

    # Atomicity: the live heap equals backup + WAL history, so every
    # aborted or retried transaction was fully compensated.
    check_recovery_invariants(db).raise_if_violated()


def _history_ids(db):
    return sorted(key[0] for key in db.table("history").primary_keys())


def test_same_spec_twice_on_one_database(small_spec):
    """The second run used to die with ``DuplicateKeyError history``.

    Terminal ``t`` of ``n`` numbers its History rows ``base + 1 + t + k*n``;
    ``base`` was the row count at construction, which lands among the
    first run's strided ids.  It is now the largest id present, rounded
    up to the stride.
    """
    # Terminals retry until they commit, so "everything commits" is exact.
    spec = small_spec.replace(retry=RetryPolicy(max_attempts=200, max_delay=1.0))
    db = load_tpcc(spec.tpcc)
    first = run_benchmark(spec, db=db)
    after_first = _history_ids(db)
    second = run_benchmark(spec, db=db)
    for report in (first, second):
        assert (report.committed, report.gave_up) == (spec.transactions, 0)
    ids = _history_ids(db)
    payments = sum(report.summary.executed["payment"] for report in (first, second))
    assert len(ids) == len(set(ids)) == payments
    assert min(set(ids) - set(after_first)) > max(after_first)
    for w_ytd, d_total in ytd_state(db, spec.tpcc.warehouses).values():
        assert w_ytd == pytest.approx(d_total)
    check_recovery_invariants(db).raise_if_violated()


def test_history_ids_start_past_the_largest_present(small_spec):
    db = load_tpcc(small_spec.tpcc)

    def first_id(offset, stride):
        executor = TpccExecutor(
            db=db, config=small_spec.tpcc, history_offset=offset, history_stride=stride
        )
        return executor._history_next

    # Nothing loaded: the ids a fresh database always got.
    assert [first_id(t, 4) for t in range(4)] == [1, 2, 3, 4]
    columns = ("h_c_id", "h_c_d_id", "h_c_w_id", "h_d_id", "h_w_id", "h_date")
    txn = db.begin()
    txn.insert("history", {**dict.fromkeys(columns, 1), "h_id": 18, "h_amount": 1.0, "h_data": "x"})
    txn.commit()
    # 18 rounds up to 20; terminal t continues on its own residue class.
    assert [first_id(t, 4) for t in range(4)] == [21, 22, 23, 24]
    assert first_id(0, 1) == 19

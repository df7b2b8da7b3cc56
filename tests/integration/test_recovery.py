"""Failure-injection tests: crash/recovery under the TPC-C workload."""

import pytest

from repro.engine.btree import BPlusTree
from repro.tpcc import TpccConfig, TpccExecutor, load_tpcc


@pytest.fixture
def loaded():
    config = TpccConfig(
        warehouses=1,
        customers_per_district=30,
        items=120,
        initial_orders_per_district=12,
        pending_orders_per_district=4,
        buffer_pages=200,
        seed=77,
    )
    return load_tpcc(config), config


def snapshot(db):
    """Deterministic digest of all committed table contents."""
    digest = {}
    for name in db.table_names():
        rows = sorted(
            (tuple(sorted(row.items())) for _, row in db.table(name).scan()),
        )
        digest[name] = rows
    return digest


class TestCrashDuringWorkload:
    def test_committed_workload_survives(self, loaded):
        db, config = loaded
        executor = TpccExecutor(db=db, config=config, seed=1)
        executor.run_mix(transactions=60)
        expected = snapshot(db)
        db.simulate_crash()
        db.recover()
        assert snapshot(db) == expected

    def test_repeated_crashes_idempotent(self, loaded):
        db, config = loaded
        executor = TpccExecutor(db=db, config=config, seed=2)
        executor.run_mix(transactions=30)
        expected = snapshot(db)
        for _ in range(3):
            db.simulate_crash()
            db.recover()
        assert snapshot(db) == expected

    def test_in_flight_transaction_rolled_back(self, loaded):
        db, config = loaded
        executor = TpccExecutor(db=db, config=config, seed=3)
        executor.run_mix(transactions=20)
        expected = snapshot(db)

        # Start a transaction by hand and crash mid-flight.
        txn = db.begin("torn")
        txn.update("warehouse", (1,), {"w_ytd": 9_999_999.0})
        txn.insert(
            "history",
            {
                "h_id": 10_000,
                "h_c_id": 1,
                "h_c_d_id": 1,
                "h_c_w_id": 1,
                "h_d_id": 1,
                "h_w_id": 1,
                "h_date": 0,
                "h_amount": 1.0,
                "h_data": "torn",
            },
        )
        db.checkpoint()  # the torn writes reach disk (steal)
        db.simulate_crash()
        db.recover()
        assert snapshot(db) == expected

    def test_workload_continues_after_recovery(self, loaded):
        db, config = loaded
        executor = TpccExecutor(db=db, config=config, seed=4)
        executor.run_mix(transactions=30)
        db.simulate_crash()
        db.recover()
        # A fresh executor must be able to keep processing.
        executor2 = TpccExecutor(db=db, config=config, seed=5)
        summary = executor2.run_mix(transactions=30)
        assert summary.total == 30

    def test_aborted_work_stays_aborted_through_crash(self, loaded):
        db, config = loaded
        executor = TpccExecutor(db=db, config=config, seed=6, rollback_probability=1.0)
        orders_before = db.table("order").row_count
        executor.new_order()  # rolls back
        assert db.table("order").row_count == orders_before
        db.simulate_crash()
        db.recover()
        assert db.table("order").row_count == orders_before


def index_entries(db):
    """Every index's items(): hash indexes as mappings, B+ trees in key order.

    A hash index's key order follows insertion, which recovery (a heap
    scan) cannot know once deletes have freed slots that later inserts
    reused; its postings, the by-name lookup's answer order, stay.
    """
    entries = {}
    for name in db.table_names():
        table = db.table(name)
        for index_name in table.index_names():
            index = table._indexes[index_name]
            items = list(index.items())
            entries[name, index_name] = items if isinstance(index, BPlusTree) else dict(items)
    return entries


class TestIndexesAfterRecovery:
    def test_every_index_comes_back_as_it_was(self, loaded):
        db, config = loaded
        TpccExecutor(db=db, config=config, seed=8).run_mix(transactions=60)
        expected = index_entries(db)
        db.crash()
        db.recover()
        assert index_entries(db) == expected

    def test_name_lookup_keeps_its_posting_order(self, loaded):
        db, config = loaded
        TpccExecutor(db=db, config=config, seed=9).run_mix(transactions=40)
        by_name = db.table("customer")._indexes["by_name"]
        expected = list(by_name.items())
        db.crash()
        db.recover()
        assert list(db.table("customer")._indexes["by_name"].items()) == expected

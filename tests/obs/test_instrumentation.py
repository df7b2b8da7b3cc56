"""Integration tests: the instrumented seams record what really happened.

The headline check is the ISSUE acceptance criterion: with metrics
enabled on a seeded simulation run, the buffer counters reconcile
*exactly* with the miss rates the simulator reports, and the per-
transaction-type histograms are populated for all five TPC-C
transactions.
"""

import pytest

from repro.buffer.simulator import BufferSimulation, SimulationConfig
from repro.engine.catalog import TableSchema, integer
from repro.engine.database import Database
from repro.obs.metrics import default_registry
from repro.tpcc import TpccExecutor
from repro.workload.trace import TraceConfig

TX_TYPES = ("new_order", "payment", "order_status", "delivery", "stock_level")


@pytest.fixture
def small_sim_config() -> SimulationConfig:
    return SimulationConfig(
        trace=TraceConfig(warehouses=2, seed=7),
        buffer_mb=0.5,
        batches=2,
        batch_size=2000,
        warmup_references=1000,
    )


class TestSimulationReconciliation:
    def test_counters_reconcile_exactly_with_report(self, small_sim_config):
        with default_registry().collecting() as session:
            report = BufferSimulation(small_sim_config).run()
        snapshot = session.snapshot

        for name, entry in report.relations.items():
            assert (
                snapshot.counter_total("sim.buffer.accesses_total", relation=name)
                == entry.accesses
            )
            assert (
                snapshot.counter_total("sim.buffer.misses_total", relation=name)
                == entry.misses
            )
        total_misses = sum(e.misses for e in report.relations.values())
        assert snapshot.counter_total("sim.buffer.misses_total") == total_misses
        assert (
            snapshot.counter_total("sim.transactions_total")
            == report.total_transactions
        )

    def test_run_labels_identify_the_configuration(self, small_sim_config):
        with default_registry().collecting() as session:
            BufferSimulation(small_sim_config).run()
        assert session.snapshot.counter_total(
            "sim.buffer.accesses_total",
            policy="lru",
            packing="sequential",
            buffer_mb="0.5",
        ) > 0

    def test_histograms_cover_all_five_transaction_types(self, small_sim_config):
        with default_registry().collecting() as session:
            BufferSimulation(small_sim_config).run()
        for tx in TX_TYPES:
            assert session.snapshot.histogram_count("sim.tx.page_refs", tx=tx) > 0

    def test_page_ref_histogram_totals_match_transaction_count(
        self, small_sim_config
    ):
        with default_registry().collecting() as session:
            report = BufferSimulation(small_sim_config).run()
        assert (
            session.snapshot.histogram_count("sim.tx.page_refs")
            == report.total_transactions
        )

    def test_disabled_registry_records_nothing(self, small_sim_config):
        BufferSimulation(small_sim_config).run()
        assert default_registry().snapshot().empty


class TestEngineSeams:
    def test_tpcc_run_populates_engine_counters(
        self, small_tpcc_db, small_tpcc_config
    ):
        executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=5)
        with default_registry().collecting() as session:
            executor.new_order()
            executor.payment()
            executor.order_status()
            executor.delivery()
            executor.stock_level()
        snapshot = session.snapshot

        assert snapshot.counter_total("engine.locks.acquisitions_total") > 0
        assert snapshot.counter_total("engine.wal.appends_total") > 0
        assert snapshot.counter_total("engine.wal.bytes_total") > 0
        requests = snapshot.counter_total("engine.buffer.requests_total")
        hits = snapshot.counter_total("engine.buffer.requests_total", outcome="hit")
        misses = snapshot.counter_total(
            "engine.buffer.requests_total", outcome="miss"
        )
        assert requests == hits + misses > 0

    def test_commit_counters_label_each_transaction_type(
        self, small_tpcc_db, small_tpcc_config
    ):
        executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=5)
        with default_registry().collecting() as session:
            executor.new_order()
            executor.payment()
            executor.order_status()
            executor.delivery()
            executor.stock_level()
        for tx in TX_TYPES:
            assert (
                session.snapshot.counter_total("tpcc.tx.commits_total", tx=tx) >= 1
            ), tx
            assert session.snapshot.histogram_count("tpcc.tx.ops", tx=tx) >= 1, tx

    def test_buffer_requests_labeled_by_relation_name(
        self, small_tpcc_db, small_tpcc_config
    ):
        executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=5)
        with default_registry().collecting() as session:
            executor.new_order()
        assert (
            session.snapshot.counter_total(
                "engine.buffer.requests_total", relation="stock"
            )
            > 0
        )

    def test_recovery_replay_counter(self):
        db = Database(buffer_pages=16)
        db.create_table(
            TableSchema("t", [integer("id"), integer("v")], primary_key=("id",))
        )
        txn = db.begin()
        txn.insert("t", {"id": 1, "v": 10})
        txn.commit()
        with default_registry().collecting() as session:
            db.crash()
            db.recover()
        assert session.snapshot.counter_total("engine.wal.replays_total") > 0

"""The executor's keyword-only API surface and driver hooks.

The concurrent driver made ``TpccExecutor``'s constructor keyword-only,
added precomputed transaction
arguments (``prepare``/``execute_prepared``), interleaved h_id streams
for collision-free concurrent payments, and gave ``ExecutionSummary``
a ``merge`` for folding per-terminal summaries.
"""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.tpcc import ExecutionSummary, PreparedTransaction, TpccExecutor
from repro.workload.mix import TransactionMix, TransactionType


class TestKeywordOnlyConstructor:
    def test_keyword_form_is_silent(self, small_tpcc_db, small_tpcc_config):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=5)

    def test_positional_form_is_a_type_error(
        self, small_tpcc_db, small_tpcc_config
    ):
        with pytest.raises(TypeError):
            TpccExecutor(small_tpcc_db, small_tpcc_config, 5)

    def test_missing_db_or_config_is_a_type_error(self, small_tpcc_db):
        with pytest.raises(TypeError):
            TpccExecutor(db=small_tpcc_db)
        with pytest.raises(TypeError):
            TpccExecutor()

    def test_run_mix_positional_count_is_a_type_error(
        self, small_tpcc_db, small_tpcc_config
    ):
        executor = TpccExecutor(
            db=small_tpcc_db, config=small_tpcc_config, seed=5
        )
        with pytest.raises(TypeError):
            executor.run_mix(5)
        with pytest.raises(TypeError):
            executor.run_mix()


class TestPreparedTransactions:
    def test_prepare_then_execute(self, small_tpcc_db, small_tpcc_config):
        executor = TpccExecutor(
            db=small_tpcc_db, config=small_tpcc_config, seed=5
        )
        prepared = executor.prepare()
        assert isinstance(prepared, PreparedTransaction)
        assert isinstance(prepared.tx, TransactionType)
        executor.execute_prepared(prepared)
        assert executor.summary.executed.get(prepared.tx.value, 0) >= 0

    def test_preparation_is_deterministic_per_seed(
        self, small_tpcc_config, small_tpcc_db
    ):
        first = TpccExecutor(
            db=small_tpcc_db, config=small_tpcc_config, seed=5
        ).prepare()
        second = TpccExecutor(
            db=small_tpcc_db, config=small_tpcc_config, seed=5
        ).prepare()
        assert first == second

    def test_prepared_params_are_replayable(
        self, small_tpcc_db, small_tpcc_config
    ):
        executor = TpccExecutor(
            db=small_tpcc_db, config=small_tpcc_config, seed=5
        )
        # Drive until the sampler yields a payment; its precomputed
        # params must carry the amount the transaction will pay.
        for _ in range(50):
            prepared = executor.prepare()
            if prepared.tx is TransactionType.PAYMENT:
                assert 1.0 <= prepared.params.amount <= 5000.0
                break
        else:  # pragma: no cover - 50 draws without a 44% event
            pytest.fail("sampler never produced a payment")


    def test_a_retried_new_order_commits_the_lines_it_was_prepared_with(
        self, small_tpcc_db, small_tpcc_config
    ):
        # An injected conflict on the fourth lock request aborts the
        # first attempt; the retry runs the same prepared input again.
        small_tpcc_db.attach_injector(
            FaultInjector(
                FaultPlan(rules=(FaultRule(FaultKind.LOCK_CONFLICT, at_ops=(4,)),))
            )
        )
        executor = TpccExecutor(
            db=small_tpcc_db, config=small_tpcc_config, seed=5, sleep=lambda _: None
        )
        only_new_orders = TransactionMix(
            new_order=1.0, payment=0.0, order_status=0.0, delivery=0.0, stock_level=0.0
        )
        prepared = executor.prepare(mix=only_new_orders)
        result = executor.execute_prepared(prepared)
        assert executor.summary.retries == 1
        assert executor.summary.executed == {"new_order": 1}
        params = prepared.params
        lines = sorted(
            (row["ol_number"], row["ol_i_id"], row["ol_supply_w_id"])
            for _, row in small_tpcc_db.table("order_line").scan()
            if (row["ol_w_id"], row["ol_d_id"], row["ol_o_id"])
            == (params.warehouse, params.district, result["o_id"])
        )
        assert lines == [
            (number, line.item_id, line.supply_warehouse)
            for number, line in enumerate(params.lines, start=1)
        ]


class TestHistoryStride:
    def test_interleaved_streams_do_not_collide(
        self, small_tpcc_db, small_tpcc_config
    ):
        before = small_tpcc_db.table("history").row_count
        executors = [
            TpccExecutor(
                db=small_tpcc_db,
                config=small_tpcc_config,
                seed=[0, terminal],
                history_offset=terminal,
                history_stride=3,
            )
            for terminal in range(3)
        ]
        # Interleaved h_id streams: a collision would raise a duplicate-
        # key error on insert, so twelve commits prove disjointness.
        for executor in executors:
            for _ in range(4):
                assert executor.payment() is not None
        assert small_tpcc_db.table("history").row_count == before + 12

    def test_rejects_bad_offset_and_stride(
        self, small_tpcc_db, small_tpcc_config
    ):
        with pytest.raises(ValueError):
            TpccExecutor(
                db=small_tpcc_db, config=small_tpcc_config, history_offset=-1
            )
        with pytest.raises(ValueError):
            TpccExecutor(
                db=small_tpcc_db, config=small_tpcc_config, history_stride=0
            )


class TestSummaryMerge:
    def test_merge_folds_counts(self):
        left = ExecutionSummary(
            executed={"new_order": 3, "payment": 1},
            rolled_back=1,
            aborted={"delivery": 2},
            retries=4,
            gave_up=1,
        )
        right = ExecutionSummary(
            executed={"payment": 2, "stock_level": 5},
            skipped_deliveries=2,
            aborted={"delivery": 1, "new_order": 1},
        )
        merged = left.merge(right)
        assert merged.executed == {
            "new_order": 3,
            "payment": 3,
            "stock_level": 5,
        }
        assert merged.aborted == {"delivery": 3, "new_order": 1}
        assert merged.rolled_back == 1
        assert merged.skipped_deliveries == 2
        assert merged.retries == 4
        assert merged.gave_up == 1

    def test_merge_is_pure(self):
        left = ExecutionSummary(executed={"payment": 1})
        right = ExecutionSummary(executed={"payment": 2})
        left.merge(right)
        assert left.executed == {"payment": 1}
        assert right.executed == {"payment": 2}

    def test_merge_with_empty_is_identity(self):
        summary = ExecutionSummary(executed={"new_order": 2}, retries=1)
        assert summary.merge(ExecutionSummary()) == summary
        assert ExecutionSummary().merge(summary) == summary

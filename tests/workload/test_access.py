"""Unit tests for repro.workload.access (paper Tables 2 and 3)."""

import pytest

from repro.workload.access import (
    AccessKind,
    average_accesses,
    relation_access_entries,
    relation_access_table,
    transaction_call_counts,
    transaction_mix_table,
)
from repro.workload.mix import DEFAULT_MIX, TransactionType


class TestTable2Counts:
    def test_new_order(self):
        counts = transaction_call_counts()[TransactionType.NEW_ORDER]
        assert counts.selects == 23
        assert counts.updates == 11
        assert counts.inserts == 12
        assert counts.deletes == 0

    def test_payment(self):
        counts = transaction_call_counts()[TransactionType.PAYMENT]
        assert counts.selects == pytest.approx(4.2)
        assert counts.updates == 3
        assert counts.inserts == 1
        assert counts.non_unique_selects == pytest.approx(0.6)

    def test_order_status(self):
        counts = transaction_call_counts()[TransactionType.ORDER_STATUS]
        # 13.2 counting all three tuples of a name lookup (see notes).
        assert counts.selects == pytest.approx(13.2)
        assert counts.updates == 0

    def test_delivery(self):
        counts = transaction_call_counts()[TransactionType.DELIVERY]
        assert counts.selects == 130
        assert counts.updates == 120
        assert counts.deletes == 10

    def test_stock_level(self):
        counts = transaction_call_counts()[TransactionType.STOCK_LEVEL]
        assert counts.selects == 1
        assert counts.joins == 1

    def test_total_calls(self):
        counts = transaction_call_counts()[TransactionType.NEW_ORDER]
        assert counts.total_calls == 46


class TestTable3Entries:
    def test_every_relation_present(self):
        entries = relation_access_entries()
        assert len(entries) == 9

    def test_stock_entries(self):
        entries = relation_access_entries()["stock"]
        assert str(entries[TransactionType.NEW_ORDER]) == "NU(10)"
        assert str(entries[TransactionType.STOCK_LEVEL]) == "P(200)"

    def test_history_append_only(self):
        entries = relation_access_entries()["history"]
        assert list(entries) == [TransactionType.PAYMENT]
        assert entries[TransactionType.PAYMENT].kind is AccessKind.APPEND


class TestAverages:
    @pytest.mark.parametrize(
        "relation, expected",
        [("warehouse", 0.87), ("stock", 12.3), ("item", 4.3), ("history", 0.44)],
    )
    def test_with_appends(self, relation, expected):
        # History: one append per Payment = 0.44 with the assumed mix
        # (the paper's Table 3 prints 0.43).
        assert average_accesses(relation) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize(
        "relation, paper_value",
        [("order", 0.53), ("new_order", 0.49), ("order_line", 13.3)],
    )
    def test_paper_convention_excludes_appends(self, relation, paper_value):
        assert average_accesses(relation, include_appends=False) == pytest.approx(
            paper_value, abs=0.11
        )

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            average_accesses("nonexistent")

    def test_custom_mix_changes_average(self):
        from repro.workload.mix import TransactionMix

        heavy_delivery = TransactionMix.from_percent(
            new_order=43, payment=44, order_status=3, delivery=6, stock_level=4
        )
        assert average_accesses("order_line", heavy_delivery) > average_accesses(
            "order_line", DEFAULT_MIX
        )


class TestTableRendering:
    def test_table3_rows(self):
        rows = relation_access_table()
        assert len(rows) == 9
        stock_row = next(row for row in rows if row["relation"] == "stock")
        assert stock_row["new_order"] == "NU(10)"
        customer_row = next(row for row in rows if row["relation"] == "customer")
        assert customer_row["payment"] == customer_row["order_status"] == "NU(2.2)"
        assert stock_row["average"] == pytest.approx(12.3, abs=0.01)

    def test_table2_rows(self):
        rows = transaction_mix_table()
        assert [row["transaction"] for row in rows] == [
            "new_order",
            "payment",
            "order_status",
            "delivery",
            "stock_level",
        ]
        assert rows[0]["assumed %"] == 43.0
        assert rows[1]["selects"] == 4.2  # the census's float sum, rounded for display

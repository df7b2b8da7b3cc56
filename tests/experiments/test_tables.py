"""Fidelity tests for the table experiments."""

import pytest

from repro.experiments.runner import run_experiment


class TestTable1:
    def test_geometry_matches_paper(self):
        result = run_experiment("table1")
        rows = {row["relation"]: row for row in result.rows}
        expected = {
            "warehouse": 46,
            "district": 43,
            "customer": 6,
            "stock": 13,
            "item": 49,
            "order": 170,
            "new_order": 512,
            "order_line": 75,
            "history": 89,
        }
        for relation, tuples in expected.items():
            assert rows[relation]["tuples per 4K page"] == tuples

    def test_cardinalities_at_twenty_warehouses(self):
        rows = {row["relation"]: row for row in run_experiment("table1").rows}
        assert rows["stock"]["cardinality"] == 2_000_000
        assert rows["customer"]["cardinality"] == 600_000
        assert rows["item"]["cardinality"] == 100_000


class TestTable2:
    def test_headline_matches_paper(self):
        result = run_experiment("table2")
        for key, paper in result.paper_reference.items():
            assert result.headline[key] == pytest.approx(paper)


class TestTable3:
    def test_averages_close_to_paper(self):
        result = run_experiment("table3")
        assert result.headline["warehouse avg"] == pytest.approx(0.87, abs=0.01)
        assert result.headline["stock avg"] == pytest.approx(12.4, abs=0.15)
        assert result.headline["order avg (no appends)"] == pytest.approx(
            0.53, abs=0.02
        )


class TestTable4:
    def test_all_operations_rendered(self):
        result = run_experiment("table4")
        operations = {row["operation"] for row in result.rows}
        assert {"select", "update", "insert", "commit", "diskIO"} <= operations

    def test_disk_row_reflects_miss_rates(self):
        rows = {row["operation"]: row for row in run_experiment("table4").rows}
        # mc + 10(mi + ms) = 0.5 + 10 * 0.4 = 4.5 at the reference rates.
        assert rows["diskIO"]["new_order"] == pytest.approx(4.5)


class TestTables67:
    def test_appendix_terms_present(self):
        result = run_experiment("tables6_7")
        assert result.headline["U_stock"] > 0.0
        assert result.headline["L_stock"] < 1.0

    def test_replication_reduces_new_order_messages(self):
        rows = {row["operation"]: row for row in run_experiment("tables6_7").rows}
        send = rows["send/receive"]
        assert send["NewOrder (no repl.)"] > send["NewOrder (replicated)"]

"""Unit tests for repro.tpcc.loader."""

import pytest

from repro.tpcc.loader import TpccConfig, last_name, load_tpcc


class TestLastName:
    def test_known_values(self):
        assert last_name(0) == "BARBARBAR"
        assert last_name(371) == "PRICALLYOUGHT"
        assert last_name(999) == "EINGEINGEING"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            last_name(-1)


class TestConfig:
    def test_defaults_valid(self):
        TpccConfig()

    def test_customers_divisible_by_three(self):
        with pytest.raises(ValueError, match="divisible"):
            TpccConfig(customers_per_district=100)

    def test_pending_bounded(self):
        with pytest.raises(ValueError, match="pending"):
            TpccConfig(initial_orders_per_district=5, pending_orders_per_district=6)

    def test_customers_must_be_positive(self):
        # Zero is divisible by three; the loader used to divide by it.
        with pytest.raises(ValueError, match="customers_per_district must be positive"):
            TpccConfig(
                customers_per_district=0,
                initial_orders_per_district=0,
                pending_orders_per_district=0,
            )

    def test_initial_orders_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            TpccConfig(initial_orders_per_district=-1, pending_orders_per_district=0)

    def test_pending_orders_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            TpccConfig(pending_orders_per_district=-1)

    def test_items_per_order_at_least_one(self):
        with pytest.raises(ValueError, match="items_per_order must be positive"):
            TpccConfig(items_per_order=0)

    def test_buffer_pages_at_least_one(self):
        with pytest.raises(ValueError, match="buffer_pages must be positive"):
            TpccConfig(buffer_pages=0)

    def test_initial_orders_bounded_by_customers(self):
        # Each customer has at most one initial order (a permutation).
        TpccConfig(customers_per_district=30, initial_orders_per_district=30)
        with pytest.raises(ValueError, match="cannot exceed customers_per_district"):
            TpccConfig(customers_per_district=30, initial_orders_per_district=31)

    def test_unique_names(self):
        assert TpccConfig(customers_per_district=90).unique_names == 30

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            TpccConfig(3)  # noqa: B026 - deliberate positional misuse

    def test_replace_revalidates(self):
        base = TpccConfig(warehouses=4)
        derived = base.replace(warehouses=7)
        assert derived.warehouses == 7
        assert base.warehouses == 4
        with pytest.raises(ValueError, match="divisible"):
            base.replace(customers_per_district=100)


class TestLoadedDatabase:
    def test_cardinalities(self, small_tpcc_db, small_tpcc_config):
        cfg = small_tpcc_config
        db = small_tpcc_db
        assert db.table("warehouse").row_count == cfg.warehouses
        assert db.table("district").row_count == cfg.warehouses * 10
        assert (
            db.table("customer").row_count
            == cfg.warehouses * 10 * cfg.customers_per_district
        )
        assert db.table("stock").row_count == cfg.warehouses * cfg.items
        assert db.table("item").row_count == cfg.items

    def test_initial_orders(self, small_tpcc_db, small_tpcc_config):
        cfg = small_tpcc_config
        districts = cfg.warehouses * 10
        assert (
            small_tpcc_db.table("order").row_count
            == districts * cfg.initial_orders_per_district
        )
        assert (
            small_tpcc_db.table("order_line").row_count
            == districts * cfg.initial_orders_per_district * cfg.items_per_order
        )
        assert (
            small_tpcc_db.table("new_order").row_count
            == districts * cfg.pending_orders_per_district
        )

    def test_district_next_order_id(self, small_tpcc_db, small_tpcc_config):
        row = small_tpcc_db.table("district").get((1, 1))
        assert row["d_next_o_id"] == small_tpcc_config.initial_orders_per_district + 1

    def test_three_customers_per_name(self, small_tpcc_db, small_tpcc_config):
        """Every last name in a district is shared by exactly 3 customers."""
        table = small_tpcc_db.table("customer")
        name = last_name(0)
        rids = table.lookup("by_name", (1, 1, name))
        assert len(rids) == 3

    def test_initial_orders_use_distinct_customers(self, small_tpcc_db):
        """The loader permutes customers, so no duplicates early on."""
        customers = [
            row["o_c_id"]
            for _, row in small_tpcc_db.table("order").scan()
            if row["o_w_id"] == 1 and row["o_d_id"] == 1
        ]
        assert len(set(customers)) == len(customers)

    def test_pending_orders_are_most_recent(self, small_tpcc_db, small_tpcc_config):
        cfg = small_tpcc_config
        pending = [
            row["no_o_id"]
            for _, row in small_tpcc_db.table("new_order").scan()
            if row["no_w_id"] == 1 and row["no_d_id"] == 1
        ]
        expected_first = (
            cfg.initial_orders_per_district - cfg.pending_orders_per_district + 1
        )
        assert sorted(pending) == list(
            range(expected_first, cfg.initial_orders_per_district + 1)
        )

    def test_counters_reset_after_load(self, small_tpcc_db):
        assert small_tpcc_db.buffers.stats.accesses() == 0
        assert small_tpcc_db.store.reads == 0

    def test_stock_quantities_in_range(self, small_tpcc_db):
        for _, row in small_tpcc_db.table("stock").scan():
            assert 10 <= row["s_quantity"] <= 100
            break

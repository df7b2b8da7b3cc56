"""TPC-C consistency conditions 1-5 after a run of the executable mix.

The specification's clause 3.3.2 states conditions the database must
satisfy at any quiescent point; the first five tie the warehouse and
district counters to the ORDER, NEW-ORDER and ORDER-LINE rows the
transactions wrote.  They are read off the tables with unlocked scans
once the single client has committed its last transaction.  Conditions
2 and 3 do not apply to the NEW-ORDER rows of a district with no
outstanding new order (clauses 3.3.2.2-3.3.2.3); condition 5 still
checks every order of such a district.
"""

from collections import defaultdict

import pytest

from repro.tpcc import TpccExecutor, load_tpcc


@pytest.fixture(scope="module")
def after_mix(small_tpcc_config):
    """The small database after one client's 600-transaction mix."""
    db = load_tpcc(small_tpcc_config)
    summary = TpccExecutor(db=db, config=small_tpcc_config, seed=5).run_mix(
        transactions=600
    )
    assert summary.total == 600
    return db, small_tpcc_config


def rows(db, table):
    return [row for _, row in db.table(table).scan()]


def by_district(db, table, prefix):
    """``table``'s rows grouped by (warehouse, district)."""
    groups = defaultdict(list)
    for row in rows(db, table):
        groups[row[f"{prefix}_w_id"], row[f"{prefix}_d_id"]].append(row)
    return groups


def districts(config):
    return [
        (w, d)
        for w in range(1, config.warehouses + 1)
        for d in range(1, config.districts + 1)
    ]


def test_the_mix_ran_every_transaction_type(after_mix):
    db, _ = after_mix
    for name in ("new_order", "payment", "order_status", "delivery", "stock_level"):
        assert db.finished_count(name) > 0, name


def test_condition_1_warehouse_ytd_is_the_sum_of_district_ytd(after_mix):
    db, config = after_mix
    district_ytd = defaultdict(float)
    for row in rows(db, "district"):
        district_ytd[row["d_w_id"]] += row["d_ytd"]
    warehouses = rows(db, "warehouse")
    assert len(warehouses) == config.warehouses
    for row in warehouses:
        assert row["w_ytd"] == pytest.approx(district_ytd[row["w_id"]], abs=1e-6)


def test_condition_2_next_order_id_follows_the_newest_order(after_mix):
    db, config = after_mix
    orders = by_district(db, "order", "o")
    pending = by_district(db, "new_order", "no")
    next_ids = {
        (row["d_w_id"], row["d_id"]): row["d_next_o_id"] for row in rows(db, "district")
    }
    assert any(pending[district] for district in districts(config))
    for district in districts(config):
        newest = next_ids[district] - 1
        assert newest == max(row["o_id"] for row in orders[district]), district
        if pending[district]:
            assert newest == max(row["no_o_id"] for row in pending[district]), district


def test_condition_3_new_order_ids_are_contiguous(after_mix):
    db, config = after_mix
    pending = by_district(db, "new_order", "no")
    assert any(pending[district] for district in districts(config))
    for district in districts(config):
        ids = sorted(row["no_o_id"] for row in pending[district])
        if ids:
            assert ids == list(range(ids[0], ids[-1] + 1)), district


def test_condition_4_order_line_counts_match_the_order_lines(after_mix):
    db, config = after_mix
    orders = by_district(db, "order", "o")
    lines = by_district(db, "order_line", "ol")
    for district in districts(config):
        assert sum(row["o_ol_cnt"] for row in orders[district]) == len(lines[district])


def test_condition_5_carrier_is_unset_iff_the_order_is_pending(after_mix):
    db, _ = after_mix
    pending = {
        (row["no_w_id"], row["no_d_id"], row["no_o_id"]) for row in rows(db, "new_order")
    }
    orders = rows(db, "order")
    assert orders
    for row in orders:
        key = (row["o_w_id"], row["o_d_id"], row["o_id"])
        assert (row["o_carrier_id"] == 0) == (key in pending), key

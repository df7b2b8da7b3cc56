"""Stock-Level, the path runs take, against brute force over the tables.

``TpccExecutor._stock_level`` is the only implementation of the
Stock-Level join: a range select over the district's last 20 orders'
lines, then one stock select per distinct item.  These tests recompute
its answer and its statement census by scanning ``order_line`` and
reading ``stock`` directly, sharing no code with the executor.
"""

import pytest

from repro.tpcc import TpccExecutor
from repro.workload.transactions import StockLevelParams


def _recent_lines(db, warehouse, district):
    """Every order line of the district's last 20 orders, by full scan."""
    next_order = db.table("district").get((warehouse, district))["d_next_o_id"]
    return [
        line
        for _, line in db.table("order_line").scan()
        if line["ol_w_id"] == warehouse
        and line["ol_d_id"] == district
        and max(1, next_order - 20) <= line["ol_o_id"] <= next_order - 1
    ]


def _direct_stock_level(db, warehouse, district, threshold):
    """Distinct items of those lines whose stock is below ``threshold``."""
    items = set()
    for line in _recent_lines(db, warehouse, district):
        stock = db.table("stock").get((warehouse, line["ol_i_id"]))
        if stock["s_quantity"] < threshold:
            items.add(line["ol_i_id"])
    return len(items)


@pytest.mark.parametrize("threshold", [15, 50, 101])
@pytest.mark.parametrize("district", [1, 5])
@pytest.mark.parametrize("warehouse", [1, 2])
def test_matches_brute_force(
    small_tpcc_db, small_tpcc_config, warehouse, district, threshold
):
    executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=99)
    result = executor.stock_level(
        params=StockLevelParams(warehouse, district, threshold)
    )
    assert result["low_stock"] == _direct_stock_level(
        small_tpcc_db, warehouse, district, threshold
    )


def test_census_selects_each_distinct_item_once(small_tpcc_db, small_tpcc_config):
    """One join; the district row, every scanned line, one stock row per item."""
    lines = _recent_lines(small_tpcc_db, 1, 1)
    distinct_items = {line["ol_i_id"] for line in lines}
    assert len(distinct_items) < len(lines)  # the range repeats some items

    executor = TpccExecutor(db=small_tpcc_db, config=small_tpcc_config, seed=99)
    executor.stock_level(params=StockLevelParams(1, 1, 15))
    census = small_tpcc_db.census("stock_level")
    assert census.joins == 1
    assert census.selects == 1 + len(lines) + len(distinct_items)

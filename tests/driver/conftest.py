"""Driver-test fixtures.

The suite-wide autouse ``invariant_sanitizer`` (tests/conftest.py) is
shadowed here: it walks the waits-for graph on every acquisition,
which multi-terminal runs make slow, and the driver tests check the
stronger end-state invariants directly (see test_invariants.py).
"""

from __future__ import annotations

import pytest

from repro.constants import DISTRICTS_PER_WAREHOUSE
from repro.driver import BenchmarkSpec
from repro.tpcc import TpccConfig


@pytest.fixture(autouse=True)
def invariant_sanitizer():
    yield None


def ytd_state(db, warehouses: int) -> dict[int, tuple[float, float]]:
    """Per-warehouse (w_ytd, sum of d_ytd) pairs, read transactionally.

    TPC-C consistency condition 1 holds across a run when every
    warehouse's ``w_ytd`` moved by as much as its districts' sum did.
    """
    txn = db.begin("ytd-audit")
    try:
        state = {}
        for warehouse in range(1, warehouses + 1):
            w_ytd = txn.select("warehouse", (warehouse,))["w_ytd"]
            d_total = sum(
                txn.select("district", (warehouse, district))["d_ytd"]
                for district in range(1, DISTRICTS_PER_WAREHOUSE + 1)
            )
            state[warehouse] = (w_ytd, d_total)
    finally:
        txn.commit()
    return state


@pytest.fixture(scope="session")
def small_spec() -> BenchmarkSpec:
    """A laptop-scale spec the virtual-driver tests share."""
    return BenchmarkSpec(
        terminals=4,
        transactions=60,
        think_time_seconds=0.5,
        tpcc=TpccConfig(
            warehouses=2,
            customers_per_district=60,
            items=300,
            initial_orders_per_district=25,
            pending_orders_per_district=8,
            buffer_pages=400,
            seed=99,
        ),
    )

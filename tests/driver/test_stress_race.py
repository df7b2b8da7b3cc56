"""Concurrency stress under the dynamic race detector.

A seeded 64-terminal run on the real-thread worker pool with the
Eraser lockset detector armed: the run must finish with zero candidate
races, zero sanitizer violations, and zero lost updates (TPC-C
consistency condition 1 on the warehouse/district YTD totals).

This module shadows the suite-wide autouse sanitizer: it installs its
own race-detecting one, *before* loading so every engine object is
constructed under instrumentation and its guard locks are tracked.
"""

import pytest

from repro.analysis.sanitizer import InvariantSanitizer
from repro.driver import BenchmarkSpec, run_benchmark
from repro.tpcc import TpccConfig, load_tpcc

from .conftest import ytd_state

CONFIG = TpccConfig(
    warehouses=2,
    customers_per_district=60,
    items=300,
    initial_orders_per_district=25,
    pending_orders_per_district=8,
    buffer_pages=400,
    seed=2024,
)


@pytest.fixture(autouse=True)
def invariant_sanitizer():
    """Shadow the global autouse sanitizer (see module docstring)."""
    yield None


def test_threads_stress_is_race_free():
    """Acceptance: 64 terminals, lockset detector armed, zero races."""
    spec = BenchmarkSpec(
        terminals=64,
        transactions=128,
        think_time_seconds=0.0,
        scheduler="threads",
        workers=8,
        tpcc=CONFIG,
    )
    sanitizer = InvariantSanitizer(race_detection=True)
    with sanitizer:
        db = load_tpcc(CONFIG)
        before = ytd_state(db, CONFIG.warehouses)
        report = run_benchmark(spec, db=db)
        races = list(sanitizer.race_detector.races)
    assert races == []
    sanitizer.check()  # lock leaks, deadlocks, monotone counters, races

    # Zero lost updates: every transaction resolved, and each
    # warehouse's YTD delta equals the sum of its districts' deltas.
    assert report.committed + report.gave_up == spec.transactions
    after = ytd_state(db, CONFIG.warehouses)
    for warehouse, (w_before, d_before) in before.items():
        w_after, d_after = after[warehouse]
        assert w_after - w_before == pytest.approx(d_after - d_before), (
            f"warehouse {warehouse}: a payment was lost or double-applied"
        )


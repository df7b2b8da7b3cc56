"""Unit tests for the metrics registry, instruments and snapshots."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    default_registry,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


class TestDisabledIsNoOp:
    def test_counter_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(5, relation="stock")
        assert counter.value(relation="stock") == 0
        assert registry.snapshot().series == ()

    def test_gauge_and_histogram_record_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        assert registry.snapshot().series == ()

    def test_default_registry_starts_disabled(self):
        assert default_registry().enabled is False

    def test_enabled_flag_is_visible_on_instruments(self, registry):
        assert registry.counter("c").enabled is True
        registry.disable()
        assert registry.counter("c").enabled is False


class TestCounter:
    def test_labeled_increments_accumulate(self, registry):
        counter = registry.counter("c")
        counter.inc(relation="stock")
        counter.inc(2, relation="stock")
        counter.inc(relation="item")
        assert counter.value(relation="stock") == 3
        assert counter.value(relation="item") == 1
        assert counter.value(relation="absent") == 0

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError, match=">= 0"):
            registry.counter("c").inc(-1)

    def test_same_name_returns_same_instrument(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_name_reuse_across_kinds_rejected(self, registry):
        registry.counter("c")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12


class TestHistogram:
    def test_bucketing(self, registry):
        histogram = registry.histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 1, 7, 50, 1000):
            histogram.observe(value)
        (sample,) = registry.snapshot()._find("h")["samples"]
        assert sample["counts"] == [2, 1, 1, 1]  # <=1, <=10, <=100, overflow
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(1058.5)

    def test_count_per_label_set(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(1, tx="payment")
        histogram.observe(2, tx="payment")
        assert histogram.count(tx="payment") == 2
        assert histogram.count(tx="delivery") == 0

    def test_counted_observation_is_that_many_observations(self, registry):
        """``observe(v, count=n)`` leaves the bytes ``n`` calls would."""
        counted = registry.histogram("counted", buckets=(1, 10, 100))
        repeated = registry.histogram("repeated", buckets=(1, 10, 100))
        for value, times in ((7, 3), (50, 1), (1000, 4)):
            counted.observe(value, count=times, tx="payment")
            for _ in range(times):
                repeated.observe(value, tx="payment")
        snapshot = registry.snapshot()
        assert json.dumps(snapshot._find("counted")["samples"]) == json.dumps(
            snapshot._find("repeated")["samples"]
        )

    def test_non_increasing_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h", buckets=(1, 1, 2))


class TestSnapshot:
    def test_json_round_trip(self, registry):
        registry.counter("c").inc(3, a="x")
        registry.histogram("h").observe(4, tx="payment")
        registry.gauge("g").set(2)
        snapshot = registry.snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored == snapshot

    def test_newer_schema_refused(self):
        with pytest.raises(ValueError, match="schema_version"):
            MetricsSnapshot.from_dict({"schema_version": 99, "series": []})

    def test_deterministic_ordering(self):
        left = MetricsRegistry(enabled=True)
        right = MetricsRegistry(enabled=True)
        left.counter("a").inc(1, k="1")
        left.counter("b").inc(2, k="2")
        right.counter("b").inc(2, k="2")  # registered in the other order
        right.counter("a").inc(1, k="1")
        assert left.snapshot().to_json() == right.snapshot().to_json()

    def test_counter_queries(self, registry):
        counter = registry.counter("c")
        counter.inc(3, relation="stock", policy="lru")
        counter.inc(4, relation="item", policy="lru")
        snapshot = registry.snapshot()
        assert snapshot.counter_value("c", relation="stock", policy="lru") == 3
        assert snapshot.counter_value("c", relation="stock") == 0  # exact match
        assert snapshot.counter_total("c", policy="lru") == 7
        assert snapshot.counter_total("c", relation="item") == 4
        assert snapshot.counter_total("absent") == 0

    def test_histogram_count_query(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(1, tx="payment")
        histogram.observe(2, tx="delivery")
        snapshot = registry.snapshot()
        assert snapshot.histogram_count("h") == 2
        assert snapshot.histogram_count("h", tx="payment") == 1

    def test_deterministic_only_filters(self, registry):
        registry.counter("det").inc(1)
        registry.counter("wall", deterministic=False).inc(1)
        filtered = registry.snapshot().deterministic_only()
        assert filtered.names() == ("det",)

    def test_empty_property(self, registry):
        assert registry.snapshot().empty
        registry.counter("c").inc()
        assert not registry.snapshot().empty


class TestSnapshotAlgebra:
    def test_diff_of_equal_snapshots_is_empty(self, registry):
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1)
        snapshot = registry.snapshot()
        assert snapshot.diff(snapshot).series == ()

    def test_diff_subtracts_counters_and_histograms(self, registry):
        counter = registry.counter("c")
        histogram = registry.histogram("h", buckets=(10,))
        counter.inc(2)
        histogram.observe(1)
        baseline = registry.snapshot()
        counter.inc(5)
        histogram.observe(2)
        delta = registry.snapshot().diff(baseline)
        assert delta.counter_value("c") == 5
        assert delta.histogram_count("h") == 1

    def test_diff_keeps_gauge_level(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7)
        baseline = registry.snapshot()
        gauge.set(4)
        assert registry.snapshot().diff(baseline).counter_value("g") == 4

    def test_merge_adds_counters_and_maxes_gauges(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.counter("c").inc(2, w="1")
        b.counter("c").inc(3, w="1")
        b.counter("c").inc(4, w="2")
        a.gauge("g").set(5)
        b.gauge("g").set(2)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counter_value("c", w="1") == 5
        assert merged.counter_value("c", w="2") == 4
        assert merged.counter_value("g") == 5

    def test_merge_adds_histograms(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 2)).observe(2)
        merged = a.snapshot().merge(b.snapshot())
        (sample,) = merged._find("h")["samples"]
        assert sample["count"] == 2
        assert sample["counts"] == [1, 1, 0]


class TestMergeSnapshotIntoRegistry:
    def test_unknown_series_materialized(self):
        worker = MetricsRegistry(enabled=True)
        worker.counter("c", help="w").inc(2, w="1")
        worker.histogram("h", buckets=(5,), deterministic=False).observe(3)
        worker.gauge("g").set(9)
        parent = MetricsRegistry(enabled=False)
        parent.merge_snapshot(worker.snapshot())
        snapshot = parent.snapshot()
        assert snapshot.counter_value("c", w="1") == 2
        assert snapshot.histogram_count("h") == 1
        assert snapshot.counter_value("g") == 9
        # Metadata survived the hop.
        entry = snapshot._find("h")
        assert entry["deterministic"] is False
        assert entry["buckets"] == [5.0]

    def test_merge_accumulates_into_existing(self):
        worker = MetricsRegistry(enabled=True)
        worker.counter("c").inc(2)
        parent = MetricsRegistry(enabled=True)
        parent.counter("c").inc(1)
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        assert parent.snapshot().counter_value("c") == 5

    def test_bucket_scheme_mismatch_rejected(self):
        worker = MetricsRegistry(enabled=True)
        worker.histogram("h", buckets=(1, 2, 3)).observe(1)
        parent = MetricsRegistry(enabled=True)
        parent.histogram("h", buckets=(1, 2)).observe(1)
        with pytest.raises(ValueError, match="bucket scheme mismatch"):
            parent.merge_snapshot(worker.snapshot())


class TestCollectionSession:
    def test_session_diffs_entry_to_exit(self, registry):
        registry.counter("c").inc(10)  # before the session
        with registry.collecting() as session:
            registry.counter("c").inc(3)
        assert session.snapshot.counter_value("c") == 3

    def test_enabled_state_restored(self):
        registry = MetricsRegistry(enabled=False)
        with registry.collecting():
            assert registry.enabled
        assert not registry.enabled

    def test_sequential_sessions_never_double_count(self, registry):
        with registry.collecting() as first:
            registry.counter("c").inc(2)
        with registry.collecting() as second:
            registry.counter("c").inc(5)
        assert first.snapshot.counter_value("c") == 2
        assert second.snapshot.counter_value("c") == 5

    def test_snapshot_taken_even_when_body_raises(self, registry):
        with pytest.raises(RuntimeError):
            with registry.collecting() as session:
                registry.counter("c").inc(4)
                raise RuntimeError("boom")
        assert session.snapshot.counter_value("c") == 4


class TestReset:
    def test_reset_zeroes_but_keeps_registrations(self, registry):
        counter = registry.counter("c")
        counter.inc(3)
        registry.reset()
        assert counter.value() == 0
        assert registry.counter("c") is counter


class TestAsRows:
    def test_rows_cover_every_sample(self, registry):
        registry.counter("c").inc(2, relation="stock")
        registry.histogram("h").observe(3, tx="payment")
        rows = registry.snapshot().as_rows()
        assert {row["metric"] for row in rows} == {"c", "h"}
        counter_row = next(row for row in rows if row["metric"] == "c")
        assert counter_row["labels"] == "relation=stock"
        assert counter_row["value"] == 2
        histogram_row = next(row for row in rows if row["metric"] == "h")
        assert "count=1" in histogram_row["value"]


class TestInstrumentKinds:
    def test_kind_strings(self, registry):
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)
        data = json.loads(registry.snapshot().to_json())
        assert data["series"] == []  # nothing recorded yet


class TestThreadSafety:
    """Regression: increments are read-modify-write and used to race.

    The concurrent driver records into one registry from every worker
    thread; without the per-instrument lock a burst of increments
    loses updates (two threads read the same old value).  These tests
    hammer each instrument from eight threads and require the exact
    total — flaky-by-construction without the lock, deterministic
    with it.
    """

    THREADS = 8
    ROUNDS = 5000

    def _hammer(self, record):
        import threading

        threads = [
            threading.Thread(
                target=lambda: [record() for _ in range(self.ROUNDS)]
            )
            for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_increments_are_not_lost(self, registry):
        counter = registry.counter("c")
        self._hammer(lambda: counter.inc(relation="stock"))
        assert counter.value(relation="stock") == self.THREADS * self.ROUNDS

    def test_gauge_increments_are_not_lost(self, registry):
        gauge = registry.gauge("g")
        self._hammer(lambda: gauge.inc())
        assert gauge.value() == self.THREADS * self.ROUNDS

    def test_histogram_observations_are_not_lost(self, registry):
        histogram = registry.histogram("h")
        self._hammer(lambda: histogram.observe(1.0))
        assert histogram.count() == self.THREADS * self.ROUNDS

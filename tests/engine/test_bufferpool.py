"""Unit tests for repro.engine.bufferpool (the engine's buffer manager)."""

import pytest

from repro.engine.bufferpool import BufferManager
from repro.engine.page import Page, PageId, PageStore
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.obs.metrics import default_registry
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import TpccExecutor


def make_page(payload: bytes = b"12345678") -> Page:
    page = Page(record_size=8)
    page.insert(payload)
    return page


@pytest.fixture
def store():
    store = PageStore()
    for n in range(6):
        store.allocate(PageId(0, n), make_page(bytes([n]) * 8))
    return store


class TestCaching:
    def test_first_get_faults_in(self, store):
        buffers = BufferManager(store, 4)
        buffers.get_page(PageId(0, 0))
        assert store.reads == 1
        assert buffers.stats.miss_rate(0) == 1.0

    def test_second_get_hits(self, store):
        buffers = BufferManager(store, 4)
        buffers.get_page(PageId(0, 0))
        buffers.get_page(PageId(0, 0))
        assert store.reads == 1
        assert buffers.stats.miss_rate(0) == pytest.approx(0.5)

    def test_capacity_enforced(self, store):
        buffers = BufferManager(store, 2)
        for n in range(4):
            buffers.get_page(PageId(0, n))
        assert buffers.resident_pages == 2

    def test_lru_eviction_order(self, store):
        buffers = BufferManager(store, 2)
        buffers.get_page(PageId(0, 0))
        buffers.get_page(PageId(0, 1))
        buffers.get_page(PageId(0, 0))  # refresh 0
        buffers.get_page(PageId(0, 2))  # evicts 1
        assert buffers.is_resident(PageId(0, 0))
        assert not buffers.is_resident(PageId(0, 1))

    def test_invalid_capacity(self, store):
        with pytest.raises(ValueError, match="capacity"):
            BufferManager(store, 0)


class TestDirtyPages:
    def test_write_intent_marks_dirty(self, store):
        buffers = BufferManager(store, 4)
        buffers.get_page(PageId(0, 0), for_write=True)
        assert buffers.is_dirty(PageId(0, 0))

    def test_eviction_writes_back_dirty(self, store):
        buffers = BufferManager(store, 1)
        page = buffers.get_page(PageId(0, 0), for_write=True)
        page.update(0, b"CHANGED!")
        buffers.get_page(PageId(0, 1))  # evicts dirty page 0
        assert store.writes == 1
        assert store.read(PageId(0, 0)).read(0) == b"CHANGED!"

    def test_clean_eviction_no_write(self, store):
        buffers = BufferManager(store, 1)
        buffers.get_page(PageId(0, 0))
        buffers.get_page(PageId(0, 1))
        assert store.writes == 0

    def test_flush_all(self, store):
        buffers = BufferManager(store, 4)
        for n in range(3):
            buffers.get_page(PageId(0, n), for_write=True)
        buffers.flush_all()
        assert store.writes == 3
        assert not buffers.is_dirty(PageId(0, 0))

    def test_flush_page_single(self, store):
        buffers = BufferManager(store, 4)
        buffers.get_page(PageId(0, 0), for_write=True)
        buffers.flush_page(PageId(0, 0))
        assert store.writes == 1
        buffers.flush_page(PageId(0, 0))  # already clean: no-op
        assert store.writes == 1

    def test_mark_dirty_requires_residency(self, store):
        buffers = BufferManager(store, 4)
        with pytest.raises(ValueError, match="resident"):
            buffers.mark_dirty(PageId(0, 0))


class TestNewPage:
    def test_new_page_resident_and_dirty(self, store):
        buffers = BufferManager(store, 4)
        page_id = PageId(1, 0)
        buffers.new_page(page_id, Page(record_size=8))
        assert buffers.is_resident(page_id)
        assert buffers.is_dirty(page_id)
        assert store.reads == 0  # no miss recorded for fresh pages

    def test_new_page_conflict(self, store):
        buffers = BufferManager(store, 4)
        with pytest.raises(ValueError, match="already exists"):
            buffers.new_page(PageId(0, 0), Page(record_size=8))


class TestDropAll:
    def test_drop_flushes_then_empties(self, store):
        buffers = BufferManager(store, 4)
        page = buffers.get_page(PageId(0, 0), for_write=True)
        page.update(0, b"DURABLE!")
        buffers.drop_all()
        assert buffers.resident_pages == 0
        assert store.read(PageId(0, 0)).read(0) == b"DURABLE!"


def defer_first_eviction() -> FaultInjector:
    """An injector whose first ``buffer.evict`` defers the eviction."""
    return FaultInjector(
        FaultPlan(rules=(FaultRule(FaultKind.BUFFER_EVICTION, at_ops=(1,)),))
    )


class TestOrphanedFrames:
    """A deferred eviction leaves a resident frame outside the LRU order."""

    def orphan(self, store) -> BufferManager:
        buffers = BufferManager(store, 2, injector=defer_first_eviction())
        buffers.get_page(PageId(0, 0), for_write=True)
        buffers.get_page(PageId(0, 1))
        buffers.get_page(PageId(0, 2))  # page 0 is the victim; its eviction is deferred
        assert buffers.deferred_evictions == 1
        assert buffers.is_resident(PageId(0, 0))
        assert PageId(0, 0) not in buffers._frames
        assert PageId(0, 0) in buffers._orphans
        assert buffers.resident_pages == 3
        return buffers

    def test_next_access_is_a_hit_and_readmits(self, store):
        buffers = self.orphan(store)
        reads = store.reads
        buffers.get_page(PageId(0, 0))
        assert store.reads == reads  # served from the orphaned frame
        assert buffers.stats.hits == {0: 1}
        assert buffers.stats.total_misses == 3
        assert list(buffers._frames) == [PageId(0, 2), PageId(0, 0)]  # the most recent
        assert not buffers._orphans
        # Re-admission evicted the least recent page (1) for real.
        assert not buffers.is_resident(PageId(0, 1))
        assert buffers.resident_pages == 2

    def test_policy_never_tracks_more_than_capacity(self, store):
        buffers = self.orphan(store)
        for page_no in (0, 3, 0, 1, 2, 4, 5, 0):
            buffers.get_page(PageId(0, page_no))
            assert len(buffers._frames) <= buffers.capacity

    def test_readmitted_orphan_stays_dirty_until_written_back(self, store):
        buffers = self.orphan(store)
        buffers.get_page(PageId(0, 0))
        assert buffers.is_dirty(PageId(0, 0))
        writes = store.writes
        buffers.get_page(PageId(0, 3))
        buffers.get_page(PageId(0, 4))  # evicts page 0, now without a fault
        assert not buffers.is_resident(PageId(0, 0))
        assert store.writes == writes + 1

    def test_checkpoint_writes_the_orphan_back(self, store):
        buffers = self.orphan(store)
        buffers.mark_dirty(PageId(0, 0))  # an orphan is still resident
        writes = store.writes
        buffers.flush_all()
        assert store.writes == writes + 1
        assert not buffers.is_dirty(PageId(0, 0))
        assert buffers.is_resident(PageId(0, 0))  # clean, still an orphan

    def test_drop_all_clears_the_orphan(self, store):
        buffers = self.orphan(store)
        buffers.drop_all()
        assert buffers.resident_pages == 0
        assert not buffers._frames and not buffers._orphans
        assert not buffers.is_dirty(PageId(0, 0))
        buffers.get_page(PageId(0, 0))  # a miss again, and admitted normally
        assert buffers.stats.misses == {0: 4}
        assert list(buffers._frames) == [PageId(0, 0)]


class TestStatsByFile:
    def test_per_file_accounting(self, store):
        store.allocate(PageId(7, 0), make_page())
        buffers = BufferManager(store, 8)
        buffers.get_page(PageId(0, 0))
        buffers.get_page(PageId(7, 0))
        buffers.get_page(PageId(7, 0))
        assert buffers.stats.miss_rate(0) == 1.0
        assert buffers.stats.miss_rate(7) == pytest.approx(0.5)
        assert (buffers.stats.accesses(7), buffers.stats.accesses()) == (2, 3)
        assert buffers.stats.miss_rate(3) == 0.0  # never requested

    def test_reset_stats(self, store):
        buffers = BufferManager(store, 8)
        buffers.get_page(PageId(0, 0))
        buffers.reset_stats()
        assert buffers.stats.accesses() == 0

    def test_evictions_per_file_match_the_metric(self):
        config = TpccConfig(
            warehouses=1,
            customers_per_district=60,
            items=300,
            initial_orders_per_district=25,
            pending_orders_per_district=8,
            buffer_pages=40,
            seed=99,
        )
        db = load_tpcc(config)
        db.buffers.reset_stats()
        executor = TpccExecutor(db=db, config=config, seed=7)
        with default_registry().collecting() as session:
            for _ in range(100):
                executor.execute_prepared(executor.prepare())
        evictions = db.buffers.stats.evictions
        assert sum(evictions.values()) > 0
        assert sum(evictions.values()) == session.snapshot.counter_total(
            "engine.buffer.evictions_total", outcome="evicted"
        )
        db.buffers.reset_stats()
        assert db.buffers.stats.evictions == {}

    def test_deferred_evictions_match_the_metric(self, store):
        buffers = BufferManager(store, 2, injector=defer_first_eviction())
        buffers.name_file(0, "stock")
        with default_registry().collecting() as session:
            for page_no in (0, 1, 2, 3, 4):
                buffers.get_page(PageId(0, page_no), for_write=True)
        assert buffers.deferred_evictions == 1
        snapshot = session.snapshot
        assert snapshot.counter_total(
            "engine.buffer.evictions_total", outcome="deferred"
        ) == buffers.deferred_evictions
        assert snapshot.counter_total(
            "engine.buffer.evictions_total",
            outcome="deferred",
            relation="stock",
            policy="lru",
        ) == buffers.deferred_evictions
        assert snapshot.counter_total(
            "engine.buffer.evictions_total", outcome="evicted", relation="stock"
        ) == sum(buffers.stats.evictions.values()) == 2

    def test_total_misses_is_the_sum_of_misses(self):
        config = TpccConfig(
            warehouses=1,
            customers_per_district=60,
            items=300,
            initial_orders_per_district=25,
            pending_orders_per_district=8,
            buffer_pages=40,
            seed=99,
        )
        db = load_tpcc(config)
        stats = db.buffers.stats
        TpccExecutor(db=db, config=config, seed=7).run_mix(transactions=100)
        assert stats.total_misses > 0
        assert stats.total_misses == sum(stats.misses.values())
        db.buffers.reset_stats()
        assert stats.total_misses == 0 == sum(stats.misses.values())
        TpccExecutor(db=db, config=config, seed=8).run_mix(transactions=20)
        assert stats.total_misses == sum(stats.misses.values()) > 0

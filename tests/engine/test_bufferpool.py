"""Unit tests for repro.engine.bufferpool (the engine's buffer manager)."""

import pytest

from repro.engine.bufferpool import BufferManager
from repro.engine.page import Page, PageId, PageStore
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

"""Unit tests for repro.engine.heap."""

import pytest

from repro.engine.bufferpool import BufferManager
from repro.engine.errors import RecordNotFoundError
from repro.engine.heap import HeapFile, RecordId
from repro.engine.page import PageStore


@pytest.fixture
def heap():
    store = PageStore()
    buffers = BufferManager(store, capacity_pages=16)
    return HeapFile(buffers, file_id=0, record_size=512)


class TestGeometry:
    def test_records_per_page(self, heap):
        # 4096-byte pages, 512-byte records, 8-byte header + slot map -> 7.
        assert heap.records_per_page == 7

    def test_invalid_record_size(self):
        store = PageStore()
        buffers = BufferManager(store, 4)
        with pytest.raises(ValueError, match="record_size"):
            HeapFile(buffers, 0, 0)


class TestInsert:
    def test_first_insert_allocates_page(self, heap):
        rid = heap.insert(b"x" * 512)
        assert rid == RecordId(0, 0)
        assert heap.page_count == 1
        assert len(heap) == 1

    def test_sequential_fill(self, heap):
        rids = [heap.insert(bytes([i]) * 512) for i in range(10)]
        assert heap.page_count == 2  # 7 + 3
        assert rids[6].page_no == 0
        assert rids[7].page_no == 1

    def test_freed_slots_reused_before_allocating(self, heap):
        rids = [heap.insert(b"a" * 512) for _ in range(7)]
        heap.delete(rids[3])
        rid = heap.insert(b"b" * 512)
        assert rid == rids[3]
        assert heap.page_count == 1


class TestReadUpdateDelete:
    def test_round_trip(self, heap):
        rid = heap.insert(b"q" * 512)
        assert heap.read(rid) == b"q" * 512

    def test_update(self, heap):
        rid = heap.insert(b"a" * 512)
        heap.update(rid, b"b" * 512)
        assert heap.read(rid) == b"b" * 512

    def test_delete(self, heap):
        rid = heap.insert(b"a" * 512)
        heap.delete(rid)
        assert len(heap) == 0
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)

    def test_read_missing_page(self, heap):
        with pytest.raises(RecordNotFoundError):
            heap.read(RecordId(5, 0))

    def test_out_of_range_pages_reach_the_store(self, heap):
        """A page number the heap never allocated, negative ones included,
        is not mistaken for an allocated page."""
        heap.insert(b"a" * 512)
        for page_no in (-1, 1):
            rid = RecordId(page_no, 0)
            for request in (heap.read, heap.fetch, heap.delete):
                with pytest.raises(RecordNotFoundError, match="no page"):
                    request(rid)
            with pytest.raises(RecordNotFoundError, match="no page"):
                heap.update(rid, b"b" * 512)
        assert heap.read(RecordId(0, 0)) == b"a" * 512


class TestScan:
    def test_scan_in_page_order(self, heap):
        payloads = [bytes([i]) * 512 for i in range(20)]
        for payload in payloads:
            heap.insert(payload)
        scanned = [record for _, record in heap.scan()]
        assert scanned == payloads

    def test_scan_skips_deleted(self, heap):
        rids = [heap.insert(bytes([i]) * 512) for i in range(5)]
        heap.delete(rids[2])
        scanned = [rid for rid, _ in heap.scan()]
        assert rids[2] not in scanned
        assert len(scanned) == 4


class TestRecoveryHooks:
    def test_apply_put_grows_file(self, heap):
        heap.apply_put(RecordId(3, 2), b"r" * 512)
        assert heap.page_count == 4
        assert heap.read(RecordId(3, 2)) == b"r" * 512

    def test_apply_clear_noop_beyond_file(self, heap):
        heap.apply_clear(RecordId(9, 0))  # silently ignored
        assert heap.page_count == 0

    def test_rebuild_metadata(self, heap):
        rids = [heap.insert(bytes([i]) * 512) for i in range(10)]
        heap.apply_clear(rids[0])
        heap.rebuild_metadata()
        assert len(heap) == 9
        # freed slot is reusable again
        rid = heap.insert(b"z" * 512)
        assert rid == rids[0]


class TestPersistenceThroughBuffer:
    def test_data_survives_eviction(self):
        """A tiny buffer forces evictions; reads must still see all data."""
        store = PageStore()
        buffers = BufferManager(store, capacity_pages=2)
        heap = HeapFile(buffers, 0, record_size=1024)
        rids = [heap.insert(bytes([i]) * 1024) for i in range(12)]  # 4 pages
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i]) * 1024
        assert store.writes > 0  # evictions flushed dirty pages

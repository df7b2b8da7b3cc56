"""Torn-page semantics of the simulated disk.

A torn write (the ``store.write`` fault) lands the first half of the
intended image and keeps the stale tail.  The page is corrupt exactly
when that stored image differs from the intended one: a change confined
to the first half tears cleanly.  These tests pin that rule, the ways
corruption is cleared, the order recovery visits corrupt pages in, and
the page image format they all rest on.
"""

import pytest

from repro.constants import TUPLE_BYTES
from repro.engine.catalog import TableSchema, integer
from repro.engine.database import Database
from repro.engine.errors import CorruptPageError, TornPageWriteError
from repro.engine.page import DEFAULT_PAGE_SIZE, Page, PageId, PageStore
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    check_recovery_invariants,
)

RECORD = 8
#: Page geometry for 8-byte records: 454 slots, the data area starting
#: at byte 462.  Slots below 198 end before the half-page boundary
#: (2048); slots from 199 on lie wholly in the second half.
FIRST_HALF_SLOT = 10
SECOND_HALF_SLOT = 300


def tear_at(*ops: int) -> FaultInjector:
    """An injector that tears the given ``store.write`` operations."""
    return FaultInjector(
        FaultPlan(rules=(FaultRule(FaultKind.TORN_PAGE_WRITE, at_ops=ops),))
    )


def full_page(fill: int = 1) -> Page:
    page = Page(RECORD)
    for n in range(page.capacity):
        page.insert(bytes([(n + fill) % 256]) * RECORD)
    return page


def changed(page: Page, slot: int, byte: int = 0xEE) -> Page:
    """A copy of ``page`` with one live slot overwritten."""
    copy = Page.from_bytes(page.to_bytes())
    copy.update(slot, bytes([byte]) * RECORD)
    return copy


def torn_store(original: Page, intended: Page) -> PageStore:
    """A store whose page (0, 0) went from ``original`` to a torn ``intended``."""
    store = PageStore(injector=tear_at(1))
    store.allocate(PageId(0, 0), original)
    with pytest.raises(TornPageWriteError):
        store.write(PageId(0, 0), intended)
    return store


class TestTearDetection:
    def test_second_half_change_is_corrupt(self):
        original = full_page()
        store = torn_store(original, changed(original, SECOND_HALF_SLOT))
        assert store.is_corrupt(PageId(0, 0))
        assert store.corrupt_page_ids() == (PageId(0, 0),)
        assert (store.writes, store.torn_writes) == (1, 1)
        with pytest.raises(CorruptPageError):
            store.read(PageId(0, 0))

    def test_first_half_change_tears_clean(self):
        original = full_page()
        intended = changed(original, FIRST_HALF_SLOT)
        store = torn_store(original, intended)
        assert store.torn_writes == 1
        assert not store.is_corrupt(PageId(0, 0))
        assert store.corrupt_page_ids() == ()
        assert store.read(PageId(0, 0)).to_bytes() == intended.to_bytes()

    def test_tear_of_a_page_never_stored_keeps_a_zero_tail(self):
        store = PageStore(injector=tear_at(1, 2))
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 0), Page(RECORD))  # all zeros past the header
        assert not store.is_corrupt(PageId(0, 0))
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 1), full_page())
        assert store.corrupt_page_ids() == (PageId(0, 1),)

    def test_unknown_page_is_not_corrupt(self):
        assert not PageStore().is_corrupt(PageId(5, 5))


class TestTearOverTornPage:
    """A second tear keeps the tail the first tear left behind."""

    def setup_store(self, second: Page) -> PageStore:
        original = full_page()
        store = PageStore(injector=tear_at(1, 2))
        store.allocate(PageId(0, 0), original)
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 0), changed(original, SECOND_HALF_SLOT))
        assert store.is_corrupt(PageId(0, 0))
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 0), second)
        return store

    def test_still_corrupt_when_the_intended_tail_differs(self):
        second = changed(full_page(), SECOND_HALF_SLOT, byte=0x11)
        store = self.setup_store(second)
        assert store.torn_writes == 2
        assert store.is_corrupt(PageId(0, 0))

    def test_clean_when_the_intended_tail_is_the_stale_one(self):
        # The original page again, with a first-half change: its tail
        # is exactly what the first tear left on disk.
        second = changed(full_page(), FIRST_HALF_SLOT)
        store = self.setup_store(second)
        assert not store.is_corrupt(PageId(0, 0))
        assert store.read(PageId(0, 0)).to_bytes() == second.to_bytes()

    def test_corrupt_again_after_a_clean_tear(self):
        original = full_page()
        store = PageStore(injector=tear_at(1, 2))
        store.allocate(PageId(0, 0), original)
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 0), changed(original, FIRST_HALF_SLOT))
        assert not store.is_corrupt(PageId(0, 0))
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 0), changed(original, SECOND_HALF_SLOT))
        assert store.is_corrupt(PageId(0, 0))


class TestClearingCorruption:
    def corrupt(self) -> tuple[PageStore, Page]:
        original = full_page()
        store = PageStore(injector=tear_at(1))
        store.allocate(PageId(0, 0), original)
        store.snapshot_backup()
        with pytest.raises(TornPageWriteError):
            store.write(PageId(0, 0), changed(original, SECOND_HALF_SLOT))
        assert store.is_corrupt(PageId(0, 0))
        return store, original

    def test_full_rewrite(self):
        store, original = self.corrupt()
        rewritten = changed(original, SECOND_HALF_SLOT, byte=0x22)
        store.write(PageId(0, 0), rewritten)
        assert store.corrupt_page_ids() == ()
        assert store.read(PageId(0, 0)).to_bytes() == rewritten.to_bytes()

    def test_restore_from_backup(self):
        store, original = self.corrupt()
        assert store.restore_from_backup(PageId(0, 0))
        assert store.corrupt_page_ids() == ()
        assert store.read(PageId(0, 0)).to_bytes() == original.to_bytes()

    def test_restore_without_backup_image_leaves_it_corrupt(self):
        store, _ = self.corrupt()
        assert not store.restore_from_backup(PageId(9, 9))
        assert store.is_corrupt(PageId(0, 0))

    def test_reformat(self):
        store, _ = self.corrupt()
        store.reformat(PageId(0, 0), Page(RECORD))
        assert store.corrupt_page_ids() == ()
        assert store.read(PageId(0, 0)).is_empty


class TestCorruptPageOrder:
    def test_store_order_not_tear_order(self):
        stored = [PageId(3, 0), PageId(1, 7), PageId(2, 2), PageId(0, 9), PageId(1, 1)]
        store = PageStore(injector=tear_at(1, 2, 3, 4))
        for page_id in stored:
            store.allocate(page_id, full_page())
        for page_id in (PageId(1, 1), PageId(0, 9), PageId(3, 0), PageId(1, 7)):
            with pytest.raises(TornPageWriteError):
                store.write(page_id, changed(full_page(), SECOND_HALF_SLOT))
        assert store.corrupt_page_ids() == (
            PageId(3, 0), PageId(1, 7), PageId(0, 9), PageId(1, 1),
        )


SCHEMA = TableSchema(
    "items", [integer("id"), integer("value")], primary_key=("id",)
)


class TestRecovery:
    def test_crash_and_recover_repair_every_torn_page(self):
        # Three 240-record pages; rows 150, 390 and 630 sit in the second
        # half of theirs, so each checkpoint write tears to a corrupt image.
        db = Database(buffer_pages=64)
        db.create_table(SCHEMA)
        for key in range(720):
            db.run(lambda txn, key=key: txn.insert("items", {"id": key, "value": key}))
        db.backup()
        for key in (150, 390, 630):
            db.run(lambda txn, key=key: txn.update("items", (key,), {"value": -key}))
        dirty = [p for p in db.store.page_ids() if db.buffers.is_dirty(p)]
        assert len(dirty) == 3
        db.attach_injector(
            FaultInjector(
                FaultPlan(rules=(FaultRule(FaultKind.TORN_PAGE_WRITE, every=1),))
            )
        )
        for page_id in reversed(dirty):
            with pytest.raises(TornPageWriteError):
                db.buffers.flush_page(page_id)
        corrupt = db.store.corrupt_page_ids()
        assert corrupt == tuple(dirty)  # store order, not tear order
        with pytest.raises(CorruptPageError):
            db.store.read(corrupt[0])
        db.attach_injector(None)
        db.crash()
        db.recover()
        assert db.store.corrupt_page_ids() == ()
        state = {row["id"]: row["value"] for _, row in db.table("items").scan()}
        assert len(state) == 720
        assert [state[key] for key in (150, 390, 630)] == [-150, -390, -630]
        assert check_recovery_invariants(db).ok


class TestPageImage:
    @pytest.mark.parametrize("relation", sorted(TUPLE_BYTES))
    def test_round_trip_every_tpcc_record_size(self, relation):
        record_size = TUPLE_BYTES[relation]
        page = Page(record_size)
        for n in range(page.capacity):
            page.insert(bytes([(7 * n + 3) % 256]) * record_size)
        for slot in range(0, page.capacity, 3):
            page.delete(slot)
        image = page.to_bytes()
        assert len(image) == DEFAULT_PAGE_SIZE
        restored = Page.from_bytes(image)
        assert (restored.record_size, restored.capacity, restored.live_records) == (
            record_size, page.capacity, page.live_records,
        )
        assert list(restored.records()) == list(page.records())
        assert restored.to_bytes() == image
        # The restored page copies its arrays: it does not see later
        # changes to a mutable image.
        buffer = bytearray(image)
        restored = Page.from_bytes(buffer)
        buffer[:] = bytes(len(buffer))
        assert restored.to_bytes() == image

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4096-byte image, got 4095"):
            Page.from_bytes(full_page().to_bytes()[:-1])

    def test_wrong_geometry(self):
        image = bytearray(full_page().to_bytes())
        image[4:6] = (100).to_bytes(2, "little")
        with pytest.raises(
            ValueError, match="image capacity 100 does not match geometry 454"
        ):
            Page.from_bytes(bytes(image))

    def test_zero_record_size(self):
        with pytest.raises(ValueError, match="record_size must be positive"):
            Page.from_bytes(bytes(DEFAULT_PAGE_SIZE))

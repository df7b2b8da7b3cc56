"""Heap files: unordered collections of fixed-length records.

A :class:`HeapFile` owns a contiguous range of page numbers within one
file id and allocates new pages as inserts arrive, tracking pages with
free slots so deleted space is reused.  Records are addressed by
:class:`RecordId` (page number, slot).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.engine.bufferpool import BufferManager
from repro.engine.errors import RecordNotFoundError
from repro.engine.page import Page, PageId


class RecordId(NamedTuple):
    """Stable address of one record within a heap file."""

    page_no: int
    slot: int


class HeapFile:
    """Fixed-length-record heap over a buffer manager.

    The heap appends to the newest page until it fills, preferring
    pages with freed slots when any exist — so sequential loads pack
    tuples in insertion order, exactly the "sequential packing" the
    paper studies.
    """

    def __init__(
        self,
        buffers: BufferManager,
        file_id: int,
        record_size: int,
    ):
        if record_size <= 0:
            raise ValueError(f"record_size must be positive, got {record_size}")
        self._buffers = buffers
        self._file_id = file_id
        self._record_size = record_size
        self._page_count = 0
        # Pages with at least one free slot.
        self._free_pages: set[int] = set()
        self._records_per_page = Page(
            record_size, buffers.store.page_size
        ).capacity
        self._live = 0
        # Slots freed by not-yet-resolved deletes: the page is withheld
        # from allocation so a concurrent insert cannot reuse a slot the
        # deleter's abort may need to restore.  Maps page_no to the
        # reserved slot set plus a count of committed (permanent) frees.
        self._reservations: dict[int, tuple[set[int], list[int]]] = {}

    # -- accessors --------------------------------------------------------------

    @property
    def file_id(self) -> int:
        return self._file_id

    @property
    def record_size(self) -> int:
        return self._record_size

    @property
    def page_count(self) -> int:
        """Pages allocated so far."""
        return self._page_count

    @property
    def records_per_page(self) -> int:
        """Capacity of each page (paper Table 1's tuples-per-page)."""
        return self._records_per_page

    def __len__(self) -> int:
        """Live records in the heap."""
        return self._live

    def rebind(self, buffers: BufferManager) -> None:
        """Point the heap at a new buffer manager (crash simulation)."""
        self._buffers = buffers

    def page_id(self, page_no: int) -> PageId:
        """The global page id of a heap page."""
        if not 0 <= page_no < self._page_count:
            raise ValueError(f"page {page_no} out of range [0, {self._page_count})")
        return PageId(self._file_id, page_no)

    # -- operations --------------------------------------------------------------

    def insert(self, record: bytes) -> RecordId:
        """Store a record, allocating a page if necessary."""
        if self._free_pages:
            page_no = min(self._free_pages)
            page = self._buffers.get_page(PageId(self._file_id, page_no), for_write=True)
        else:
            page_no = self._page_count
            page = self._buffers.new_page(
                PageId(self._file_id, page_no),
                Page(self._record_size, self._buffers.store.page_size),
            )
            self._page_count += 1
            self._free_pages.add(page_no)
        slot = page.insert(record)
        if page.is_full:
            self._free_pages.discard(page_no)
        self._live += 1
        return RecordId(page_no, slot)

    def insert_at(self, rid: RecordId, record: bytes) -> None:
        """Store a record in a specific free slot (transaction undo).

        The page must already exist and the slot must be free; unlike
        the recovery hooks, live-record and free-page bookkeeping are
        maintained.
        """
        if not 0 <= rid.page_no < self._page_count:
            raise RecordNotFoundError(
                f"page {rid.page_no} out of range [0, {self._page_count})"
            )
        page = self._buffers.get_page(PageId(self._file_id, rid.page_no), for_write=True)
        if page.is_live(rid.slot):
            raise ValueError(f"slot {rid} is occupied")
        page.put(rid.slot, record)
        if page.is_full:
            self._free_pages.discard(rid.page_no)
        self._live += 1

    def fetch(self, rid: RecordId, for_write: bool = False) -> Page:
        """The page holding a record: one buffer request.

        A read-modify-write statement reads and overwrites the slot on
        the returned page instead of requesting it once per step.
        """
        return self._buffers.get_page(PageId(self._file_id, rid.page_no), for_write)

    def read(self, rid: RecordId) -> bytes:
        """Fetch a record's bytes."""
        page = self._buffers.get_page(PageId(self._file_id, rid.page_no))
        return page.read(rid.slot)

    def update(self, rid: RecordId, record: bytes) -> None:
        """Overwrite a record in place (fixed length, no moves)."""
        page = self._buffers.get_page(PageId(self._file_id, rid.page_no), for_write=True)
        page.update(rid.slot, record)

    def delete(self, rid: RecordId) -> bytes:
        """Free a record's slot; returns the bytes it held.

        A page with unresolved reservations stays out of the free-page
        set even as more slots free up on it — the page rejoins when
        its last reservation resolves (see :meth:`release`).
        """
        page = self._buffers.get_page(PageId(self._file_id, rid.page_no), for_write=True)
        record = page.read(rid.slot)
        page.delete(rid.slot)
        if rid.page_no not in self._reservations:
            self._free_pages.add(rid.page_no)
        self._live -= 1
        return record

    def reserve(self, rid: RecordId) -> None:
        """Withhold a freed slot from reuse until its delete resolves.

        Called by a transaction right after it frees the slot.  The
        whole page leaves the free-page set, so allocation cannot hand
        the slot (or its neighbours, conservatively) to another
        transaction while the deleter might still abort and restore the
        record into its original slot.
        """
        slots, _ = self._reservations.setdefault(rid.page_no, (set(), [0]))
        slots.add(rid.slot)
        self._free_pages.discard(rid.page_no)

    def release(self, rid: RecordId, freed: bool) -> None:
        """Resolve a reservation: the delete committed (``freed=True``)
        or aborted with the record restored (``freed=False``).

        When a page's last reservation resolves, it rejoins the
        free-page set if at least one resolved delete left a slot
        genuinely free — tracked without touching the page, so releases
        never perturb buffer statistics.
        """
        entry = self._reservations.get(rid.page_no)
        if entry is None:
            return
        slots, committed_frees = entry
        slots.discard(rid.slot)
        if freed:
            committed_frees[0] += 1
        if not slots:
            if committed_frees[0]:
                self._free_pages.add(rid.page_no)
            del self._reservations[rid.page_no]

    def apply_put(self, rid: RecordId, record: bytes) -> None:
        """Recovery hook: force a record into a slot, growing if needed."""
        while rid.page_no >= self._page_count:
            page_no = self._page_count
            self._buffers.new_page(
                PageId(self._file_id, page_no),
                Page(self._record_size, self._buffers.store.page_size),
            )
            self._page_count += 1
        page = self._buffers.get_page(PageId(self._file_id, rid.page_no), for_write=True)
        page.put(rid.slot, record)

    def apply_clear(self, rid: RecordId) -> None:
        """Recovery hook: force a slot free (no-op when already free)."""
        if rid.page_no >= self._page_count:
            return
        page = self._buffers.get_page(PageId(self._file_id, rid.page_no), for_write=True)
        page.clear(rid.slot)

    def rebuild_metadata(self) -> None:
        """Recount live records and free pages after recovery."""
        self._live = 0
        self._free_pages.clear()
        self._reservations.clear()  # crash resolves every in-flight delete
        for page_no in range(self._page_count):
            page = self._buffers.get_page(PageId(self._file_id, page_no))
            self._live += page.live_records
            if not page.is_full:
                self._free_pages.add(page_no)

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Iterate every live record in page order (a full table scan)."""
        for page_no in range(self._page_count):
            page = self._buffers.get_page(PageId(self._file_id, page_no))
            for slot, record in page.records():
                yield RecordId(page_no, slot), record

"""The engine's buffer manager.

Caches deserialized :class:`~repro.engine.page.Page` objects over a
:class:`~repro.engine.page.PageStore`, evicting least-recently-used
pages — the replacement the paper assumes throughout.  Dirty pages are
written back on eviction and on :meth:`flush_all`.

Per-file hit/miss statistics are kept so the executable TPC-C run can
be compared directly against the trace-driven buffer model, with a
running miss total beside them for the scheduler's per-statement
pricing.

The frame table is the LRU order itself (an ordered dict, least recent
first): a hit is one lookup plus ``move_to_end``, and the victim is the
first key.  The only resident frames outside it are the *orphans* of
deferred evictions, kept in their own map: a request finds them there
(only while the map is non-empty) and re-admits them as hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.errors import InjectedFaultError
from repro.engine.page import Page, PageId, PageStore
from repro.obs import instruments


@dataclass
class BufferStatistics:
    """Hit, miss and completed-eviction counters keyed by file id.

    ``evictions`` counts the LRU victims actually written back and
    dropped; a deferred eviction (injected fault) and :meth:`BufferManager.
    drop_all` are not evictions.  The ``engine.buffer.evictions_total``
    metric counts the same events, with deferred ones as their own outcome.
    """

    hits: dict[int, int] = field(default_factory=dict)
    misses: dict[int, int] = field(default_factory=dict)
    evictions: dict[int, int] = field(default_factory=dict)
    #: ``sum(misses.values())``, kept as the misses are counted.
    total_misses: int = 0

    def accesses(self, file_id: int | None = None) -> int:
        """Page requests, for one file or in total."""
        if file_id is None:
            return sum(self.hits.values()) + sum(self.misses.values())
        return self.hits.get(file_id, 0) + self.misses.get(file_id, 0)

    def miss_rate(self, file_id: int) -> float:
        """Miss fraction of one file; 0.0 if it was never requested."""
        total = self.accesses(file_id)
        return self.misses.get(file_id, 0) / total if total else 0.0

    def reset(self) -> None:
        self.hits.clear()
        self.misses.clear()
        self.evictions.clear()
        self.total_misses = 0


class BufferManager:
    """A write-back LRU page cache with statistics.

    Pages are not pinned: a frame can be evicted between operations
    but never during one.

    Eviction is best-effort under fault injection: when the write-back
    of a victim fails with an injected fault (eviction error or torn
    page write), the victim stays resident — and dirty — as an
    *orphaned* frame outside the LRU order.  Orphans are re-admitted on
    their next access and flushed by the next checkpoint, so a
    transient I/O fault degrades to a deferred eviction instead of
    losing an update or corrupting pool state.
    """

    def __init__(self, store: PageStore, capacity_pages: int, injector=None):
        if capacity_pages <= 0:
            raise ValueError(f"capacity_pages must be positive, got {capacity_pages}")
        self._store = store
        self._capacity = capacity_pages
        self._file_names: dict[int, str] = {}
        #: Resident frames in LRU order, least recent first; never more
        #: than ``capacity`` of them.
        self._frames: OrderedDict[PageId, Page] = OrderedDict()
        self._dirty: set[PageId] = set()
        #: Resident frames outside the LRU order (deferred evictions).
        self._orphans: dict[PageId, Page] = {}
        self._stats = BufferStatistics()
        self._injector = injector
        self.deferred_evictions = 0

    def set_injector(self, injector) -> None:
        """Arm (or disarm with None) a fault injector at the eviction seam."""
        self._injector = injector

    def name_file(self, file_id: int, name: str) -> None:
        """Register a relation name for a file id (used as a metric label)."""
        self._file_names[file_id] = name

    def _relation(self, file_id: int) -> str:
        return self._file_names.get(file_id, str(file_id))

    # -- accessors ---------------------------------------------------------------

    @property
    def store(self) -> PageStore:
        return self._store

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def resident_pages(self) -> int:
        return len(self._frames) + len(self._orphans)

    @property
    def stats(self) -> BufferStatistics:
        """Hit/miss counters keyed by file id."""
        return self._stats

    def is_resident(self, page_id: PageId) -> bool:
        return page_id in self._frames or page_id in self._orphans

    def is_dirty(self, page_id: PageId) -> bool:
        return page_id in self._dirty

    # -- page access ----------------------------------------------------------------

    def get_page(self, page_id: PageId, for_write: bool = False) -> Page:
        """Return the cached page, faulting it in from the store if needed."""
        page = self._frames.get(page_id)
        file_id = page_id.file_id
        stats = self._stats
        hit = True
        if page is not None:
            self._frames.move_to_end(page_id)
        elif self._orphans and page_id in self._orphans:
            # An orphaned frame (its eviction write-back failed):
            # re-admit it as the most recent page.
            page = self._orphans.pop(page_id)
            self._install(page_id, page)
        else:
            hit = False
            page = self._store.read(page_id)
            self._install(page_id, page)
            stats.misses[file_id] = stats.misses.get(file_id, 0) + 1
            stats.total_misses += 1
        if hit:
            stats.hits[file_id] = stats.hits.get(file_id, 0) + 1
        if instruments.REGISTRY.enabled:
            instruments.ENGINE_BUFFER_REQUESTS.inc(
                relation=self._relation(file_id),
                policy="lru",
                outcome="hit" if hit else "miss",
            )
        if for_write:
            self._dirty.add(page_id)  # resident: it was just requested
        return page

    def new_page(self, page_id: PageId, page: Page) -> Page:
        """Register a freshly allocated page as resident and dirty.

        The allocation itself is not counted as a miss: no read I/O
        happens for a brand-new page.
        """
        if page_id in self._frames or page_id in self._store:
            raise ValueError(f"page {page_id} already exists")
        self._store.allocate(page_id, page)
        self._install(page_id, page)
        self.mark_dirty(page_id)
        return page

    def mark_dirty(self, page_id: PageId) -> None:
        """Flag a resident page as modified."""
        if not self.is_resident(page_id):
            raise ValueError(f"page {page_id} is not resident")
        self._dirty.add(page_id)

    # -- write-back -------------------------------------------------------------------

    def flush_page(self, page_id: PageId) -> None:
        """Write one dirty resident page back to the store."""
        if page_id in self._dirty:
            page = self._frames.get(page_id)
            self._write_back(page_id, self._orphans[page_id] if page is None else page)

    def flush_all(self) -> None:
        """Write back every dirty page (checkpoint)."""
        for page_id in sorted(self._dirty):
            self.flush_page(page_id)

    def drop_all(self) -> None:
        """Flush and empty the cache (used by recovery tests)."""
        self.flush_all()
        self._frames.clear()
        self._orphans.clear()

    def reset_stats(self) -> None:
        self._stats.reset()

    # -- internal --------------------------------------------------------------------------

    def _install(self, page_id: PageId, page: Page) -> None:
        """Make ``page`` the most recent frame, evicting the least recent."""
        frames = self._frames
        victim = frames.popitem(last=False) if len(frames) >= self._capacity else None
        frames[page_id] = page
        if victim is not None:
            self._evict_victim(*victim)

    def _evict_victim(self, victim: PageId, page: Page) -> None:
        """Write the LRU victim back; it has already left the frame table.

        An injected fault (eviction error or torn write) defers the
        eviction: the frame stays resident and dirty as an orphan, to be
        re-admitted on its next access or flushed at the next checkpoint.
        """
        injector = self._injector
        deferred = injector is not None and injector.fire("buffer.evict") is not None
        if not deferred:
            try:
                self._write_back(victim, page)
            except InjectedFaultError:
                deferred = True
        if deferred:
            self._orphans[victim] = page
            self.deferred_evictions += 1
        else:
            evictions = self._stats.evictions
            evictions[victim.file_id] = evictions.get(victim.file_id, 0) + 1
        if instruments.REGISTRY.enabled:
            instruments.ENGINE_BUFFER_EVICTIONS.inc(
                relation=self._relation(victim.file_id),
                policy="lru",
                outcome="deferred" if deferred else "evicted",
            )

    def _write_back(self, page_id: PageId, page: Page) -> None:
        if page_id in self._dirty:
            self._store.write(page_id, page)
            self._dirty.discard(page_id)

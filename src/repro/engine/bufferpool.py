"""The engine's buffer manager.

Caches deserialized :class:`~repro.engine.page.Page` objects over a
:class:`~repro.engine.page.PageStore`, evicting according to a
pluggable replacement policy (reusing :mod:`repro.buffer.policy`).
Dirty pages are written back on eviction and on :meth:`flush_all`.

Per-file hit/miss statistics are kept so the executable TPC-C run can
be compared directly against the trace-driven buffer model, with a
running miss total beside them for the scheduler's per-statement
pricing.

A hit costs one frame-table lookup plus the policy's ``touch``.  The
only resident frames the policy does not track are the *orphans* of
deferred evictions, kept in their own set: a request finds them there
(only while the set is non-empty) and re-admits them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.buffer.policy import ReplacementPolicy, make_policy
from repro.engine.errors import InjectedFaultError
from repro.engine.page import Page, PageId, PageStore
from repro.obs import instruments


@dataclass
class BufferStatistics:
    """Hit, miss and completed-eviction counters keyed by file id.

    ``evictions`` counts the policy victims actually written back and
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
    """A write-back page cache with replacement and statistics.

    Pages are not pinned: a frame can be evicted between operations
    but never during one.

    Eviction is best-effort under fault injection: when the write-back
    of a victim fails with an injected fault (eviction error or torn
    page write), the victim stays resident — and dirty — as an
    *orphaned* frame the policy has already forgotten.  Orphans are
    re-admitted on their next access and flushed by the next
    checkpoint, so a transient I/O fault degrades to a deferred
    eviction instead of losing an update or corrupting pool state.
    """

    def __init__(
        self,
        store: PageStore,
        capacity_pages: int,
        policy: str | ReplacementPolicy = "lru",
        injector=None,
    ):
        if capacity_pages <= 0:
            raise ValueError(f"capacity_pages must be positive, got {capacity_pages}")
        self._store = store
        if isinstance(policy, str):
            self._policy_name = policy.lower()
            policy = make_policy(policy, capacity_pages)
        else:
            self._policy_name = type(policy).__name__.removesuffix("Policy").lower()
        self._policy = policy
        self._file_names: dict[int, str] = {}
        self._frames: dict[PageId, Page] = {}
        self._dirty: set[PageId] = set()
        #: Resident frames the policy has forgotten (deferred evictions).
        self._orphans: set[PageId] = set()
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
    def policy_name(self) -> str:
        """The replacement policy's name (``"lru"``, ``"clock"``, ...)."""
        return self._policy_name

    @property
    def capacity(self) -> int:
        return self._policy.capacity

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def stats(self) -> BufferStatistics:
        """Hit/miss counters keyed by file id."""
        return self._stats

    def is_resident(self, page_id: PageId) -> bool:
        return page_id in self._frames

    def is_dirty(self, page_id: PageId) -> bool:
        return page_id in self._dirty

    # -- page access ----------------------------------------------------------------

    def get_page(self, page_id: PageId, for_write: bool = False) -> Page:
        """Return the cached page, faulting it in from the store if needed."""
        page = self._frames.get(page_id)
        file_id = page_id.file_id
        stats = self._stats
        hit = page is not None
        if page is not None:
            if self._orphans and page_id in self._orphans:
                # An orphaned frame (its eviction write-back failed):
                # re-adopt it into the policy.
                self._orphans.discard(page_id)
                victim = self._policy.admit(page_id)
            else:
                victim = self._policy.touch(page_id)
            if victim is not None:
                self._evict_victim(victim)
            stats.hits[file_id] = stats.hits.get(file_id, 0) + 1
        else:
            page = self._store.read(page_id)
            self._install(page_id, page)
            stats.misses[file_id] = stats.misses.get(file_id, 0) + 1
            stats.total_misses += 1
        if instruments.REGISTRY.enabled:
            instruments.ENGINE_BUFFER_REQUESTS.inc(
                relation=self._relation(file_id),
                policy=self._policy_name,
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
        if page_id not in self._frames:
            raise ValueError(f"page {page_id} is not resident")
        self._dirty.add(page_id)

    # -- write-back -------------------------------------------------------------------

    def flush_page(self, page_id: PageId) -> None:
        """Write one dirty resident page back to the store."""
        if page_id in self._dirty:
            self._store.write(page_id, self._frames[page_id])
            self._dirty.discard(page_id)

    def flush_all(self) -> None:
        """Write back every dirty page (checkpoint)."""
        for page_id in sorted(self._dirty):
            self.flush_page(page_id)

    def drop_all(self) -> None:
        """Flush and empty the cache (used by recovery tests)."""
        self.flush_all()
        for page_id in list(self._frames):
            self._evict(page_id)

    def reset_stats(self) -> None:
        self._stats.reset()

    # -- internal --------------------------------------------------------------------------

    def _install(self, page_id: PageId, page: Page) -> None:
        victim = self._policy.admit(page_id)
        self._frames[page_id] = page
        if victim is not None:
            self._evict_victim(victim)

    def _evict_victim(self, victim: PageId) -> None:
        """Write a policy-chosen victim back and drop its frame.

        The victim is already gone from the policy.  An injected fault
        (eviction error or torn write) defers the eviction: the frame
        stays resident and dirty as an orphan, to be re-admitted on its
        next access or flushed at the next checkpoint.
        """
        labels = {
            "relation": self._relation(victim.file_id),
            "policy": self._policy_name,
        }
        injector = self._injector
        deferred = injector is not None and injector.fire("buffer.evict") is not None
        if not deferred:
            try:
                self._write_back(victim)
            except InjectedFaultError:
                deferred = True
        if deferred:
            self._orphans.add(victim)
            self.deferred_evictions += 1
            instruments.ENGINE_BUFFER_EVICTIONS.inc(outcome="deferred", **labels)
            return
        del self._frames[victim]
        evictions = self._stats.evictions
        evictions[victim.file_id] = evictions.get(victim.file_id, 0) + 1
        instruments.ENGINE_BUFFER_EVICTIONS.inc(outcome="evicted", **labels)

    def _evict(self, page_id: PageId) -> None:
        self._write_back(page_id)
        if page_id in self._orphans:
            self._orphans.discard(page_id)
        else:
            self._policy.remove(page_id)
        del self._frames[page_id]

    def _write_back(self, page_id: PageId) -> None:
        if page_id in self._dirty:
            self._store.write(page_id, self._frames[page_id])
            self._dirty.discard(page_id)

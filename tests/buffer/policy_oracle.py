"""Page-replacement policies.

The paper assumes LRU for all results and hypothesizes that "more
sophisticated replacement policies could result in an even larger
difference between optimized packing of tuples and non-optimized
packing"; the extra policies here (FIFO, CLOCK, LFU, 2Q and LRU-K)
let the benchmark harness test that hypothesis.

A policy tracks *which* pages are resident and picks victims; the
caller does the hit/miss accounting (``policy_replay.replay``).  All
operations are O(1) or amortized O(log n).

These objects are a test oracle only: nothing under ``src/`` runs
them.  The page key type is deliberately generic (any hashable).  The
simulator's array kernels (:mod:`repro.buffer.kernels`) implement the
same policies over dense page ids, and
``tests/property/test_kernel_parity.py`` holds them to these objects
reference by reference.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from collections.abc import Hashable
from typing import Callable

from repro.errors import InvariantViolationError

PageKey = Hashable


class ReplacementPolicy(ABC):
    """Interface shared by all replacement policies.

    Usage protocol per reference: call :meth:`contains`; on a hit call
    :meth:`touch`; on a miss call :meth:`admit`, which returns the
    evicted page (or None while the pool is filling).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        """Maximum resident pages."""
        return self._capacity

    @abstractmethod
    def __len__(self) -> int:
        """Number of currently resident pages."""

    @abstractmethod
    def contains(self, page: PageKey) -> bool:
        """Whether the page is resident (no side effects)."""

    @abstractmethod
    def touch(self, page: PageKey) -> PageKey | None:
        """Record a hit on a resident page.

        Returns a victim in the rare case the hit itself displaces
        another page (2Q promotion overflow); None otherwise.
        """

    @abstractmethod
    def admit(self, page: PageKey) -> PageKey | None:
        """Bring a non-resident page in; return the victim if one was evicted."""

    @abstractmethod
    def remove(self, page: PageKey) -> None:
        """Forget a resident page without counting it as an eviction."""

    def __contains__(self, page: PageKey) -> bool:
        return self.contains(page)


class LruPolicy(ReplacementPolicy):
    """Least-recently-used — the policy the paper assumes."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._pages: OrderedDict[PageKey, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def contains(self, page: PageKey) -> bool:
        return page in self._pages

    def touch(self, page: PageKey) -> PageKey | None:
        self._pages.move_to_end(page)
        return None

    def admit(self, page: PageKey) -> PageKey | None:
        if page in self._pages:
            raise ValueError(f"page {page!r} is already resident")
        victim = None
        if len(self._pages) >= self._capacity:
            victim, _ = self._pages.popitem(last=False)
        self._pages[page] = None
        return victim

    def remove(self, page: PageKey) -> None:
        del self._pages[page]


class MruPolicy(ReplacementPolicy):
    """Most-recently-used: evicts the *newest* page.

    The pathological-looking dual of LRU is the classic choice for
    cyclic scans larger than the pool (each Stock-Level reads ~200
    order-line/stock tuples): keeping the oldest pages resident
    preserves the scan prefix across iterations where LRU keeps
    nothing.  Included so the policy matrix covers both recency
    extremes.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        # Recency stack, oldest first (deliberately *not* named
        # ``_pages``: parity-test helpers key on the attribute name to
        # recover each policy's eviction order).
        self._stack: OrderedDict[PageKey, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._stack)

    def contains(self, page: PageKey) -> bool:
        return page in self._stack

    def touch(self, page: PageKey) -> PageKey | None:
        self._stack.move_to_end(page)
        return None

    def admit(self, page: PageKey) -> PageKey | None:
        if page in self._stack:
            raise ValueError(f"page {page!r} is already resident")
        victim = None
        if len(self._stack) >= self._capacity:
            victim, _ = self._stack.popitem(last=True)
        self._stack[page] = None
        return victim

    def remove(self, page: PageKey) -> None:
        del self._stack[page]


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: eviction order ignores hits."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._queue: deque[PageKey] = deque()
        self._resident: set[PageKey] = set()

    def __len__(self) -> int:
        return len(self._resident)

    def contains(self, page: PageKey) -> bool:
        return page in self._resident

    def touch(self, page: PageKey) -> PageKey | None:
        return None  # hits do not affect FIFO order

    def admit(self, page: PageKey) -> PageKey | None:
        if page in self._resident:
            raise ValueError(f"page {page!r} is already resident")
        victim = None
        if len(self._resident) >= self._capacity:
            victim = self._queue.popleft()
            self._resident.discard(victim)
        self._queue.append(page)
        self._resident.add(page)
        return victim

    def remove(self, page: PageKey) -> None:
        self._resident.remove(page)
        self._queue.remove(page)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK): a common low-overhead LRU approximation."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._frames: list[PageKey | None] = [None] * capacity
        self._referenced: list[bool] = [False] * capacity
        self._frame_of: dict[PageKey, int] = {}
        self._hand = 0
        self._free_frames: list[int] = []

    def __len__(self) -> int:
        return len(self._frame_of)

    def contains(self, page: PageKey) -> bool:
        return page in self._frame_of

    def touch(self, page: PageKey) -> PageKey | None:
        self._referenced[self._frame_of[page]] = True
        return None

    def admit(self, page: PageKey) -> PageKey | None:
        if page in self._frame_of:
            raise ValueError(f"page {page!r} is already resident")
        if len(self._frame_of) < self._capacity:
            if self._free_frames:
                frame = self._free_frames.pop()
            else:
                frame = len(self._frame_of)
            self._install(page, frame)
            return None
        # Advance the hand, clearing reference bits, until a victim is found.
        while True:
            if self._frames[self._hand] is None:
                self._hand = (self._hand + 1) % self._capacity
                continue
            if self._referenced[self._hand]:
                self._referenced[self._hand] = False
                self._hand = (self._hand + 1) % self._capacity
                continue
            victim = self._frames[self._hand]
            if victim is None:
                raise InvariantViolationError(
                    f"CLOCK hand {self._hand} points at an empty frame "
                    f"despite a full pool"
                )
            del self._frame_of[victim]
            self._install(page, self._hand)
            self._hand = (self._hand + 1) % self._capacity
            return victim

    def remove(self, page: PageKey) -> None:
        frame = self._frame_of.pop(page)
        self._frames[frame] = None
        self._referenced[frame] = False
        self._free_frames.append(frame)

    def _install(self, page: PageKey, frame: int) -> None:
        self._frames[frame] = page
        self._referenced[frame] = False
        self._frame_of[page] = frame


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with lazy heap invalidation.

    Frequency counts persist only while a page is resident (no aging),
    which is the classic in-memory LFU variant.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._counts: dict[PageKey, int] = {}
        self._heap: list[tuple[int, int, PageKey]] = []  # (count, tiebreak, page)
        self._tick = 0

    def __len__(self) -> int:
        return len(self._counts)

    def contains(self, page: PageKey) -> bool:
        return page in self._counts

    def touch(self, page: PageKey) -> PageKey | None:
        count = self._counts[page] + 1
        self._counts[page] = count
        self._tick += 1
        heapq.heappush(self._heap, (count, self._tick, page))
        return None

    def admit(self, page: PageKey) -> PageKey | None:
        if page in self._counts:
            raise ValueError(f"page {page!r} is already resident")
        victim = None
        if len(self._counts) >= self._capacity:
            victim = self._pop_victim()
        self._counts[page] = 1
        self._tick += 1
        heapq.heappush(self._heap, (1, self._tick, page))
        return victim

    def remove(self, page: PageKey) -> None:
        del self._counts[page]  # heap entries become stale and are skipped

    def _pop_victim(self) -> PageKey:
        while True:
            count, _, page = heapq.heappop(self._heap)
            if self._counts.get(page) == count:
                del self._counts[page]
                return page
            # Stale entry: the page was touched again (or already evicted).


class TwoQPolicy(ReplacementPolicy):
    """Simplified 2Q: a FIFO probation queue plus an LRU main queue.

    Pages enter a small FIFO (``A1in``); a second access while resident
    there promotes them to the LRU main queue (``Am``).  Scans that touch
    pages once pass through the probation queue without disturbing the
    hot set — relevant for the Stock-Level transaction's 200-tuple scans.
    """

    def __init__(self, capacity: int, probation_fraction: float = 0.25):
        super().__init__(capacity)
        if not 0 < probation_fraction < 1:
            raise ValueError(
                f"probation_fraction must be in (0, 1), got {probation_fraction}"
            )
        # The two queues partition the capacity exactly; a single-frame
        # pool degenerates to probation-only (touch keeps the page put).
        if capacity > 1:
            self._probation_capacity = max(
                1, min(int(capacity * probation_fraction), capacity - 1)
            )
        else:
            self._probation_capacity = 1
        self._main_capacity = capacity - self._probation_capacity
        self._probation: OrderedDict[PageKey, None] = OrderedDict()
        self._main: OrderedDict[PageKey, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._probation) + len(self._main)

    def contains(self, page: PageKey) -> bool:
        return page in self._probation or page in self._main

    def touch(self, page: PageKey) -> PageKey | None:
        if page in self._main:
            self._main.move_to_end(page)
            return None
        if self._main_capacity == 0:  # degenerate single-frame pool
            self._probation.move_to_end(page)
            return None
        # Promotion: second touch while on probation.
        del self._probation[page]
        victim = None
        if len(self._main) >= self._main_capacity:
            victim, _ = self._main.popitem(last=False)
        self._main[page] = None
        return victim

    def admit(self, page: PageKey) -> PageKey | None:
        if self.contains(page):
            raise ValueError(f"page {page!r} is already resident")
        victim = None
        if len(self._probation) >= self._probation_capacity:
            victim, _ = self._probation.popitem(last=False)
        self._probation[page] = None
        return victim

    def remove(self, page: PageKey) -> None:
        if page in self._probation:
            del self._probation[page]
        else:
            del self._main[page]


class LruKPolicy(ReplacementPolicy):
    """LRU-K (O'Neil, O'Neil & Weikum, SIGMOD 1993 — the paper's era).

    Evicts the page whose K-th most recent reference is oldest; pages
    referenced fewer than K times are preferred victims (oldest first).
    LRU-K discriminates between genuinely hot pages and pages touched
    once by a scan — exactly the "more sophisticated replacement
    policy" the paper hypothesizes would widen the optimized-packing
    gap.  Implemented with a lazily invalidated heap, like LFU.
    """

    def __init__(self, capacity: int, k: int = 2):
        super().__init__(capacity)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        self._history: dict[PageKey, deque[int]] = {}
        self._heap: list[tuple[int, int, PageKey]] = []  # (kth-recent, tick, page)
        self._tick = 0

    @property
    def k(self) -> int:
        return self._k

    def __len__(self) -> int:
        return len(self._history)

    def contains(self, page: PageKey) -> bool:
        return page in self._history

    def _kth_recent(self, history: deque[int]) -> int:
        """Backward-K distance: the K-th most recent reference time.

        Pages with fewer than K references rank below every fully
        referenced page (negative keys ordered by first touch).
        """
        if len(history) >= self._k:
            return history[0]
        return history[0] - (1 << 60)  # prefer evicting, oldest first

    def _record(self, page: PageKey) -> None:
        self._tick += 1
        history = self._history[page]
        history.append(self._tick)
        heapq.heappush(self._heap, (self._kth_recent(history), self._tick, page))

    def touch(self, page: PageKey) -> PageKey | None:
        self._record(page)
        return None

    def admit(self, page: PageKey) -> PageKey | None:
        if page in self._history:
            raise ValueError(f"page {page!r} is already resident")
        victim = None
        if len(self._history) >= self._capacity:
            victim = self._pop_victim()
        self._history[page] = deque(maxlen=self._k)
        self._record(page)
        return victim

    def remove(self, page: PageKey) -> None:
        del self._history[page]  # heap entries go stale and are skipped

    def _pop_victim(self) -> PageKey:
        while True:
            key, _, page = heapq.heappop(self._heap)
            history = self._history.get(page)
            if history is not None and self._kth_recent(history) == key:
                del self._history[page]
                return page
            # Stale: page was re-referenced or already evicted/removed.


#: Registry of policy constructors by name.
POLICY_FACTORIES: dict[str, Callable[[int], ReplacementPolicy]] = {
    "lru": LruPolicy,
    "mru": MruPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
    "lfu": LfuPolicy,
    "2q": TwoQPolicy,
    "lru2": lambda capacity: LruKPolicy(capacity, k=2),
    "lru3": lambda capacity: LruKPolicy(capacity, k=3),
}


def make_policy(name: str, capacity: int) -> ReplacementPolicy:
    """Construct a policy by registry name ("lru", "fifo", "clock", …)."""
    try:
        factory = POLICY_FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_FACTORIES)}"
        ) from None
    return factory(capacity)

"""Dense array kernels for the trace-driven buffer simulator.

The reference policy objects (a test oracle, kept under ``tests/``) pay
per-reference Python overhead: a call on a ``(relation, page)`` tuple
key, an ``OrderedDict`` move-to-end, and dict-based accounting.  The
kernels here run the same replacement algorithms over preallocated
tables indexed by the dense page ids of
:class:`~repro.workload.trace.PageIdSpace`, one
:class:`~repro.workload.stream.EncodedBatch` at a time (the reference
format is :mod:`repro.workload.stream`).
:meth:`ArrayKernel.process_batch` is the only driver: it shifts the
page ids out once, calls the policy's ``_replace`` hook, and folds the
miss positions and victims the hook returns into the counters with
``bincount``.  A hook's loop does replacement and nothing else:

* :class:`LruArrayKernel` — the resident ids in recency order and a
  slot per page, with no per-reference loop: one pass of array ops
  classifies every reference of a slice, the slice-start residents
  included as a virtual prefix (see the class), so hits cost no Python
  work at all.
* :class:`FifoArrayKernel` — a circular buffer of page ids in
  admission order, mirroring ``FifoPolicy``'s deque.
* :class:`ClockArrayKernel` — a ring of frames with reference bits and
  a clock hand, mirroring ``ClockPolicy`` exactly (frames fill in slot
  order before the hand ever moves; a newly admitted page starts with
  its reference bit clear; the hand advances past each victim).
* :class:`LfuArrayKernel` — one packed ``(count, last touch)`` int per
  page, an admission FIFO of the pages still on their first reference
  (they rank below every other page, by admission) and a heap with one
  entry per promoted resident, re-keyed on pop: a hit writes the
  page's int and touches the heap only when it promotes the page.
* :class:`MruArrayKernel` — most-recently-used: the victim is always
  the page of the previous reference, so there is no heap at all.
* :class:`TwoQArrayKernel` — FIFO probation queue plus LRU main queue
  (two ordered dicts), mirroring ``TwoQPolicy`` including the
  promotion-overflow victim that a *hit* can produce.
* :class:`LruKArrayKernel` — backward-K distance over a flat ring of
  K stamps per page, the same admission FIFO for pages with fewer
  than K references and the same re-key-on-pop heap for the rest
  (``lru2``/``lru3`` in the registry).

The contract is **exact parity**: for any reference stream, a kernel
produces the same hit/miss outcome and the same eviction victim on
every reference as its object-policy counterpart in the test oracle
(property-tested in ``tests/property/test_kernel_parity.py``).  Every
reference is processed — there is no sampling or approximation, only
cheaper data structures, and none of them grows past ``capacity``
entries.

Counters are flat lists — per-relation misses for the current batch,
cumulative per-``(transaction, relation)`` misses at stride 16, and
cumulative per-relation eviction tallies — folded into a
:class:`~repro.buffer.simulator.MissRateReport` at batch boundaries.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from typing import Callable, ClassVar

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE
from repro.workload.stream import (
    N_RELATIONS,
    REF_PID_SHIFT,
    RELATION_NAMES,
    EncodedBatch,
    ref_relations,
)
from repro.workload.trace import PageIdSpace

#: Stride of the per-transaction miss counters: transaction ``t`` and
#: relation ``r`` share index ``(t << TX_STRIDE_SHIFT) + r``.
TX_STRIDE_SHIFT = 4

#: Headroom added whenever the per-page tables must grow to cover newly
#: written growing-relation pages.
_PAGE_TABLE_GROWTH = 4096

#: The vectorized LRU pass classifies at most this many references at a
#: time: ``_LRU_SLICE_CAPACITIES`` buffer capacities, and never fewer
#: than ``_LRU_SLICE_FLOOR`` (kernel-only CPU time on a 2-core Xeon: at
#: 3 328 pages 8 and 16 capacities tie at 66 ns/ref and 32, one slice
#: per 100 k batch, costs 14 % more; dist-cluster's 1 024-page node
#: batches cost 12 % more at 8 capacities and 1-6 % more at 24 or 32).
_LRU_SLICE_CAPACITIES = 16
_LRU_SLICE_FLOOR = 8192

#: A heap entry of a promoted page is ``priority << _PAGE_BITS | page
#: id``: one int orders as the ``(priority, page)`` pair would.  (A page
#: id indexes the per-page lists, which cannot reach 2**32 entries.)
_PAGE_BITS = 32
_PAGE_MASK = (1 << _PAGE_BITS) - 1

#: LFU packs ``count << _TICK_BITS | last touch`` the same way; 2**48
#: references are a year of simulation at 100 ns each.
_TICK_BITS = 48
_TICK_MASK = (1 << _TICK_BITS) - 1

#: Cells per axis of the fixed grid that settles most LRU dominance
#: queries before any exact count (:func:`_grid_count_bounds`): over 30
#: batches at 3 328 pages 73 009 queries reach it and 7 274 stay open.
#: 32 and 128 cells were within noise of 64 on fig8 traces, and 128
#: cost 10 % more on dist-cluster's node batches.
_GRID = 64


def _cell_prefix(ranks: np.ndarray, width: int) -> np.ndarray:
    """2D prefix counts of points over square (index, rank) cells.

    Entry ``[a, b]`` counts the points with index below ``a * width``
    and rank below ``b * width`` (``ranks`` as in :func:`_block_count_lt`).
    """
    m = int(ranks.shape[0])
    side = -(-m // width)
    cells = np.arange(m, dtype=np.int64) // width * side + ranks // width
    hist = np.bincount(cells, minlength=side * side).reshape(side, side)
    prefix = np.zeros((side + 1, side + 1), dtype=np.int64)
    prefix[1:, 1:] = hist.cumsum(axis=0).cumsum(axis=1)
    return prefix


def _block_count_lt(
    ranks: np.ndarray,
    by_rank: np.ndarray,
    q_index: np.ndarray,
    q_rank: np.ndarray,
) -> np.ndarray:
    """Exact 2D dominance counts, fully vectorized.

    Given ``m`` points where the point at index ``i`` carries rank
    ``ranks[i]`` (a permutation of ``0..m-1``) and ``by_rank`` is its
    inverse (point indices in rank order), returns for every query
    ``j`` the count ``#{i : i < q_index[j] and ranks[i] < q_rank[j]}``.

    A coarse block histogram with a 2D prefix sum (:func:`_cell_prefix`)
    answers the full-block part of each query; the two partial blocks
    are swept with one ``(queries, block)`` comparison matrix each, so
    no query is ever answered with per-query Python work.
    """
    m = int(ranks.shape[0])
    nq = int(q_index.shape[0])
    if m == 0 or nq == 0:
        return np.zeros(nq, dtype=np.int64)
    # Balance the boundary sweeps (2 * nq * block) against the block
    # grid ((m / block)**2): block ~ (m**2 / nq)**(1/3).
    block = max(16, min(int((m * m / nq) ** (1 / 3)), m))
    prefix = _cell_prefix(ranks, block)
    a = q_index // block
    b = q_rank // block
    counts = prefix[a, b]
    span = np.arange(block, dtype=np.int64)
    # Points in the query's partial index block with rank below the
    # threshold.
    cols = a[:, None] * block + span[None, :]
    valid = cols < q_index[:, None]
    valid &= ranks.take(cols, mode="clip") < q_rank[:, None]
    counts += np.count_nonzero(valid, axis=1)
    # Points in the partial rank block with index below the full blocks
    # (indices inside the partial index block were counted above).
    rows = b[:, None] * block + span[None, :]
    valid = rows < q_rank[:, None]
    valid &= by_rank.take(rows, mode="clip") < (a * block)[:, None]
    counts += np.count_nonzero(valid, axis=1)
    return counts


def _grid_count_bounds(
    ranks: np.ndarray, q_index: np.ndarray, q_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the :func:`_block_count_lt` counts from a fixed grid.

    Over at most ``_GRID`` x ``_GRID`` cells, the whole cells below and
    left of a query count a lower bound, and with the cells its corner
    reaches into an upper bound.  With cells one point wide
    (``m <= _GRID``) the two are equal and exact.
    """
    width = -(-int(ranks.shape[0]) // _GRID)
    prefix = _cell_prefix(ranks, width)
    low = prefix[q_index // width, q_rank // width]
    high = prefix[-(-q_index // width), -(-q_rank // width)]
    return low, high


def _add_tally(target: list[int], keys: np.ndarray) -> None:
    """Add the multiplicity of every index in ``keys`` to ``target``."""
    tally = np.bincount(keys, minlength=len(target))
    for index in np.flatnonzero(tally).tolist():
        target[index] += int(tally[index])


def _pop_minimum(heap: list[int], live_priority: Callable[[int], int]) -> int:
    """Pop the minimum-priority page of a non-empty ``heap``.

    The heap holds one entry per promoted resident page, written with
    the priority the page had when it was promoted, and later hits never
    touch it (*re-key on pop*): while the top entry is older than its
    page's ``live_priority`` it is rewritten in place, and the first
    current top is the victim.  That is the true minimum — a priority
    only grows, so every other page's live priority is at least its own
    entry, which is at least the top; reference positions are unique,
    so there are no ties.  Returns the victim's page id.
    """
    while True:
        victim = heap[0] & _PAGE_MASK
        live = live_priority(victim)
        if heap[0] >> _PAGE_BITS == live:
            heapq.heappop(heap)
            return victim
        heapq.heapreplace(heap, live << _PAGE_BITS | victim)


class ArrayKernel:
    """The one driver and the one tally of the dense-array kernels.

    :meth:`process_batch` shifts the page ids out of an encoded batch,
    hands them to the policy's :meth:`_replace` hook — which does
    replacement and nothing else — and folds the miss positions and
    victim page ids it returns into the three counters with a handful
    of ``bincount`` calls.  Per-page state is indexed by dense page id;
    every table covers the static id range up front and grows (through
    :meth:`_grow`) as the append-only relations extend the id space.
    A victim's relation comes from the per-page ``_relation`` table,
    written at the miss that admitted the page (a dense page id maps to
    exactly one relation, which
    :class:`~repro.workload.trace.PageIdSpace` guarantees).
    """

    policy_name: ClassVar[str] = ""

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._space = space
        self._relation = np.zeros(
            space.static_total + _PAGE_TABLE_GROWTH, dtype=np.uint8
        )
        self.batch_misses: list[int] = [0] * N_RELATIONS
        self.tx_misses: list[int] = [0] * (transaction_types << TX_STRIDE_SHIFT)
        self.eviction_counts: list[int] = [0] * N_RELATIONS

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def space(self) -> PageIdSpace:
        return self._space

    def _grow(self, extra: int) -> None:
        """Extend every per-page table by ``extra`` non-resident pages."""
        self._relation = np.concatenate(
            [self._relation, np.zeros(extra, dtype=np.uint8)]
        )

    def ensure_page_capacity(self, highest_page_id: int) -> None:
        """Size the per-page tables to cover ``highest_page_id``."""
        size = self._relation.shape[0]
        if highest_page_id >= size:
            self._grow(highest_page_id + _PAGE_TABLE_GROWTH - size)

    def begin_batch(self) -> None:
        """Zero the per-batch miss counters (residency is untouched)."""
        for index in range(len(self.batch_misses)):
            self.batch_misses[index] = 0

    def reset_counters(self) -> None:
        """Zero every counter (after warm-up); residency is untouched."""
        self.begin_batch()
        for index in range(len(self.tx_misses)):
            self.tx_misses[index] = 0
        for index in range(len(self.eviction_counts)):
            self.eviction_counts[index] = 0

    def evictions_by_relation(self) -> dict[int, int]:
        """Cumulative eviction tallies keyed by relation index.

        Relations that never lost a page are absent.
        """
        return {
            relation: count
            for relation, count in enumerate(self.eviction_counts)
            if count
        }

    def process_batch(self, batch: EncodedBatch) -> None:
        """Run one :class:`~repro.workload.stream.EncodedBatch` through."""
        refs = batch.refs
        if refs.shape[0] == 0:
            return
        self.ensure_page_capacity(batch.highest_page_id)
        page_ids = refs >> REF_PID_SHIFT
        hook_misses, hook_victims = self._replace(page_ids)
        misses = np.asarray(hook_misses, dtype=np.int64)
        if misses.size:
            relations = ref_relations(refs[misses])
            self._relation[page_ids[misses]] = relations
            _add_tally(self.batch_misses, relations)
            owner = np.repeat(batch.tx_indices, batch.tx_lengths)[misses]
            _add_tally(self.tx_misses, (owner << TX_STRIDE_SHIFT) + relations)
        victims = np.asarray(hook_victims, dtype=np.int64)
        if victims.size:
            _add_tally(self.eviction_counts, self._relation[victims])

    def _replace(
        self, page_ids: np.ndarray
    ) -> tuple[Sequence[int] | np.ndarray, Sequence[int] | np.ndarray]:
        """Advance residency over ``page_ids`` (a batch, in order).

        Returns the positions that missed and the page ids evicted,
        each in any order: only their multiplicities are tallied.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LruArrayKernel(ArrayKernel):
    """Least-recently-used over the resident ids kept in recency order.

    State is the resident page ids, least recent first, plus one int32
    slot per page: its index in that order plus one, or 0 when the page
    is not resident.  There is no per-reference loop (a long batch is
    cut into a few slices).  The classifier leans on the LRU *inclusion
    property*: with exact LRU the resident set after any prefix of the
    trace is simply the ``capacity`` most recently touched distinct
    pages, so hit/miss outcomes and the eviction multiset are
    determined by the trace alone — no victim needs to be sequenced.
    So the slice-start residents, least recent first, make a *virtual
    prefix* of the slice: from an empty pool it leaves the state the
    slice starts from, and a resident's first slice touch becomes a
    plain repeat.  Over that virtual trace a first touch always misses;
    a repeat within ``capacity`` positions of the page's previous touch
    always hits; and a repeat across a longer gap misses iff the gap
    holds ``capacity`` distinct pages — one inclusion/exclusion
    identity over the touch chains plus a 2D dominance count, settled
    by rank bounds, then a fixed grid (:func:`_grid_count_bounds`), and
    for the few queries left open counted exactly
    (:func:`_block_count_lt`).  The new recency order is every page at
    its last virtual touch, and the part of it beyond ``capacity`` is
    exactly the slice's late victims.  Hits cost no Python work at all.
    """

    policy_name = "lru"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        self._res_ids = np.empty(0, dtype=np.int64)
        self._slot = np.zeros(self._relation.shape[0], dtype=np.int32)

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._slot = np.concatenate([self._slot, np.zeros(extra, dtype=np.int32)])

    def __len__(self) -> int:
        return int(self._res_ids.size)

    def _replace(self, page_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The long-link work grows faster than linearly once a batch is
        # many times the buffer, so a long batch is classified in equal
        # slices; LRU is sequential, so slicing changes nothing.
        n = int(page_ids.shape[0])
        step = max(_LRU_SLICE_FLOOR, _LRU_SLICE_CAPACITIES * self._capacity)
        pieces = -(-n // step)
        bounds = [n * piece // pieces for piece in range(pieces + 1)]
        misses: list[np.ndarray] = []
        victims: list[np.ndarray] = []
        for lo, hi in zip(bounds, bounds[1:]):
            slice_misses, slice_victims = self._classify_slice(page_ids[lo:hi])
            misses.append(lo + slice_misses)
            victims.append(slice_victims)
        return np.concatenate(misses), np.concatenate(victims)

    def _classify_slice(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance residency over ``pids``; miss positions and victims."""
        n = int(pids.shape[0])
        slot = self._slot
        capacity = self._capacity
        prefix = int(self._res_ids.size)
        v = prefix + n

        # Positions are virtual: the residents sit at 0..prefix-1 and
        # the slice follows.  Group each page's slice touches in
        # position order by sorting one combined (page, position) key:
        # the position in the low bits makes every key unique, so the
        # cheap unstable sort is order-preserving within a page.
        shift = v.bit_length()
        keys = pids << shift
        keys |= np.arange(prefix, v, dtype=np.int64)
        keys.sort()
        position = keys & ((1 << shift) - 1)
        sorted_pids = np.right_shift(keys, shift, out=keys)
        starts_at = np.flatnonzero(np.concatenate(([True], sorted_pids[1:] != sorted_pids[:-1])))
        group_first = position.take(starts_at)  # first slice touch per page
        page_slot = slot.take(sorted_pids.take(starts_at))
        group_last = position.take(np.append(starts_at[1:], n) - 1)  # last touch

        # Each touch's link back to the page's previous touch, by length
        # (in the spent sort buffer); 0 for a first touch, always a
        # miss.  A resident's previous touch is its prefix position.
        gap = sorted_pids
        np.subtract(position[1:], position[:-1], out=gap[1:])
        gap[starts_at] = group_first + 1 - page_slot
        cold_at = np.compress(page_slot == 0, starts_at)
        gap[cold_at] = 0
        cold_first = position.take(cold_at)
        # The last touch of every page: the untouched residents and the
        # last slice touches.  A cold page's slot - 1 is -1, the final
        # position, which is always a last touch and is set again.
        is_last = np.zeros(v, dtype=bool)
        is_last[:prefix] = True
        is_last[page_slot - 1] = False
        is_last[group_last] = True

        # A link (q, p) no longer than ``capacity`` is a hit.  A longer
        # one misses iff its window holds ``capacity`` distinct pages:
        #   distinct(q, p) = (p - q - 1) - #{links: e < p}
        #                  + #{links: s <= q} - span(q, p)
        # with span(q, p) = #{links: s <= q and e >= p}: every position
        # in the open window counts once per touch, repeats inside the
        # window cancel via their link, and links that overhang either
        # edge are corrected by the prefix terms.  Link ends are the
        # non-first positions and link starts the non-last ones, so
        #   distinct(q, p) = #{firsts < p} - #{lasts <= q} - span(q, p).
        # Only links longer than ``capacity`` can span a long link's
        # window, and that long-link set is the query set itself.
        long_link = gap > capacity
        end = np.compress(long_link, position)
        m = int(end.size)
        if m:
            start = end - np.compress(long_link, gap)
            # One cumsum counts both: firsts in the low 32 bits, lasts
            # in the high ones (a cumsum costs the same at any width).
            # A link misses iff span(q, p) <= threshold.
            counts = is_last.astype(np.int64)
            counts <<= 32
            counts[:prefix] += 1
            counts[cold_first] += 1
            np.cumsum(counts, out=counts)
            threshold = (counts[end - 1] & 0xFFFFFFFF) - (counts[start] >> 32) - capacity
            # Every query value is itself a long-link endpoint and all
            # endpoints are distinct, so the prefix counts over long
            # links are just sort ranks, and each argsort is a sort of
            # (value, index) keys as above.
            iota = np.arange(m, dtype=np.int64)
            bits = m.bit_length()
            by_s = np.sort(start << bits | iota) & ((1 << bits) - 1)
            by_e = np.sort(end << bits | iota) & ((1 << bits) - 1)
            k_below = np.empty(m, dtype=np.int64)
            k_below[by_s] = iota + 1  # #{long links: s <= q}
            r_below = np.empty(m, dtype=np.int64)
            r_below[by_e] = iota  # #{long links: e < p}
            # span = k_below - below, where below = #{long links: s <= q
            # and e < p} is a 2D dominance count: a miss iff below >=
            # need.  The rank bounds on ``below`` settle most queries,
            # the fixed grid most of the rest, and only the queries it
            # leaves open are counted exactly.
            need = k_below - threshold
            miss = np.maximum(k_below + r_below - m, 0) >= need
            open_ = np.minimum(k_below, r_below) >= need
            open_ &= ~miss
            if open_.any():
                query = np.flatnonzero(open_)
                q_index = k_below.take(query)
                q_rank = r_below.take(query)
                q_need = need.take(query)
                ranks = r_below.take(by_s)  # rank of e per point, in s order
                low, high = _grid_count_bounds(ranks, q_index, q_rank)
                miss[query] = low >= q_need
                exact = np.flatnonzero((low < q_need) & (high >= q_need))
                if exact.size:
                    inv_by_s = np.empty(m, dtype=np.int64)
                    inv_by_s[by_s] = iota
                    by_rank = inv_by_s.take(by_e)  # point (s order) per e rank
                    below = _block_count_lt(ranks, by_rank, q_index.take(exact), q_rank.take(exact))
                    miss[query.take(exact)] = below >= q_need.take(exact)
            end = np.compress(miss, end)
        misses = np.concatenate([cold_first, end]) - prefix

        # Final recency order: every page at its last virtual touch, cut
        # to the newest ``capacity``.  The part cut off is exactly the
        # candidates evicted after their last touch (or, untouched, at
        # some point mid-slice); each long-link miss records one earlier
        # eviction of that same page.
        untouched = np.compress(is_last[:prefix], self._res_ids)
        order = np.concatenate([untouched, np.compress(is_last[prefix:], pids)])
        cut = max(order.size - capacity, 0)
        evicted = order[:cut]
        new_res_ids = order[cut:]
        slot[evicted] = 0
        slot[new_res_ids] = np.arange(1, new_res_ids.size + 1, dtype=np.int32)
        self._res_ids = new_res_ids
        victims = np.concatenate([evicted, pids.take(misses[cold_first.size :])])
        return misses, victims


class FifoArrayKernel(ArrayKernel):
    """First-in-first-out over a circular buffer of page ids.

    Hits never reorder; a full pool overwrites the entry at the head,
    which always holds the oldest admission.
    """

    policy_name = "fifo"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        self._resident = bytearray(self._relation.shape[0])
        self._page_of = [0] * capacity
        self._count = 0
        self._head = 0

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._resident.extend(bytes(extra))

    def __len__(self) -> int:
        return self._count

    def _replace(self, page_ids: np.ndarray) -> tuple[list[int], list[int]]:
        resident = self._resident
        page_of = self._page_of
        capacity = self._capacity
        count = self._count
        head = self._head
        misses: list[int] = []
        victims: list[int] = []
        for position, page_id in enumerate(page_ids.tolist()):
            if resident[page_id]:
                continue
            misses.append(position)
            if count < capacity:
                slot = count
                count += 1
            else:
                slot = head
                resident[page_of[slot]] = 0
                victims.append(page_of[slot])
                head += 1
                if head == capacity:
                    head = 0
            page_of[slot] = page_id
            resident[page_id] = 1
        self._count = count
        self._head = head
        return misses, victims


class ClockArrayKernel(ArrayKernel):
    """Second-chance CLOCK over a frame ring with reference bits.

    Mirrors ``ClockPolicy``: frames fill in index order before the hand
    ever moves; a hit sets the frame's reference bit; the hand clears
    set bits as it sweeps, evicts at the first clear frame, installs the
    new page there with its bit clear, and steps past it.
    """

    policy_name = "clock"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        self._frame_of = [-1] * self._relation.shape[0]
        self._page_of = [0] * capacity
        self._referenced = bytearray(capacity)
        self._count = 0
        self._hand = 0

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._frame_of.extend([-1] * extra)

    def __len__(self) -> int:
        return self._count

    def _replace(self, page_ids: np.ndarray) -> tuple[list[int], list[int]]:
        frame_of = self._frame_of
        page_of = self._page_of
        referenced = self._referenced
        capacity = self._capacity
        count = self._count
        hand = self._hand
        misses: list[int] = []
        victims: list[int] = []
        for position, page_id in enumerate(page_ids.tolist()):
            frame = frame_of[page_id]
            if frame >= 0:
                referenced[frame] = 1
                continue
            misses.append(position)
            if count < capacity:
                frame = count
                count += 1
            else:
                while referenced[hand]:
                    referenced[hand] = 0
                    hand += 1
                    if hand == capacity:
                        hand = 0
                frame_of[page_of[hand]] = -1
                victims.append(page_of[hand])
                frame = hand
                hand += 1
                if hand == capacity:
                    hand = 0
            page_of[frame] = page_id
            frame_of[page_id] = frame
        self._count = count
        self._hand = hand
        return misses, victims


class LfuArrayKernel(ArrayKernel):
    """Least-frequently-used over an admission FIFO and a re-key-on-pop heap.

    A resident page's priority is ``(count, last touch)``, packed into
    one int per page (:data:`_TICK_BITS`; ``0`` = not resident).  A page
    on its first reference ranks below every promoted one (count 2 or
    more), and such pages rank among themselves by admission, so they
    wait in ``_young``, a FIFO of page ids: the victim of a full-pool
    miss is its oldest page still on count 1, and the entries of pages
    promoted since are dropped as they come up.  A hit that promotes a
    page pushes the page's one entry onto ``_heap``; any other hit
    rewrites the page's int and nothing else.  Only when no resident is
    left on its first reference does :func:`_pop_minimum` choose among
    the promoted pages, as ``LfuPolicy``'s heap would.

    The heap is reached only once the FIFO is empty, and a FIFO victim
    leaves with its only entry, so every queued id is a distinct
    resident and neither structure outgrows ``capacity``.
    """

    policy_name = "lfu"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        self._key_of = [0] * self._relation.shape[0]
        self._young: deque[int] = deque()
        self._heap: list[int] = []
        self._tick = 0
        self._used = 0

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._key_of.extend([0] * extra)

    def __len__(self) -> int:
        return self._used

    def _replace(self, page_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
        key_of = self._key_of
        young = self._young
        heap = self._heap
        capacity = self._capacity
        used = self._used
        # The smallest key with count 2: below it a page is on count 1.
        promoted = 2 << _TICK_BITS
        first = self._tick + 1
        misses: list[int] = []
        victims: list[int] = []
        for tick, page_id in enumerate(page_ids.tolist(), first):
            key = key_of[page_id]
            if key >= promoted:
                # Carry out of the all-ones tick field: count += 1.
                key_of[page_id] = (key | _TICK_MASK) + 1 + tick
                continue
            if key:  # promotion: count 1 -> 2
                key = key_of[page_id] = promoted | tick
                heapq.heappush(heap, key << _PAGE_BITS | page_id)
                continue
            misses.append(tick)
            if used < capacity:
                used += 1
            else:
                while young:
                    victim = young.popleft()
                    if key_of[victim] < promoted:
                        break
                else:
                    victim = _pop_minimum(heap, key_of.__getitem__)
                key_of[victim] = 0
                victims.append(victim)
            key_of[page_id] = 1 << _TICK_BITS | tick
            young.append(page_id)
        self._used = used
        self._tick += len(page_ids)
        return np.array(misses, dtype=np.int64) - first, victims


class MruArrayKernel(ArrayKernel):
    """Most-recently-used, with no victim structure at all.

    After any reference its page is resident and carries the highest
    stamp, so the victim of a full-pool miss is always the page of the
    previous reference.  The per-page last-touch stamp (``0`` = not
    resident) is the residency flag, and orders the residents as
    ``MruPolicy``'s recency stack.
    """

    policy_name = "mru"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        self._last_of = [0] * self._relation.shape[0]
        self._previous = -1
        self._tick = 0
        self._used = 0

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._last_of.extend([0] * extra)

    def __len__(self) -> int:
        return self._used

    def _replace(self, page_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
        last = self._last_of
        capacity = self._capacity
        used = self._used
        previous = self._previous
        first = self._tick + 1
        misses: list[int] = []
        victims: list[int] = []
        for tick, page_id in enumerate(page_ids.tolist(), first):
            if not last[page_id]:
                misses.append(tick)
                if used < capacity:
                    used += 1
                else:
                    last[previous] = 0
                    victims.append(previous)
            last[page_id] = tick
            previous = page_id
        self._used = used
        self._previous = previous
        self._tick += len(page_ids)
        return np.array(misses, dtype=np.int64) - first, victims


class TwoQArrayKernel(ArrayKernel):
    """Simplified 2Q: FIFO probation queue plus LRU main queue.

    Mirrors ``TwoQPolicy`` with two int-keyed ordered dicts and a
    per-page byte naming the queue a page is in: admission evicts the
    probation head once probation is full; a second touch while on
    probation promotes to main, evicting the main LRU head on overflow
    — the one case where a *hit* produces a victim.
    """

    policy_name = "2q"

    #: Mirrors ``TwoQPolicy``'s default probation share of the pool.
    PROBATION_FRACTION = 0.25

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        if capacity > 1:
            self._probation_capacity = max(
                1, min(int(capacity * self.PROBATION_FRACTION), capacity - 1)
            )
        else:
            self._probation_capacity = 1
        self._main_capacity = capacity - self._probation_capacity
        self._probation: OrderedDict[int, None] = OrderedDict()
        self._main: OrderedDict[int, None] = OrderedDict()
        #: 0 = not resident, 1 = on probation, 2 = in main.
        self._queue_of = bytearray(self._relation.shape[0])

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._queue_of.extend(bytes(extra))

    def __len__(self) -> int:
        return len(self._probation) + len(self._main)

    def _replace(self, page_ids: np.ndarray) -> tuple[list[int], list[int]]:
        queue_of = self._queue_of
        probation = self._probation
        main = self._main
        move_main = main.move_to_end
        probation_capacity = self._probation_capacity
        main_capacity = self._main_capacity
        misses: list[int] = []
        victims: list[int] = []
        for position, page_id in enumerate(page_ids.tolist()):
            where = queue_of[page_id]
            if where == 2:
                move_main(page_id)
                continue
            if where == 1:
                if main_capacity == 0:  # single-frame pool: nowhere to promote
                    continue
                # Promotion: second touch while on probation.
                del probation[page_id]
                if len(main) >= main_capacity:
                    victim, _ = main.popitem(last=False)
                    queue_of[victim] = 0
                    victims.append(victim)
                main[page_id] = None
                queue_of[page_id] = 2
                continue
            misses.append(position)
            if len(probation) >= probation_capacity:
                victim, _ = probation.popitem(last=False)
                queue_of[victim] = 0
                victims.append(victim)
            probation[page_id] = None
            queue_of[page_id] = 1
        return misses, victims


class LruKArrayKernel(ArrayKernel):
    """LRU-K over flat per-page stamp rings, an admission FIFO and a re-key-on-pop heap.

    Each page owns ``k`` consecutive cells of ``_times`` and a count of
    its references this residency (``0`` = not resident); reference
    ``n`` lands in cell ``n % k``, so once ``k`` are recorded that cell
    holds the K-th most recent one.  ``LruKPolicy`` ranks a page with
    fewer than ``k`` references below every other page, by its first
    reference, so such pages wait in ``_young``, a FIFO of page ids in
    admission order, exactly as :class:`LfuArrayKernel`'s pages on
    count 1 do.  The reference that brings a page to ``k`` pushes its
    one entry onto ``_heap``; from then on its priority is the K-th
    most recent stamp, which only grows, so :func:`_pop_minimum`
    chooses among the promoted pages once the FIFO runs dry.
    """

    policy_name = "lruk"

    def __init__(
        self,
        capacity: int,
        space: PageIdSpace,
        transaction_types: int,
        k: int = 2,
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        self._seen = [0] * self._relation.shape[0]
        self._times = [0] * (k * len(self._seen))
        self._young: deque[int] = deque()
        self._heap: list[int] = []
        self._tick = 0
        self._used = 0

    @property
    def k(self) -> int:
        return self._k

    def _grow(self, extra: int) -> None:
        super()._grow(extra)
        self._seen.extend([0] * extra)
        self._times.extend([0] * (self._k * extra))

    def __len__(self) -> int:
        return self._used

    def _priority(self, page_id: int) -> int:
        """A promoted resident's live priority: its K-th most recent stamp."""
        k = self._k
        return self._times[page_id * k + self._seen[page_id] % k]

    def _replace(self, page_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
        k = self._k
        seen_of = self._seen
        times = self._times
        young = self._young
        heap = self._heap
        capacity = self._capacity
        used = self._used
        first = self._tick + 1
        misses: list[int] = []
        victims: list[int] = []
        for tick, page_id in enumerate(page_ids.tolist(), first):
            seen = seen_of[page_id]
            if seen >= k:
                times[page_id * k + seen % k] = tick
                seen_of[page_id] = seen + 1
                continue
            if seen:  # fewer than k so far: reference `seen` lands in cell `seen`
                times[page_id * k + seen] = tick
                seen_of[page_id] = seen = seen + 1
                if seen == k:
                    # Promotion: the K-th most recent stamp is the first.
                    heapq.heappush(heap, times[page_id * k] << _PAGE_BITS | page_id)
                continue
            misses.append(tick)
            if used < capacity:
                used += 1
            else:
                while young:
                    victim = young.popleft()
                    if seen_of[victim] < k:
                        break
                else:
                    victim = _pop_minimum(heap, self._priority)
                seen_of[victim] = 0
                victims.append(victim)
            seen_of[page_id] = 1
            times[page_id * k] = tick
            if k > 1:
                young.append(page_id)
            else:  # LRU-1: the admitting reference is the K-th
                heapq.heappush(heap, tick << _PAGE_BITS | page_id)
        self._used = used
        self._tick += len(page_ids)
        return np.array(misses, dtype=np.int64) - first, victims


#: Policy name -> kernel factory, for the policies with an array fast
#: path.  Every registered replacement policy now has one.
KERNEL_FACTORIES: dict[
    str, Callable[[int, PageIdSpace, int], ArrayKernel]
] = {
    "lru": LruArrayKernel,
    "mru": MruArrayKernel,
    "fifo": FifoArrayKernel,
    "clock": ClockArrayKernel,
    "lfu": LfuArrayKernel,
    "2q": TwoQArrayKernel,
    "lru2": lambda capacity, space, types: LruKArrayKernel(
        capacity, space, types, k=2
    ),
    "lru3": lambda capacity, space, types: LruKArrayKernel(
        capacity, space, types, k=3
    ),
}

#: The replacement policies a simulation config may name.
ARRAY_KERNEL_POLICIES = tuple(sorted(KERNEL_FACTORIES))


def relation_miss_rates(
    misses: Sequence[int], accesses: Iterable[int]
) -> dict[str, float]:
    """Miss rate per relation name from two per-relation-index tallies.

    Relations that were never referenced are absent.
    """
    return {
        name: misses[index] / int(count)
        for index, (name, count) in enumerate(zip(RELATION_NAMES, accesses))
        if count
    }


def require_kernel_policy(policy: str) -> None:
    """Raise ``ValueError`` unless ``policy`` names an array kernel.

    Names are exact (lower-case).  Simulation configs call this at
    construction, so a bad name fails where it was written rather than
    inside a worker process.
    """
    if policy not in KERNEL_FACTORIES:
        raise ValueError(
            f"no array kernel for policy {policy!r}; available: "
            f"{ARRAY_KERNEL_POLICIES}"
        )


def require_megabytes(megabytes: float, name: str = "megabytes") -> None:
    """Raise ``ValueError`` unless ``megabytes`` is a positive, finite size."""
    if not (megabytes > 0 and math.isfinite(megabytes)):
        raise ValueError(f"{name} must be positive and finite, got {megabytes!r}")


def pages_for_megabytes(megabytes: float, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Buffer capacity in pages for a memory size in MB."""
    require_megabytes(megabytes)
    pages = int(megabytes * 1024 * 1024 // page_size)
    return max(1, pages)


def make_kernel(
    policy: str, capacity: int, space: PageIdSpace, transaction_types: int
) -> ArrayKernel:
    """Build the array kernel for a policy name.

    Raises ``ValueError`` for unknown policy names.
    """
    require_kernel_policy(policy)
    return KERNEL_FACTORIES[policy](capacity, space, transaction_types)


__all__ = [
    "ARRAY_KERNEL_POLICIES",
    "ArrayKernel",
    "ClockArrayKernel",
    "FifoArrayKernel",
    "KERNEL_FACTORIES",
    "LfuArrayKernel",
    "LruArrayKernel",
    "LruKArrayKernel",
    "MruArrayKernel",
    "TX_STRIDE_SHIFT",
    "TwoQArrayKernel",
    "make_kernel",
    "pages_for_megabytes",
    "relation_miss_rates",
    "require_kernel_policy",
    "require_megabytes",
]

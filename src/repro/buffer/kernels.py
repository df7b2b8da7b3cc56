"""Dense array kernels for the trace-driven buffer simulator.

The reference policy objects (a test oracle, kept under ``tests/``) pay
per-reference Python overhead: a call on a ``(relation, page)`` tuple
key, an ``OrderedDict`` move-to-end, and dict-based accounting.  The
kernels here run the same replacement algorithms over preallocated
tables indexed by the dense page ids of
:class:`~repro.workload.trace.PageIdSpace`, one
:class:`~repro.workload.stream.EncodedBatch` at a time.
:meth:`ArrayKernel.process_batch` is the only driver: it shifts the
page ids out once, calls the policy's ``_replace`` hook, and folds the
miss positions and victims the hook returns into the counters with
``bincount``.  A hook's loop does replacement and nothing else:

* :class:`LruArrayKernel` — the resident ids in recency order and a
  slot per page, with no per-reference loop: every reference is
  classified with array ops (see the class), so hits cost no Python
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
from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from typing import Callable, ClassVar

import numpy as np

from repro.workload.stream import EncodedBatch
from repro.workload.trace import RELATION_NAMES, REF_PID_SHIFT, PageIdSpace

#: Stride of the per-transaction miss counters: transaction ``t`` and
#: relation ``r`` share index ``(t << TX_STRIDE_SHIFT) + r``.
TX_STRIDE_SHIFT = 4

#: Headroom added whenever the per-page tables must grow to cover newly
#: written growing-relation pages.
_PAGE_TABLE_GROWTH = 4096

#: The vectorized LRU pass classifies at most this many references at a
#: time: ``_LRU_SLICE_CAPACITIES`` buffer capacities, and never fewer
#: than ``_LRU_SLICE_FLOOR`` (measured optimum: 8-16 capacities, within
#: noise of each other; unsliced, a 3 328-page buffer costs 216 ns/ref
#: on a 100 k batch against 97 in two slices, and a 1 024-page buffer
#: 176 on a 41 k batch against 98 in three).
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

    A coarse ``sqrt(m)``-block histogram with a 2D prefix sum answers
    the full-block part of each query; the two partial blocks are
    swept with one ``(queries, block)`` comparison matrix each, so no
    query is ever answered with per-query Python work.
    """
    m = int(ranks.shape[0])
    nq = int(q_index.shape[0])
    if m == 0 or nq == 0:
        return np.zeros(nq, dtype=np.int64)
    # Balance the boundary sweeps (2 * nq * block) against the block
    # grid ((m / block)**2): block ~ (m**2 / nq)**(1/3).
    block = max(16, min(int((m * m / nq) ** (1 / 3)), m))
    nb = m // block + 1
    cells = (np.arange(m, dtype=np.int64) // block) * nb + ranks // block
    hist = np.bincount(cells, minlength=nb * nb).reshape(nb, nb)
    prefix = np.zeros((nb + 1, nb + 1), dtype=np.int64)
    prefix[1:, 1:] = hist.cumsum(axis=0).cumsum(axis=1)
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
        n_relations = len(RELATION_NAMES)
        self.batch_misses: list[int] = [0] * n_relations
        self.tx_misses: list[int] = [0] * (transaction_types << TX_STRIDE_SHIFT)
        self.eviction_counts: list[int] = [0] * n_relations

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
            relations = (refs[misses] >> 1) & 15
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
    Each reference is classified by array ops: a repeat touch within
    ``capacity`` positions of the previous touch is a guaranteed hit; a
    repeat across a longer gap misses iff the gap contains ``capacity``
    distinct pages (an inclusion/exclusion identity over the batch's
    touch chains plus a 2D dominance count, see
    :func:`_block_count_lt`); a first touch of a non-resident page
    always misses; and a first touch of a slice-start resident misses
    iff ``capacity`` distinct pages more recent than it were touched
    first (rank bounds settle most of these, the same dominance counter
    the rest).  The new recency order is the untouched residents
    followed by the touched pages in last-touch order, and the part of
    it beyond ``capacity`` is exactly the slice's late victims.  Hits
    cost no Python work at all.
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
        # The long-gap (class 2) work grows faster than linearly once a
        # batch is many times the buffer, so a long batch is classified
        # in equal slices; LRU is sequential, so slicing changes nothing.
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
        res_ids = self._res_ids
        capacity = self._capacity

        # Group each page's touches in position order by sorting one
        # combined (page, position) key: the position in the low bits
        # makes every key unique, so the cheap unstable sort is
        # order-preserving within a page.
        shift = n.bit_length()
        keys = pids << shift
        keys |= np.arange(n, dtype=np.int64)
        keys.sort()
        position = keys & ((1 << shift) - 1)
        sorted_pids = keys >> shift
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_pids[1:], sorted_pids[:-1], out=boundary[1:])
        starts_at = np.flatnonzero(boundary)
        group_first = position[starts_at]  # first touch per distinct page
        unique_pids = sorted_pids[starts_at]
        lasts_at = np.empty(starts_at.size, dtype=np.int64)
        lasts_at[:-1] = starts_at[1:] - 1
        lasts_at[-1] = n - 1
        group_last = position[lasts_at]  # latest touch per distinct page

        # Class 2 — repeat touches whose gap *can* hold ``capacity``
        # distinct pages.  Shorter gaps are guaranteed hits.  A long
        # gap (q, p) misses iff distinct(q, p) >= capacity, and
        #   distinct(q, p) = (p - q - 1) - #{links: e < p}
        #                  + #{links: s <= q} - span(q, p)
        # with span(q, p) = #{links: s <= q and e >= p}: every position
        # in the open window counts once per touch, repeats inside the
        # window cancel via their link, and links that overhang either
        # edge are corrected by the prefix terms.  Only links longer
        # than ``capacity`` can span a long link's window, and that
        # long-link set is exactly the query set itself.
        gap = position[1:] - position[:-1]
        long_mask = gap > capacity
        long_mask &= ~boundary[1:]
        c2_start = position[:-1][long_mask]
        c2_end = position[1:][long_mask]
        firsts_le = None
        if c2_start.size:
            m2 = c2_start.size
            iota2 = np.arange(m2, dtype=np.int64)
            # Link ends are exactly the non-first positions and link
            # starts the non-last ones, so the prefix terms of the
            # identity collapse to first/last-touch counts:
            #   distinct(q, p) = #{firsts < p} - #{lasts <= q} - span.
            # Prefix counts are bounded by ``n`` — int32 halves the
            # memory traffic of these full-batch-length cumsums.
            firsts_le = np.cumsum(np.bincount(group_first, minlength=n), dtype=np.int32)
            lasts_le = np.cumsum(np.bincount(group_last, minlength=n), dtype=np.int32)
            threshold = (
                firsts_le[c2_end - 1] - lasts_le[c2_start] - capacity
            )  # miss iff span(q, p) <= threshold
            # Every query value is itself a long-link endpoint and all
            # endpoints are distinct, so the prefix counts over long
            # links are just sort ranks — no binary searches.
            by_s = np.argsort(c2_start)
            by_e = np.argsort(c2_end)
            k_below = np.empty(m2, dtype=np.int64)
            k_below[by_s] = iota2 + 1  # #{long links: s <= q}
            r_below = np.empty(m2, dtype=np.int64)
            r_below[by_e] = iota2  # #{long links: e < p}
            # span = k_below - #{long links: s <= q and e < p}, which
            # pins it between these bounds; most queries resolve here.
            lo = np.maximum(k_below - r_below, 0)
            hi = np.minimum(k_below, m2 - r_below)
            c2_miss = hi <= threshold
            ambiguous = (lo <= threshold) & ~c2_miss
            if ambiguous.any():
                inv_by_s = np.empty(m2, dtype=np.int64)
                inv_by_s[by_s] = iota2
                ranks = r_below[by_s]  # rank of e per point, in s order
                by_rank = inv_by_s[by_e]  # point (s-order) per e rank
                below = _block_count_lt(
                    ranks, by_rank, k_below[ambiguous], r_below[ambiguous]
                )
                span = k_below[ambiguous] - below
                c2_miss[ambiguous] = span <= threshold[ambiguous]
            c2_miss_pos = c2_end[c2_miss]
        else:
            c2_miss_pos = np.empty(0, dtype=np.int64)

        # Classes 3 and 4 — first in-slice touches.  Non-residents
        # always miss.  A slice-start resident x survives until its
        # first touch iff fewer than ``capacity`` pages outrank it the
        # whole way: the distinct pages touched before it plus the
        # residents more recent than x, minus the overlap (residents
        # more recent than x and touched before it — their touch moved
        # them from one group to the other, not two).
        page_slot = slot[unique_pids]
        was_resident = page_slot != 0
        miss3_pos = group_first[~was_resident]
        first4 = group_first[was_resident]
        slot4 = page_slot[was_resident]
        page4 = unique_pids[was_resident]
        touched = np.zeros(res_ids.size, dtype=bool)  # in recency order
        touched[slot4 - 1] = True
        if first4.size:
            # ``firsts_le`` doubles as the first-touch rank table: a
            # queried first's rank is the count of firsts at or before
            # it, minus itself — no argsort needed.
            if firsts_le is None:
                firsts_le = np.cumsum(
                    np.bincount(group_first, minlength=n), dtype=np.int32
                )
            touched_before = firsts_le[first4] - 1
            above = res_ids.size - slot4
            miss4 = touched_before >= capacity
            threshold = touched_before + above - capacity  # miss iff overlap <= it
            ambiguous = (threshold >= 0) & ~miss4
            if ambiguous.any():
                # Among the m touched residents, x's first-touch order
                # ``seq`` and recency order ``r`` bound its overlap: at
                # most ``seq`` were touched before it and ``m - 1 - r``
                # are more recent, and at most ``r`` of the ``seq`` are
                # less recent.
                m = first4.size
                is_first4 = np.zeros(n, dtype=bool)
                is_first4[first4] = True
                seq = np.cumsum(is_first4, dtype=np.int32)[first4] - 1
                r = np.cumsum(touched, dtype=np.int32)[slot4 - 1] - 1
                lo = np.maximum(seq - r, 0)
                hi = np.minimum(seq, m - 1 - r)
                miss4 |= ambiguous & (hi <= threshold)
                ambiguous &= (lo <= threshold) & (hi > threshold)
                if ambiguous.any():
                    ranks = np.empty(m, dtype=np.int64)
                    ranks[seq] = r  # recency order, in first-touch order
                    by_rank = np.empty(m, dtype=np.int64)
                    by_rank[r] = seq
                    q_idx = seq[ambiguous]
                    overlap = q_idx - _block_count_lt(
                        ranks, by_rank, q_idx, ranks[q_idx]
                    )
                    miss4[ambiguous] = overlap <= threshold[ambiguous]
            miss4_pos = first4[miss4]
            miss4_page = page4[miss4]
        else:
            miss4_pos = np.empty(0, dtype=np.int64)
            miss4_page = np.empty(0, dtype=np.int64)

        miss_positions = np.concatenate([miss3_pos, miss4_pos, c2_miss_pos])

        # Final recency order: the untouched residents, then every
        # touched page at its last touch, cut to the newest
        # ``capacity``.  The part cut off is exactly the candidates
        # evicted after their last touch (or, untouched, at some point
        # mid-slice); each class-2 readmission and each class-4 miss
        # records one earlier eviction of that same page.
        is_last = np.zeros(n, dtype=bool)
        is_last[group_last] = True
        order = np.concatenate([res_ids[~touched], pids[is_last]])
        cut = max(order.size - capacity, 0)
        evicted = order[:cut]
        new_res_ids = order[cut:]
        slot[evicted] = 0
        slot[new_res_ids] = np.arange(1, new_res_ids.size + 1, dtype=np.int32)
        self._res_ids = new_res_ids
        victims = np.concatenate([miss4_page, evicted, pids[c2_miss_pos]])
        return miss_positions, victims


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
    "relation_miss_rates",
    "require_kernel_policy",
]

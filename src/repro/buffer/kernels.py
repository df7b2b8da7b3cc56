"""Dense array kernels for the trace-driven buffer simulator.

The object policies in :mod:`repro.buffer.policy` pay per-reference
Python overhead: a ``pool.access`` call on a ``(relation, page)`` tuple
key, an ``OrderedDict`` move-to-end, and dict-based accounting.  The
kernels here run the same replacement algorithms over preallocated
arrays indexed by the dense page ids of
:class:`~repro.workload.trace.PageIdSpace`, consuming whole
transactions of int-encoded references — or, for LRU, whole
:class:`~repro.workload.stream.EncodedBatch` blocks — at a time:

* :class:`LruArrayKernel` — timestamp LRU.  Every page carries its
  last-touch position; victims are found through a lazily invalidated
  min-heap on the scalar path, and through a batch event merge on the
  vectorized path (see :meth:`LruArrayKernel.process_batch`): hits
  cost no Python work at all, only the misses are walked one by one.
* :class:`FifoArrayKernel` — a circular buffer of slots in admission
  order, mirroring ``FifoPolicy``'s deque.
* :class:`ClockArrayKernel` — a ring of frames with reference bits and
  a clock hand, mirroring ``ClockPolicy`` exactly (frames fill in slot
  order before the hand ever moves; a newly admitted page starts with
  its reference bit clear; the hand advances past each victim).
* :class:`LfuArrayKernel` — frequency counts plus the same lazily
  invalidated heap as ``LfuPolicy`` (entry-for-entry: both push on
  every touch and validate ``count`` on pop, so even the tie-breaking
  ticks agree).
* :class:`MruArrayKernel` — most-recently-used: the LRU lazy heap run
  as a *max*-heap on last-touch position, so the newest resident page
  is the victim (entry-for-entry with ``MruPolicy``).
* :class:`TwoQArrayKernel` — FIFO probation queue plus LRU main queue,
  mirroring ``TwoQPolicy`` including the promotion-overflow victim
  that a *hit* can produce.
* :class:`LruKArrayKernel` — backward-K distance with the lazy heap of
  ``LruKPolicy`` (``lru2``/``lru3`` in the registry).

The contract is **exact parity**: for any reference stream, a kernel
produces the same hit/miss outcome and the same eviction victim on
every reference as its object-policy counterpart (property-tested in
``tests/property/test_kernel_parity.py``).  Every reference is
processed — there is no sampling or approximation, only cheaper data
structures; the LRU batch path reorders *work*, never *semantics*.

Counters are flat lists — per-relation misses for the current batch,
cumulative per-``(transaction, relation)`` misses at stride 16, and
cumulative per-relation eviction tallies — folded into a
:class:`~repro.buffer.simulator.MissRateReport` at batch boundaries.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro.workload.trace import RELATION_NAMES, REF_PID_SHIFT, PageIdSpace

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.workload.stream import EncodedBatch

#: Stride of the per-transaction miss counters: transaction ``t`` and
#: relation ``r`` share index ``(t << TX_STRIDE_SHIFT) + r``.
TX_STRIDE_SHIFT = 4

#: Headroom added whenever the dense page-id -> slot table must grow to
#: cover newly written growing-relation pages.
_SLOT_TABLE_GROWTH = 4096

#: The vectorized LRU pass classifies at most this many references at a
#: time: ``_LRU_SLICE_CAPACITIES`` buffer capacities, and never fewer
#: than ``_LRU_SLICE_FLOOR`` (measured optimum: 8-16 capacities; a
#: 1 024-page buffer costs 230 ns/ref on one 48 k batch, 110 in three).
_LRU_SLICE_CAPACITIES = 16
_LRU_SLICE_FLOOR = 8192

#: Key offset that ranks pages with fewer than K references below every
#: fully referenced page (mirrors ``LruKPolicy._kth_recent``).
_UNDER_K = 1 << 60


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


class ArrayKernel:
    """Shared state of the dense-array replacement kernels.

    ``slots`` maps a dense page id to its buffer slot (or ``-1`` when
    the page is not resident); it covers the static id range up front
    and grows lazily as the append-only relations extend the id space.
    Subclasses implement :meth:`process_block` (one transaction's
    references) and :meth:`resident_page_ids` (current contents in
    eviction order, for parity tests).
    """

    policy_name: ClassVar[str] = ""

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._space = space
        self._slots: list[int] = [-1] * (space.static_total + _SLOT_TABLE_GROWTH)
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

    def _grow_slots(self, highest_page_id: int) -> None:
        """Extend the page-id table to cover ``highest_page_id``."""
        table = self._slots
        table.extend([-1] * (highest_page_id + _SLOT_TABLE_GROWTH - len(table)))

    def ensure_page_capacity(self, highest_page_id: int) -> None:
        """Pre-size the page-id table to cover ``highest_page_id``.

        The simulator calls this once per batch with the trace's current
        growing-relation extent (:meth:`TraceGenerator.highest_page_id`)
        so :meth:`process_many` can skip the per-block ``max`` scan.
        """
        if highest_page_id >= len(self._slots):
            self._grow_slots(highest_page_id)

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

        Matches :attr:`repro.buffer.pool.PoolStatistics.evictions`'s
        shape: relations that never lost a page are absent.
        """
        return {
            relation: count
            for relation, count in enumerate(self.eviction_counts)
            if count
        }

    def process_block(self, refs: list[int], tx_base: int) -> None:
        """Run one transaction's encoded references through the kernel.

        ``tx_base`` is the transaction's index shifted by
        :data:`TX_STRIDE_SHIFT`, addressing its row in ``tx_misses``.
        """
        self.process_many(((refs, tx_base),))

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        """Run many ``(refs, tx_base)`` transaction blocks in one call.

        This is the hot entry point of the scalar kernels: the caller
        hands over a whole batch of transactions at once so the kernel
        binds its state to locals once instead of once per transaction.
        When the caller knows an upper bound on the page ids in
        ``blocks`` it passes it as ``highest_page_id`` and the kernel
        sizes its table once; otherwise each block is scanned for its
        maximum id first.
        """
        raise NotImplementedError

    def process_batch(self, batch: "EncodedBatch") -> None:
        """Run one :class:`~repro.workload.stream.EncodedBatch` through.

        The base implementation slices the batch back into per-
        transaction blocks and defers to :meth:`process_many`, so every
        kernel accepts vectorized batches; kernels with a genuinely
        vectorized path (LRU) override this.

        Like every trace consumer, batch processing assumes a dense
        page id maps to exactly one relation (which
        :class:`~repro.workload.trace.PageIdSpace` guarantees): the
        vectorized LRU path attributes evictions through a per-page
        relation table rather than the admitting reference.
        """
        refs = batch.refs.tolist()
        lengths = batch.tx_lengths.tolist()
        blocks = []
        append = blocks.append
        position = 0
        for tx_index, length in zip(batch.tx_indices.tolist(), lengths):
            end = position + length
            append((refs[position:end], tx_index << TX_STRIDE_SHIFT))
            position = end
        self.process_many(blocks, batch.highest_page_id)

    def resident_page_ids(self) -> list[int]:
        """Resident dense page ids, victims first (for parity tests)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LruArrayKernel(ArrayKernel):
    """Least-recently-used over per-page last-touch timestamps.

    State is three dense per-page arrays — residency, last-touch
    position, and relation — plus a single global position counter that
    is never reset.  Two execution paths share that state:

    * The scalar path (:meth:`process_many`) walks references one by
      one and finds victims through a lazily invalidated min-heap of
      ``(last_touch, page)`` entries, exactly like ``LfuPolicy``'s
      heap but keyed on recency: stale entries are skipped when the
      recorded timestamp no longer matches.
    * The batch path (:meth:`process_batch`) has no per-reference
      loop (a long batch is cut into a few slices).  It leans
      on the LRU *inclusion property*: with exact LRU the resident set
      after any prefix of the trace is simply the ``capacity`` most
      recently touched distinct pages, so hit/miss outcomes and the
      eviction multiset are determined by the trace alone — no victim
      needs to be sequenced.  Each reference is classified by array
      ops: a repeat touch within ``capacity`` positions of the
      previous touch is a guaranteed hit; a repeat across a longer gap
      misses iff the gap contains ``capacity`` distinct pages (an
      inclusion/exclusion identity over the batch's touch chains plus
      a 2D dominance count, see :func:`_block_count_lt`); a first
      touch of a non-resident page always misses; and a first touch of
      a batch-start resident misses iff ``capacity`` distinct pages
      with higher recency were touched first (resolved with the same
      dominance counter over pre-batch recency ranks).

    Both paths produce bit-identical outcomes to ``LruPolicy`` (and to
    each other), so they can be mixed freely on one kernel instance —
    the batch path simply drops the scalar heap, which is rebuilt from
    the residency arrays on the next scalar call.
    """

    policy_name = "lru"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        size = len(self._slots)
        self._slots = []  # residency lives in the arrays below
        self._resident = np.zeros(size, dtype=np.uint8)
        self._last = np.zeros(size, dtype=np.int64)
        self._relation = np.zeros(size, dtype=np.uint8)
        self._pos = 0
        self._used = 0
        self._heap: list[tuple[int, int]] | None = []
        # Stale scalar-heap entries are compacted away past this size.
        self._heap_limit = 4 * capacity + 4096
        # Batch-path caches: the resident ids (None after a scalar pass
        # touches residency behind the cache's back) and a reusable
        # scratch flag per page for set intersections without hashing.
        self._res_ids: np.ndarray | None = np.empty(0, dtype=np.int64)
        self._mark = np.zeros(size, dtype=bool)

    def _grow_slots(self, highest_page_id: int) -> None:
        grow = highest_page_id + _SLOT_TABLE_GROWTH - self._resident.shape[0]
        self._resident = np.concatenate(
            [self._resident, np.zeros(grow, dtype=np.uint8)]
        )
        self._last = np.concatenate([self._last, np.zeros(grow, dtype=np.int64)])
        self._relation = np.concatenate(
            [self._relation, np.zeros(grow, dtype=np.uint8)]
        )
        self._mark = np.concatenate([self._mark, np.zeros(grow, dtype=bool)])

    def ensure_page_capacity(self, highest_page_id: int) -> None:
        if highest_page_id >= self._resident.shape[0]:
            self._grow_slots(highest_page_id)

    def __len__(self) -> int:
        return self._used

    def resident_page_ids(self) -> list[int]:
        residents = np.flatnonzero(self._resident)
        ordered = residents[np.argsort(self._last[residents], kind="stable")]
        return ordered.tolist()

    def _rebuild_heap(self) -> list[tuple[int, int]]:
        """Scalar victim heap from scratch: one entry per resident."""
        residents = np.flatnonzero(self._resident)
        heap = list(
            zip(self._last[residents].tolist(), residents.tolist())
        )
        heapq.heapify(heap)
        self._heap = heap
        return heap

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        heap = self._heap
        if heap is None:
            heap = self._rebuild_heap()
        resident = self._resident
        last = self._last
        relation_of = self._relation
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        capacity = self._capacity
        heap_limit = self._heap_limit
        used = self._used
        pos = self._pos
        push = heapq.heappush
        pop = heapq.heappop
        presized = highest_page_id >= 0
        table_size = resident.shape[0]
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    resident = self._resident
                    last = self._last
                    relation_of = self._relation
                    table_size = resident.shape[0]
            for ref in refs:
                page_id = ref >> 5
                pos += 1
                if resident[page_id]:
                    last[page_id] = pos
                    push(heap, (pos, page_id))
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if used < capacity:
                    used += 1
                else:
                    while True:
                        stamp, victim = pop(heap)
                        if resident[victim] and last[victim] == stamp:
                            break
                    resident[victim] = 0
                    evictions[relation_of[victim]] += 1
                    if len(heap) >= heap_limit:
                        self._pos = pos  # keep state coherent for rebuild
                        heap = self._rebuild_heap()
                resident[page_id] = 1
                relation_of[page_id] = relation
                last[page_id] = pos
                push(heap, (pos, page_id))
        self._pos = pos
        self._used = used
        self._heap = heap
        self._res_ids = None  # batch-path residency cache is stale

    def process_batch(self, batch: "EncodedBatch") -> None:
        refs = batch.refs
        n = int(refs.shape[0])
        if n == 0:
            return
        self.ensure_page_capacity(batch.highest_page_id)
        self._heap = None  # scalar victim heap is stale after a batch pass
        # The long-gap (class 2) work grows faster than linearly once a
        # batch is many times the buffer, so a long batch is classified
        # in equal slices; LRU is sequential, so slicing changes nothing.
        step = max(_LRU_SLICE_FLOOR, _LRU_SLICE_CAPACITIES * self._capacity)
        pieces = -(-n // step)
        bounds = [n * piece // pieces for piece in range(pieces + 1)]
        miss_positions = np.concatenate(
            [
                lo + self._classify_slice(refs[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])
            ]
        )
        if miss_positions.size:
            miss_rels = (refs[miss_positions] >> 1) & 15
            tally = np.bincount(miss_rels, minlength=len(self.batch_misses))
            batch_misses = self.batch_misses
            for relation in np.flatnonzero(tally):
                batch_misses[relation] += int(tally[relation])
            # bincount, not a scatter of ones: zero-length transactions
            # make consecutive starts collide on one position.
            tx_ordinal = np.bincount(
                np.cumsum(batch.tx_lengths[:-1]), minlength=n
            )[:n]
            np.cumsum(tx_ordinal, out=tx_ordinal)
            owner = tx_ordinal[miss_positions]
            tally = np.bincount(
                (batch.tx_indices[owner] << TX_STRIDE_SHIFT) + miss_rels,
                minlength=len(self.tx_misses),
            )
            tx_misses = self.tx_misses
            for index in np.flatnonzero(tally):
                tx_misses[index] += int(tally[index])

    def _classify_slice(self, refs: np.ndarray) -> np.ndarray:
        """Advance residency over ``refs``; returns the miss positions."""
        n = int(refs.shape[0])
        resident = self._resident
        last = self._last
        relation_table = self._relation
        mark = self._mark
        pos0 = self._pos
        capacity = self._capacity

        # Group each page's touches in position order by sorting one
        # combined (page, position) key: the position in the low bits
        # makes every key unique, so the cheap unstable sort is
        # order-preserving within a page.
        pids = refs >> REF_PID_SHIFT
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

        res_ids = self._res_ids
        if res_ids is None:
            res_ids = np.flatnonzero(resident)

        # Classes 3 and 4 — first in-batch touches.  Non-residents
        # always miss.  A batch-start resident x survives until its
        # first touch iff fewer than ``capacity`` pages outrank it the
        # whole way: the distinct pages touched before it plus the
        # residents with younger pre-batch stamps, minus the overlap
        # (already-touched residents whose stamp was younger — their
        # touch moved them from one group to the other, not two).
        was_resident = resident[unique_pids] != 0
        miss3_pos = group_first[~was_resident]
        first4 = group_first[was_resident]
        page4 = unique_pids[was_resident]
        if first4.size:
            # ``firsts_le`` doubles as the first-touch rank table: a
            # queried first's rank is the count of firsts at or before
            # it, minus itself — no argsort needed.
            if firsts_le is None:
                firsts_le = np.cumsum(
                    np.bincount(group_first, minlength=n), dtype=np.int32
                )
            touched_before = firsts_le[first4] - 1
            # ``above`` only needs rank *counts*, not a rank table:
            # stamps are unique, so a binary search against the sorted
            # resident stamps replaces the argsort + scatter.
            sorted_last = np.sort(last[res_ids])
            above = res_ids.size - np.searchsorted(
                sorted_last, last[page4], side="right"
            )
            miss4 = touched_before >= capacity
            ambiguous = (touched_before + above >= capacity) & ~miss4
            if ambiguous.any():
                by_touch = np.argsort(first4)
                seq_pos = np.empty(first4.size, dtype=np.int64)
                seq_pos[by_touch] = np.arange(first4.size, dtype=np.int64)
                by_rank = np.argsort(last[page4[by_touch]])
                ranks = np.empty(first4.size, dtype=np.int64)
                ranks[by_rank] = np.arange(first4.size, dtype=np.int64)
                q_idx = seq_pos[ambiguous]
                q_rank = ranks[q_idx]
                overlap = q_idx - _block_count_lt(ranks, by_rank, q_idx, q_rank)
                miss4[ambiguous] = (
                    touched_before[ambiguous] + above[ambiguous] - overlap
                    >= capacity
                )
            miss4_pos = first4[miss4]
            miss4_page = page4[miss4]
        else:
            miss4_pos = np.empty(0, dtype=np.int64)
            miss4_page = np.empty(0, dtype=np.int64)

        # Relations are page-determined, so scattering first is safe
        # even for victims charged below.
        relation_table[unique_pids] = (refs[group_first] >> 1) & 15

        miss_positions = np.concatenate([miss3_pos, miss4_pos, c2_miss_pos])

        # Final residency: the ``capacity`` highest recencies among
        # touched pages (their new stamp) and untouched batch-start
        # residents (their old stamp).
        new_last = group_last + (pos0 + 1)
        mark[unique_pids] = True
        untouched = res_ids[~mark[res_ids]]
        mark[unique_pids] = False
        cand_ids = np.concatenate([unique_pids, untouched])
        cand_last = np.concatenate([new_last, last[untouched]])
        total = cand_ids.size
        new_used = total if total < capacity else capacity
        if total > new_used:
            keep = np.argpartition(cand_last, total - new_used)
            new_resident = cand_ids[keep[total - new_used :]]
        else:
            new_resident = cand_ids

        # Eviction multiset: each class-2 readmission and each class-4
        # miss records one earlier eviction of that same page, and any
        # candidate missing from the final residents was evicted once
        # after its last touch (or, untouched, at some point mid-batch).
        mark[new_resident] = True
        victims = np.concatenate(
            [
                miss4_page,
                unique_pids[~mark[unique_pids]],
                untouched[~mark[untouched]],
                pids[c2_miss_pos],
            ]
        )
        mark[new_resident] = False
        if victims.size:
            tally = np.bincount(
                relation_table[victims], minlength=len(self.eviction_counts)
            )
            evictions = self.eviction_counts
            for relation in np.flatnonzero(tally):
                evictions[relation] += int(tally[relation])

        resident[res_ids] = 0
        resident[new_resident] = 1
        last[unique_pids] = new_last
        self._res_ids = new_resident
        self._used = new_used
        self._pos = pos0 + n
        return miss_positions


class FifoArrayKernel(ArrayKernel):
    """First-in-first-out over a circular slot buffer.

    Hits never reorder; a full pool overwrites the slot at the head,
    which always holds the oldest admission.
    """

    policy_name = "fifo"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        self._page_of = [0] * capacity
        self._relation_of = bytearray(capacity)
        self._count = 0
        self._head = 0

    def __len__(self) -> int:
        return self._count

    def resident_page_ids(self) -> list[int]:
        if self._count < self._capacity:
            return list(self._page_of[: self._count])
        return list(self._page_of[self._head :] + self._page_of[: self._head])

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        slots = self._slots
        page_of = self._page_of
        relation_of = self._relation_of
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        capacity = self._capacity
        count = self._count
        head = self._head
        presized = highest_page_id >= 0
        table_size = len(slots)
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    table_size = len(slots)
            for ref in refs:
                page_id = ref >> 5
                if slots[page_id] >= 0:
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if count < capacity:
                    slot = count
                    count += 1
                else:
                    slot = head
                    slots[page_of[slot]] = -1
                    evictions[relation_of[slot]] += 1
                    head += 1
                    if head == capacity:
                        head = 0
                page_of[slot] = page_id
                relation_of[slot] = relation
                slots[page_id] = slot
        self._count = count
        self._head = head


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
        self._page_of = [0] * capacity
        self._relation_of = bytearray(capacity)
        self._referenced = bytearray(capacity)
        self._count = 0
        self._hand = 0

    def __len__(self) -> int:
        return self._count

    def resident_page_ids(self) -> list[int]:
        count = self._count
        if count == 0:
            return []
        hand = self._hand if count == self._capacity else 0
        return [self._page_of[(hand + i) % count] for i in range(count)]

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        slots = self._slots
        page_of = self._page_of
        relation_of = self._relation_of
        referenced = self._referenced
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        capacity = self._capacity
        count = self._count
        hand = self._hand
        presized = highest_page_id >= 0
        table_size = len(slots)
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    table_size = len(slots)
            for ref in refs:
                page_id = ref >> 5
                frame = slots[page_id]
                if frame >= 0:
                    referenced[frame] = 1
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if count < capacity:
                    frame = count
                    count += 1
                else:
                    while referenced[hand]:
                        referenced[hand] = 0
                        hand += 1
                        if hand == capacity:
                            hand = 0
                    slots[page_of[hand]] = -1
                    evictions[relation_of[hand]] += 1
                    frame = hand
                    hand += 1
                    if hand == capacity:
                        hand = 0
                page_of[frame] = page_id
                relation_of[frame] = relation
                referenced[frame] = 0
                slots[page_id] = frame
        self._count = count
        self._hand = hand


class LfuArrayKernel(ArrayKernel):
    """Least-frequently-used with lazy heap invalidation.

    Mirrors ``LfuPolicy`` entry for entry: every touch pushes
    ``(count, tick, page)``, every admission ``(1, tick, page)``, and
    victims are popped until an entry's recorded count matches the
    page's live count while resident — so stale entries (including
    count-1 entries from a previous residency) are skipped or reused in
    exactly the same order as the object policy.
    """

    policy_name = "lfu"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        size = len(self._slots)
        self._count_of = [0] * size
        self._relation_of = bytearray(size)
        self._heap: list[tuple[int, int, int]] = []
        self._tick = 0
        self._used = 0

    def _grow_slots(self, highest_page_id: int) -> None:
        old = len(self._slots)
        super()._grow_slots(highest_page_id)
        grow = len(self._slots) - old
        self._count_of.extend([0] * grow)
        self._relation_of.extend(b"\x00" * grow)

    def __len__(self) -> int:
        return self._used

    def resident_page_ids(self) -> list[int]:
        # Replay the lazy heap on copies: victims first, exactly the
        # order the live kernel would evict in if no further touches
        # arrived.
        heap = list(self._heap)
        slots = list(self._slots)
        counts = self._count_of
        out = []
        while heap:
            count, _, page = heapq.heappop(heap)
            if slots[page] >= 0 and counts[page] == count:
                slots[page] = -1
                out.append(page)
        return out

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        slots = self._slots
        counts = self._count_of
        relation_of = self._relation_of
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        capacity = self._capacity
        heap = self._heap
        tick = self._tick
        used = self._used
        push = heapq.heappush
        pop = heapq.heappop
        presized = highest_page_id >= 0
        table_size = len(slots)
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    slots = self._slots
                    counts = self._count_of
                    relation_of = self._relation_of
                    table_size = len(slots)
            for ref in refs:
                page_id = ref >> 5
                if slots[page_id] >= 0:
                    count = counts[page_id] + 1
                    counts[page_id] = count
                    tick += 1
                    push(heap, (count, tick, page_id))
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if used < capacity:
                    used += 1
                else:
                    while True:
                        count, _, victim = pop(heap)
                        if slots[victim] >= 0 and counts[victim] == count:
                            break
                    slots[victim] = -1
                    evictions[relation_of[victim]] += 1
                slots[page_id] = 0
                relation_of[page_id] = relation
                counts[page_id] = 1
                tick += 1
                push(heap, (1, tick, page_id))
        self._tick = tick
        self._used = used


class MruArrayKernel(ArrayKernel):
    """Most-recently-used with lazy heap invalidation.

    The dual of the scalar LRU path: every touch and admission records
    the reference position and pushes ``(-position, page)`` onto a
    max-heap, so popping yields the *newest* resident page.  Stale
    entries are skipped when the recorded position no longer matches
    the page's live last-touch position — exactly the order
    ``MruPolicy``'s recency stack evicts in.
    """

    policy_name = "mru"

    def __init__(
        self, capacity: int, space: PageIdSpace, transaction_types: int
    ) -> None:
        super().__init__(capacity, space, transaction_types)
        size = len(self._slots)
        self._last_of = [0] * size
        self._relation_of = bytearray(size)
        self._heap: list[tuple[int, int]] = []
        self._tick = 0
        self._used = 0

    def _grow_slots(self, highest_page_id: int) -> None:
        old = len(self._slots)
        super()._grow_slots(highest_page_id)
        grow = len(self._slots) - old
        self._last_of.extend([0] * grow)
        self._relation_of.extend(b"\x00" * grow)

    def __len__(self) -> int:
        return self._used

    def resident_page_ids(self) -> list[int]:
        # Replay the lazy heap on copies: victims first — the newest
        # resident pops first, then the newest of the remainder, which
        # is the recency stack in reverse.
        heap = list(self._heap)
        slots = list(self._slots)
        last = self._last_of
        out = []
        while heap:
            neg_pos, page = heapq.heappop(heap)
            if slots[page] >= 0 and last[page] == -neg_pos:
                slots[page] = -1
                out.append(page)
        return out

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        slots = self._slots
        last = self._last_of
        relation_of = self._relation_of
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        capacity = self._capacity
        heap = self._heap
        tick = self._tick
        used = self._used
        push = heapq.heappush
        pop = heapq.heappop
        presized = highest_page_id >= 0
        table_size = len(slots)
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    slots = self._slots
                    last = self._last_of
                    relation_of = self._relation_of
                    table_size = len(slots)
            for ref in refs:
                page_id = ref >> 5
                if slots[page_id] >= 0:
                    tick += 1
                    last[page_id] = tick
                    push(heap, (-tick, page_id))
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if used < capacity:
                    used += 1
                else:
                    while True:
                        neg_pos, victim = pop(heap)
                        if slots[victim] >= 0 and last[victim] == -neg_pos:
                            break
                    slots[victim] = -1
                    evictions[relation_of[victim]] += 1
                tick += 1
                slots[page_id] = 0
                relation_of[page_id] = relation
                last[page_id] = tick
                push(heap, (-tick, page_id))
        self._tick = tick
        self._used = used


class TwoQArrayKernel(ArrayKernel):
    """Simplified 2Q: FIFO probation queue plus LRU main queue.

    Mirrors ``TwoQPolicy`` with int-keyed ordered dicts: admission
    evicts the probation head once probation is full; a second touch
    while on probation promotes to main, evicting the main LRU head on
    overflow — the one case where a *hit* produces a victim.
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
        self._relation_of = bytearray(len(self._slots))

    def _grow_slots(self, highest_page_id: int) -> None:
        old = len(self._slots)
        super()._grow_slots(highest_page_id)
        self._relation_of.extend(b"\x00" * (len(self._slots) - old))

    def __len__(self) -> int:
        return len(self._probation) + len(self._main)

    def resident_page_ids(self) -> list[int]:
        # Probation in FIFO order, then main in LRU order — each
        # queue's own victim order, admission victims first.
        return list(self._probation) + list(self._main)

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        slots = self._slots
        relation_of = self._relation_of
        probation = self._probation
        main = self._main
        move_main = main.move_to_end
        move_probation = probation.move_to_end
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        probation_capacity = self._probation_capacity
        main_capacity = self._main_capacity
        presized = highest_page_id >= 0
        table_size = len(slots)
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    slots = self._slots
                    relation_of = self._relation_of
                    table_size = len(slots)
            for ref in refs:
                page_id = ref >> 5
                where = slots[page_id]
                if where == 2:
                    move_main(page_id)
                    continue
                if where == 1:
                    if main_capacity == 0:  # degenerate single-frame pool
                        move_probation(page_id)
                        continue
                    # Promotion: second touch while on probation.
                    del probation[page_id]
                    if len(main) >= main_capacity:
                        victim, _ = main.popitem(last=False)
                        slots[victim] = -1
                        evictions[relation_of[victim]] += 1
                    main[page_id] = None
                    slots[page_id] = 2
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if len(probation) >= probation_capacity:
                    victim, _ = probation.popitem(last=False)
                    slots[victim] = -1
                    evictions[relation_of[victim]] += 1
                probation[page_id] = None
                slots[page_id] = 1
                relation_of[page_id] = relation


class LruKArrayKernel(ArrayKernel):
    """LRU-K over int page ids, mirroring ``LruKPolicy`` exactly.

    Keeps the same per-page reference-time deques (capped at K) and the
    same lazily invalidated heap of ``(kth-recent, tick, page)``
    entries; pages referenced fewer than K times rank below every fully
    referenced page via the same key offset.
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
        self._history: dict[int, deque[int]] = {}
        self._relation_of = bytearray(len(self._slots))
        self._heap: list[tuple[int, int, int]] = []
        self._tick = 0

    @property
    def k(self) -> int:
        return self._k

    def _grow_slots(self, highest_page_id: int) -> None:
        old = len(self._slots)
        super()._grow_slots(highest_page_id)
        self._relation_of.extend(b"\x00" * (len(self._slots) - old))

    def __len__(self) -> int:
        return len(self._history)

    def resident_page_ids(self) -> list[int]:
        heap = list(self._heap)
        history = dict(self._history)
        k = self._k
        out = []
        while heap:
            key, _, page = heapq.heappop(heap)
            entry = history.get(page)
            if entry is None:
                continue
            kth = entry[0] if len(entry) >= k else entry[0] - _UNDER_K
            if kth == key:
                del history[page]
                out.append(page)
        return out

    def process_many(self, blocks, highest_page_id: int = -1) -> None:
        if highest_page_id >= 0:
            self.ensure_page_capacity(highest_page_id)
        history_of = self._history
        relation_of = self._relation_of
        batch_misses = self.batch_misses
        tx_misses = self.tx_misses
        evictions = self.eviction_counts
        capacity = self._capacity
        k = self._k
        heap = self._heap
        tick = self._tick
        push = heapq.heappush
        pop = heapq.heappop
        get_history = history_of.get
        presized = highest_page_id >= 0
        table_size = len(self._slots)
        for refs, tx_base in blocks:
            if not refs:
                continue
            if not presized:
                highest = max(refs) >> REF_PID_SHIFT
                if highest >= table_size:
                    self._grow_slots(highest)
                    relation_of = self._relation_of
                    table_size = len(self._slots)
            for ref in refs:
                page_id = ref >> 5
                history = get_history(page_id)
                if history is not None:
                    tick += 1
                    history.append(tick)
                    key = (
                        history[0]
                        if len(history) >= k
                        else history[0] - _UNDER_K
                    )
                    push(heap, (key, tick, page_id))
                    continue
                relation = (ref >> 1) & 15
                batch_misses[relation] += 1
                tx_misses[tx_base + relation] += 1
                if len(history_of) >= capacity:
                    while True:
                        key, _, victim = pop(heap)
                        entry = get_history(victim)
                        if entry is None:
                            continue
                        kth = (
                            entry[0]
                            if len(entry) >= k
                            else entry[0] - _UNDER_K
                        )
                        if kth == key:
                            break
                    del history_of[victim]
                    evictions[relation_of[victim]] += 1
                history = deque(maxlen=k)
                history_of[page_id] = history
                relation_of[page_id] = relation
                tick += 1
                history.append(tick)
                key = history[0] if len(history) >= k else history[0] - _UNDER_K
                push(heap, (key, tick, page_id))
        self._tick = tick


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

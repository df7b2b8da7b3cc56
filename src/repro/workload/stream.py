"""Batched (vectorized) trace emission behind ``TraceGenerator.stream``.

:class:`VectorBatchEmitter` emits whole *batches* of transactions as a
single numpy array of int-encoded references: it draws the inputs of a
chunk of transactions column by column, resolves the chunk's order
bookkeeping at once and assembles the references group by group.
There is no per-transaction Python on this path.

Why the batch cuts do not matter: in the trace's
:class:`~repro.workload.generator.InputGenerator` every draw primitive
owns an independent child generator
(see :data:`~repro.workload.generator.SPLIT_STREAM_NAMES`), so a drawn
value depends only on how many draws *its own* primitive has made —
never on the interleaving across primitives.  The planner consumes
each substream in transaction order, and in line order within a
transaction, in whole-column ``draw_many_np`` calls.  Chunks cover a
fixed number of transactions and carry over across batches, so the
emitted trace is independent of ``batch_size`` and of the chunk size.

The order state is resolved a whole chunk at a time by
:class:`~repro.workload.state.ColumnarOrderState`, and that is
order-exact, not approximately so, for two reasons.  First, sequence
positions are arithmetic: the ``i``-th New-Order of the run takes
Order position ``initial + i`` wherever batches are cut, and the
``i``-th Payment History position ``i``.  Second, every query counts
only what precedes its own position in the chunk: a Stock-Level or a
Delivery sees the arrivals of its district *strictly before* it (one
binary search on the chunk's sorted ``(district, position)`` keys), an
Order-Status the customer's last New-Order strictly before it, falling
back to the order on record from earlier chunks.  Delivery is the one
transaction whose effect feeds later queries — it pops the queue head,
skipping an empty queue — and a district's head after its ``j``-th
Delivery of the chunk, ``S_j = min(S_{j-1} + 1, avail_j)``, has the
closed form ``S_j = j + min(S_0, min_{i<=j}(avail_i - i))``: a running
minimum, not a loop.  Every reference count is thus known when a chunk
is planned, the chunk's references are assembled column-wise into one
array in transaction order, and a batch is a cut of it.  The insertion
counters behind ``highest_page_id`` still advance by what each batch
*emitted*.  ``tests/property/test_stream_equivalence.py`` pins SHA-256
digests of the emitted blocks (and every batch's ``highest_page_id``)
for six configurations, and an independent ``deque``/``dict`` oracle
(``tests/property/test_order_state_oracle.py``) checks the resolution
itself at several chunk sizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.constants import (
    DISTRICTS_PER_WAREHOUSE,
    SELECT_BY_NAME_PROBABILITY,
    TUPLES_PER_NAME_SELECT,
)
from repro.workload.mix import TRANSACTION_ORDER, TransactionType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.workload.state import ChunkResolution
    from repro.workload.trace import TraceGenerator

#: Default reference budget per encoded batch.
DEFAULT_BATCH_SIZE = 65536

_N_TYPES = len(TRANSACTION_ORDER)
_NEW_ORDER_IDX = TRANSACTION_ORDER.index(TransactionType.NEW_ORDER)
_PAYMENT_IDX = TRANSACTION_ORDER.index(TransactionType.PAYMENT)
_ORDER_STATUS_IDX = TRANSACTION_ORDER.index(TransactionType.ORDER_STATUS)
_DELIVERY_IDX = TRANSACTION_ORDER.index(TransactionType.DELIVERY)
_STOCK_LEVEL_IDX = TRANSACTION_ORDER.index(TransactionType.STOCK_LEVEL)

#: Most transactions planned (inputs pre-drawn column-wise) per chunk.
#: Every substream is consumed in transaction order whatever the chunk
#: boundaries are, so the trace depends neither on this size nor on
#: batching; a transaction-bounded batch plans only what it still
#: needs (at least :data:`MIN_PLAN_TRANSACTIONS`).
PLAN_CHUNK_TRANSACTIONS = 4096
MIN_PLAN_TRANSACTIONS = 256

# Relation indexes, mirroring ``trace.RELATION_NAMES`` order (this
# module cannot import trace at runtime — trace imports it); the pinned
# digests cover ``tx_accesses``, which is built from these values.
_REL_DISTRICT = 1
_REL_CUSTOMER = 2
_REL_STOCK = 3
_REL_ORDER = 5
_REL_NEW_ORDER = 6
_REL_ORDER_LINE = 7


class EncodedBatch:
    """One batch of int-encoded transactions in generation order.

    ``refs`` holds every reference of the batch back to back in exact
    transaction order (``(page_id << 5) | (relation << 1) | write``);
    ``tx_indices``/``tx_lengths`` delimit the per-transaction spans.
    ``tx_accesses`` pre-aggregates the per-(type, relation) access
    counts so consumers fold statistics with ~45 adds per batch
    instead of nine per transaction.
    """

    __slots__ = ("refs", "tx_indices", "tx_lengths", "tx_accesses", "highest_page_id")

    def __init__(
        self,
        refs: np.ndarray,
        tx_indices: np.ndarray,
        tx_lengths: np.ndarray,
        tx_accesses: np.ndarray,
        highest_page_id: int,
    ):
        self.refs = refs
        self.tx_indices = tx_indices
        self.tx_lengths = tx_lengths
        self.tx_accesses = tx_accesses
        self.highest_page_id = highest_page_id

    @classmethod
    def of_refs(cls, refs: np.ndarray, highest_page_id: int) -> "EncodedBatch":
        """Wrap bare encoded references as one anonymous transaction.

        For consumers that replay a prepared reference array (a saved
        trace, a node's routed stream) and only want per-relation
        totals: the whole array is a single span filed under type index
        0, so :attr:`accesses` is exact and per-type attribution is
        meaningless.
        """
        tx_accesses = np.zeros((_N_TYPES, 9), dtype=np.int64)
        tx_accesses[0] = np.bincount((refs >> 1) & 0xF, minlength=9)
        return cls(
            refs,
            np.zeros(1, dtype=np.int64),
            _empty_i64([len(refs)]),
            tx_accesses,
            highest_page_id,
        )

    def split(self, transactions: int) -> tuple["EncodedBatch", "EncodedBatch"]:
        """The first ``transactions`` transactions and the rest.

        Both parts keep this batch's ``highest_page_id``, which bounds
        every page id either holds (consumers only pre-size page tables
        with it).  The head's access counts are counted from its
        references and the tail's are the remainder.
        """
        lengths = self.tx_lengths
        cut = int(lengths[:transactions].sum())
        head_types = self.tx_indices[:transactions]
        head_accesses = np.bincount(
            np.repeat(head_types, lengths[:transactions]) * 9
            + ((self.refs[:cut] >> 1) & 0xF),
            minlength=_N_TYPES * 9,
        ).reshape(_N_TYPES, 9)
        return (
            EncodedBatch(
                self.refs[:cut],
                head_types,
                lengths[:transactions],
                head_accesses,
                self.highest_page_id,
            ),
            EncodedBatch(
                self.refs[cut:],
                self.tx_indices[transactions:],
                lengths[transactions:],
                self.tx_accesses - head_accesses,
                self.highest_page_id,
            ),
        )

    @property
    def references(self) -> int:
        """Total references in the batch."""
        return len(self.refs)

    @property
    def transactions(self) -> int:
        """Total transactions in the batch."""
        return len(self.tx_indices)

    @property
    def accesses(self) -> np.ndarray:
        """Per-relation access counts summed over transaction types."""
        return self.tx_accesses.sum(axis=0)


def _empty_i64(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _cat_arrays(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate a handful of array parts (pass-through for one)."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def select_payment_customers(
    count: int, select_float, customer_sampler, band_block, name_samplers
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columnar Payment customer selection for ``count`` transactions.

    Returns ``(by_name, singles, name_mat, write_col)``: the by-name
    mask, the by-id customers in occurrence order, one row of
    ``TUPLES_PER_NAME_SELECT`` ids per by-name selection, and per row
    the column that takes the write (the first occurrence of the median
    id).  Each substream is consumed in transaction order: selection
    floats, by-id customers, bands, then each band's names in
    occurrence order.
    """
    by_name = select_float.draw_many_np(count) < SELECT_BY_NAME_PROBABILITY
    n_by = int(np.count_nonzero(by_name))
    # ``draw_many_np`` views may alias a live refill buffer; the by-id
    # column outlives this call, so it is copied.
    singles = customer_sampler.draw_many_np(count - n_by).copy()
    tuple_count = TUPLES_PER_NAME_SELECT
    name_mat = np.empty((n_by, tuple_count), dtype=np.int64)
    if n_by:
        bands = band_block.draw_many_np(n_by)
        for band, sampler in enumerate(name_samplers):
            at = np.flatnonzero(bands == band)
            if at.size:
                draws = sampler.draw_many_np(tuple_count * int(at.size))
                name_mat[at] = draws.reshape(-1, tuple_count)
    median = np.sort(name_mat, axis=1)[:, tuple_count // 2]
    write_col = np.argmax(name_mat == median[:, None], axis=1)
    return by_name, singles, name_mat, write_col


class _PlannedChunk:
    """One planned chunk, fully resolved and assembled.

    ``refs`` holds every reference of the chunk's transactions back to
    back; ``cum[i]`` is the number of references before transaction
    ``i``.  ``weights`` carries the one per-transaction quantity the
    access counts still depend on (Payment: 1 if by name; Order-Status:
    customers read; Delivery: orders delivered; Stock-Level: orders
    scanned).
    """

    __slots__ = ("types", "lengths", "cum", "weights", "refs")

    def __init__(
        self,
        types: np.ndarray,
        lengths: np.ndarray,
        weights: np.ndarray,
        refs: np.ndarray,
        cum: np.ndarray,
    ):
        self.types = types
        self.lengths = lengths
        self.weights = weights
        self.refs = refs
        self.cum = cum


class VectorBatchEmitter:
    """Column-wise batch builder over a chunked columnar input planner.

    The planner pre-draws whole input columns per transaction type for
    a chunk of transactions (one ``draw_many_np`` per substream), has
    the columnar order state resolve every Order-Status, Delivery and
    Stock-Level of the chunk at once, and assembles the chunk's
    references group by group into one array in transaction order.  A
    batch is then a cut of that array (of a few, when it crosses chunk
    boundaries) found by one binary search on the cumulative reference
    counts.  Chunks carry over across batches.
    """

    def __init__(self, trace: "TraceGenerator"):
        self._trace = trace
        # The shared, read-only layout tables; the write-tagged offsets
        # differ from the read ones only in the low (write) bit, so a
        # single table plus ``+ 1`` covers both.
        self._tables = tables = trace._tables
        self._item_ref_r = tables.item_ref_r
        self._stock_off_w = tables.stock_off_w
        self._customer_off_r = tables.customer_off_r
        self._customer_off_w = tables.customer_off_w
        self._lines = trace.config.items_per_order
        self._no_width = 5 + 3 * self._lines
        self._pay_many_width = 2 + TUPLES_PER_NAME_SELECT + 1
        self._state = trace._orders
        # Access counts by (type, relation) are linear in two numbers
        # per type: how many transactions, and the sum of their chunk
        # ``weights``.  Every order — live, primed, or initial —
        # carries exactly ``lines`` order lines.
        lines = self._lines
        per_tx = np.zeros((_N_TYPES, 9), dtype=np.int64)
        per_weight = np.zeros((_N_TYPES, 9), dtype=np.int64)
        per_tx[_NEW_ORDER_IDX] = trace._counts_new_order
        per_tx[_PAYMENT_IDX] = trace._counts_payment_one
        per_weight[_PAYMENT_IDX] = (
            np.array(trace._counts_payment_many) - trace._counts_payment_one
        )
        per_tx[_ORDER_STATUS_IDX, [_REL_ORDER, _REL_ORDER_LINE]] = 1, lines
        per_weight[_ORDER_STATUS_IDX, _REL_CUSTOMER] = 1
        per_weight[
            _DELIVERY_IDX, [_REL_CUSTOMER, _REL_ORDER, _REL_NEW_ORDER, _REL_ORDER_LINE]
        ] = 1, 1, 1, lines
        per_tx[_STOCK_LEVEL_IDX, _REL_DISTRICT] = 1
        per_weight[_STOCK_LEVEL_IDX, [_REL_STOCK, _REL_ORDER_LINE]] = lines
        self._accesses_per_tx = per_tx
        self._accesses_per_weight = per_weight
        # The current planned chunk and the next unemitted position in
        # it (carry over between batches); History positions are handed
        # out at plan time, ahead of the emitted-row counter.
        empty = np.empty(0, dtype=np.int64)
        self._chunk = _PlannedChunk(empty, empty, empty, empty, np.zeros(1, np.int64))
        self._pos = 0
        self._planned_payments = 0

    # -- columnar input planning --------------------------------------------

    def _plan_chunk(self, size: int) -> _PlannedChunk:
        """Draw, resolve and assemble the next ``size`` transactions."""
        trace = self._trace
        generator = trace._generator
        lines = self._lines
        types = trace._next_tx_indices(size)
        no_pos, p_pos, os_pos, d_pos, sl_pos = (
            np.flatnonzero(types == index) for index in range(_N_TYPES)
        )
        n_no, n_p, n_os, n_d, n_sl = (
            len(no_pos), len(p_pos), len(os_pos), len(d_pos), len(sl_pos)
        )
        lengths = np.empty(size, dtype=np.int64)
        weights = np.zeros(size, dtype=np.int64)

        # ``draw_many_np`` hands out read-only views of refill blocks;
        # nothing below writes into one.
        no_w = generator._no_warehouse.draw_many_np(n_no)
        no_items = generator._no_item.draw_many_np(n_no * lines)
        flags = generator._no_flags.draw_many_np(n_no * lines)
        # Remote stock lines as flat (line position, via) arrays.
        remote_pos = remote_via = np.empty(0, dtype=np.int64)
        block = generator._no_remote
        if block is not None:
            remote_pos = np.flatnonzero(flags < generator._remote_stock_probability)
            raw = block.draw_many_np(len(remote_pos))
            # _remote_from: ``other if other < home else other + 1``.
            remote_via = raw + (raw >= no_w[remote_pos // lines])
        no_district = (no_w - 1) * DISTRICTS_PER_WAREHOUSE + (
            generator._no_district.draw_many_np(n_no) - 1
        )
        no_customer = generator._no_customer.draw_many_np(n_no)

        os_by_name, os_singles, os_names, os_median_col = select_payment_customers(
            n_os,
            generator._os_select_float,
            generator._os_customer,
            generator._os_band,
            generator._os_names,
        )
        os_selected = np.empty(n_os, dtype=np.int64)
        os_selected[~os_by_name] = os_singles
        os_selected[os_by_name] = os_names[np.arange(len(os_names)), os_median_col]
        os_district = (
            generator._os_warehouse.draw_many_np(n_os) - 1
        ) * DISTRICTS_PER_WAREHOUSE + (generator._os_district.draw_many_np(n_os) - 1)

        d_warehouse = generator._d_warehouse.draw_many_np(n_d) - 1
        sl_w = generator._sl_warehouse.draw_many_np(n_sl)
        sl_district = (sl_w - 1) * DISTRICTS_PER_WAREHOUSE + (
            generator._sl_district.draw_many_np(n_sl) - 1
        )
        # Threshold draws are consumed (the substream stays in step with
        # the transactions) but do not change which pages are touched.
        generator._sl_threshold.draw_many_np(n_sl)

        resolved = self._state.resolve_chunk(
            size,
            no_pos,
            no_district,
            no_customer,
            no_items.reshape(n_no, lines),
            os_pos,
            os_district,
            os_selected,
            d_pos,
            d_warehouse,
            sl_pos,
            sl_district,
        )

        lengths[no_pos] = self._no_width
        os_ncust = np.where(os_by_name, TUPLES_PER_NAME_SELECT, 1)
        lengths[os_pos] = os_ncust + (1 + lines)
        weights[os_pos] = os_ncust
        lengths[d_pos] = resolved.delivered_counts * (3 + lines)
        weights[d_pos] = resolved.delivered_counts
        lengths[sl_pos] = 1 + 2 * lines * resolved.scanned_counts
        weights[sl_pos] = resolved.scanned_counts
        payment = self._plan_payments(n_p)
        lengths[p_pos] = np.where(payment[0], self._pay_many_width, 4)
        weights[p_pos] = payment[0]

        cum = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lengths, out=cum[1:])
        starts = cum[:-1]
        out = np.empty(int(cum[-1]), dtype=np.int64)
        self._assemble_new_order(
            out,
            starts[no_pos],
            no_w,
            no_district,
            no_customer,
            resolved.placed_order_seq,
            resolved.placed_new_order_seq,
            no_items,
            remote_pos,
            remote_via,
        )
        self._assemble_payments(out, starts[p_pos], *payment)
        self._assemble_order_status(
            out,
            starts[os_pos],
            os_district,
            os_by_name,
            os_singles,
            os_names,
            resolved.last_order_seq,
        )
        self._assemble_delivery(out, starts[d_pos], resolved)
        self._assemble_stock_level(out, starts[sl_pos], sl_w, sl_district, resolved)
        self._chunk = chunk = _PlannedChunk(types, lengths, weights, out, cum)
        self._pos = 0
        return chunk

    def _plan_payments(self, count: int) -> tuple[np.ndarray, ...]:
        """Input columns of ``count`` Payments.

        Each substream is consumed in transaction order: warehouse,
        home district, remote floats, remote warehouses, remote
        districts, selection floats, by-id customers, bands, then each
        band's names in occurrence order.
        """
        generator = self._trace._generator
        warehouse = generator._p_warehouse.draw_many_np(count)
        district = (warehouse - 1) * DISTRICTS_PER_WAREHOUSE + (
            generator._p_district_home.draw_many_np(count) - 1
        )
        cust_district = district.copy()
        remote_at = np.flatnonzero(
            generator._p_remote_float.draw_many_np(count)
            < generator._remote_payment_probability
        )
        if remote_at.size:
            cust_warehouse = warehouse[remote_at]
            block = generator._p_remote
            if block is not None:
                raw = block.draw_many_np(int(remote_at.size))
                cust_warehouse = raw + (raw >= cust_warehouse)
            cust_district[remote_at] = (
                cust_warehouse - 1
            ) * DISTRICTS_PER_WAREHOUSE + (
                generator._p_district_cust.draw_many_np(int(remote_at.size)) - 1
            )
        by_name, singles, names, write_col = select_payment_customers(
            count,
            generator._p_select_float,
            generator._p_customer,
            generator._p_band,
            generator._p_names,
        )
        history = self._planned_payments + np.arange(count, dtype=np.int64)
        self._planned_payments += count
        return by_name, warehouse, district, cust_district, singles, names, write_col, history

    # -- batch cutting ------------------------------------------------------

    def next_batch(
        self, *, min_refs: int | None = None, transactions: int | None = None
    ) -> EncodedBatch:
        by_refs = transactions is None
        if transactions is None:
            remaining = min_refs if min_refs is not None else DEFAULT_BATCH_SIZE
        else:
            remaining = transactions
        # A batch spans at most a handful of planner chunks: one
        # (chunk, first, stop) cut per chunk it touches.
        cuts: list[tuple[_PlannedChunk, int, int]] = []
        while remaining > 0:
            chunk = self._chunk
            first = self._pos
            if first >= len(chunk.types):
                chunk = self._plan_chunk(
                    PLAN_CHUNK_TRANSACTIONS
                    if by_refs
                    else min(
                        PLAN_CHUNK_TRANSACTIONS,
                        max(MIN_PLAN_TRANSACTIONS, remaining),
                    )
                )
                first = 0
            size = len(chunk.types)
            if by_refs:
                # The first transaction whose end reaches the bound.
                stop = min(
                    int(np.searchsorted(chunk.cum, chunk.cum[first] + remaining)),
                    size,
                )
                remaining -= int(chunk.cum[stop] - chunk.cum[first])
            else:
                stop = min(first + remaining, size)
                remaining -= stop - first
            cuts.append((chunk, first, stop))
            self._pos = stop

        tx_indices = _cat_arrays([c.types[a:b] for c, a, b in cuts])
        weights = _cat_arrays([c.weights[a:b] for c, a, b in cuts])
        counts = np.bincount(tx_indices, minlength=_N_TYPES)
        sums = np.bincount(tx_indices, weights=weights, minlength=_N_TYPES)
        # The insertion counters follow what was emitted, not planned.
        self._state.record_emitted(
            int(counts[_NEW_ORDER_IDX]), int(counts[_PAYMENT_IDX])
        )
        return EncodedBatch(
            _cat_arrays([c.refs[c.cum[a] : c.cum[b]] for c, a, b in cuts]),
            tx_indices,
            _cat_arrays([c.lengths[a:b] for c, a, b in cuts]),
            counts[:, None] * self._accesses_per_tx
            + sums.astype(np.int64)[:, None] * self._accesses_per_weight,
            self._trace.highest_page_id(),
        )

    # -- per-group assembly --------------------------------------------------
    #
    # Districts are 0-based indexes ``(warehouse - 1) * 10 + district - 1``
    # (the Customer block number); warehouses and customers 1-based ids.

    def _district_refs(self, district: np.ndarray, tag: int) -> np.ndarray:
        return ((district // self._tables.district_tpp) << 5) + tag

    def _customer_base5(self, district: np.ndarray) -> np.ndarray:
        return (district * self._tables.customer_ppb) << 5

    def _order_line_refs(self, order_seq: np.ndarray, tag: int) -> np.ndarray:
        """One row of Order-Line references per order (``lines`` each)."""
        tables = self._tables
        lines = self._lines
        pages = (
            (order_seq * lines)[:, None] + np.arange(lines, dtype=np.int64)
        ) // tables.tpp_order_line
        return (pages << tables.growing_shift) + tag

    def _assemble_new_order(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        warehouse: np.ndarray,
        district: np.ndarray,
        customer: np.ndarray,
        order_seq: np.ndarray,
        new_seq: np.ndarray,
        items: np.ndarray,
        remote_pos: np.ndarray,
        remote_via: np.ndarray,
    ) -> None:
        tables = self._tables
        lines = self._lines
        count = len(warehouse)
        mat = np.empty((count, self._no_width), dtype=np.int64)
        mat[:, 0] = (
            ((warehouse - 1) // tables.warehouse_tpp) << 5
        ) + tables.tag_warehouse_r
        mat[:, 1] = self._district_refs(district, tables.tag_district_w)
        mat[:, 2] = self._customer_base5(district) + self._customer_off_r[customer - 1]
        gshift = tables.growing_shift
        mat[:, 3] = (
            (order_seq // tables.tpp_order) << gshift
        ) + tables.tag_order_w
        mat[:, 4] = (
            (new_seq // tables.tpp_new_order) << gshift
        ) + tables.tag_new_order_w
        mat[:, 5::3] = self._item_ref_r[items - 1].reshape(count, lines)
        stock_base5 = np.repeat(((warehouse - 1) * tables.stock_ppb) << 5, lines)
        stock_base5[remote_pos] = ((remote_via - 1) * tables.stock_ppb) << 5
        mat[:, 6::3] = (stock_base5 + self._stock_off_w[items - 1]).reshape(
            count, lines
        )
        mat[:, 7::3] = self._order_line_refs(order_seq, tables.tag_order_line_w)
        out[starts[:, None] + np.arange(self._no_width, dtype=np.int64)] = mat

    def _assemble_payments(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        by_name: np.ndarray,
        warehouse: np.ndarray,
        district: np.ndarray,
        cust_district: np.ndarray,
        singles: np.ndarray,
        names: np.ndarray,
        write_col: np.ndarray,
        history: np.ndarray,
    ) -> None:
        """Scatter Payment refs: warehouse and district writes, the
        customer selection (one written id, or the same-named candidates
        with the median written at its first occurrence), a History
        append."""
        tables = self._tables
        out[starts] = (
            ((warehouse - 1) // tables.warehouse_tpp) << 5
        ) + tables.tag_warehouse_w
        out[starts + 1] = self._district_refs(district, tables.tag_district_w)
        base5 = self._customer_base5(cust_district)
        one = starts[~by_name] + 2
        # Write-tagged customer offsets are the read offsets plus the
        # write bit in the encoding's lowest position.
        out[one] = base5[~by_name] + self._customer_off_r[singles - 1] + 1
        cust = base5[by_name][:, None] + self._customer_off_r[names - 1]
        cust[np.arange(len(cust)), write_col] += 1
        many = starts[by_name] + 2
        out[many[:, None] + np.arange(TUPLES_PER_NAME_SELECT, dtype=np.int64)] = cust
        history_at = starts + np.where(by_name, self._pay_many_width - 1, 3)
        out[history_at] = (
            (history // tables.tpp_history) << tables.growing_shift
        ) + tables.tag_history_w

    def _assemble_order_status(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        district: np.ndarray,
        by_name: np.ndarray,
        singles: np.ndarray,
        names: np.ndarray,
        order_seq: np.ndarray,
    ) -> None:
        """Scatter Order-Status refs: the selection's customer reads,
        then the last order's Order read and one Order-Line read per
        line."""
        tables = self._tables
        base5 = self._customer_base5(district)
        out[starts[~by_name]] = base5[~by_name] + self._customer_off_r[singles - 1]
        width = TUPLES_PER_NAME_SELECT
        out[starts[by_name][:, None] + np.arange(width, dtype=np.int64)] = (
            base5[by_name][:, None] + self._customer_off_r[names - 1]
        )
        order_at = starts + np.where(by_name, width, 1)
        out[order_at] = (
            (order_seq // tables.tpp_order) << tables.growing_shift
        ) + tables.tag_order_r
        out[
            (order_at + 1)[:, None] + np.arange(self._lines, dtype=np.int64)
        ] = self._order_line_refs(order_seq, tables.tag_order_line_r)

    def _assemble_delivery(
        self, out: np.ndarray, starts: np.ndarray, resolved: "ChunkResolution"
    ) -> None:
        """Scatter Delivery refs: per delivered order
        ``[new_order, order, order_line x lines, customer]``."""
        tables = self._tables
        gshift = tables.growing_shift
        lines = self._lines
        width = lines + 3
        counts = resolved.delivered_counts
        mat = np.empty((len(resolved.delivered_order_seq), width), dtype=np.int64)
        mat[:, 0] = (
            (resolved.delivered_new_order_seq // tables.tpp_new_order) << gshift
        ) + tables.tag_new_order_w
        mat[:, 1] = (
            (resolved.delivered_order_seq // tables.tpp_order) << gshift
        ) + tables.tag_order_w
        mat[:, 2 : 2 + lines] = self._order_line_refs(
            resolved.delivered_order_seq, tables.tag_order_line_w
        )
        mat[:, width - 1] = (
            self._customer_base5(resolved.delivered_district)
            + self._customer_off_w[resolved.delivered_customer - 1]
        )
        # A Delivery's orders sit back to back in its span.
        nth = np.arange(len(mat), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        out[
            (np.repeat(starts, counts) + nth * width)[:, None]
            + np.arange(width, dtype=np.int64)
        ] = mat

    def _assemble_stock_level(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        warehouse: np.ndarray,
        district: np.ndarray,
        resolved: "ChunkResolution",
    ) -> None:
        """Scatter Stock-Level refs: a district read followed by
        interleaved ``(order_line, stock)`` pairs per scanned line."""
        tables = self._tables
        lines = self._lines
        out[starts] = self._district_refs(district, tables.tag_district_r)
        counts = resolved.scanned_counts
        pairs = np.empty((len(resolved.scanned_order_seq), lines, 2), dtype=np.int64)
        pairs[:, :, 0] = self._order_line_refs(
            resolved.scanned_order_seq, tables.tag_order_line_r
        )
        # Read-tagged stock offsets are the write-tagged ones minus the
        # write bit in the encoding's lowest position.
        pairs[:, :, 1] = np.repeat(((warehouse - 1) * tables.stock_ppb) << 5, counts)[
            :, None
        ] + (self._stock_off_w[resolved.scanned_items - 1] - 1)
        pair_lens = 2 * lines * counts
        pair_excl = np.cumsum(pair_lens) - pair_lens
        out[
            np.repeat(starts + 1 - pair_excl, pair_lens)
            + np.arange(pairs.size, dtype=np.int64)
        ] = pairs.ravel()

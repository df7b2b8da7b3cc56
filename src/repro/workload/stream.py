"""Batched (vectorized) trace emission behind ``TraceGenerator.stream``.

The scalar encoders in :mod:`repro.workload.trace` build one Python
list of int-encoded references per transaction; at paper scale that
list assembly — not the random draws — dominates trace-generation
time.  This module emits whole *batches* of transactions as a single
numpy array instead: :class:`VectorBatchEmitter` is the one production
path, :class:`ScalarBatchEmitter` the reference the property suite
holds it to.

Equivalence argument (the batch path is byte-identical to the scalar
reference): the trace's :class:`~repro.workload.generator.InputGenerator`
runs in split-stream mode, where every draw primitive owns an
independent child generator (see
:data:`~repro.workload.generator.SPLIT_STREAM_NAMES`), so a drawn
value depends only on how many draws *its own* primitive has made —
never on the interleaving across primitives.  The chunk planner
consumes each substream in the same within-substream order as the
scalar ``*_raw()`` methods (transaction order, and line order within a
transaction), just grouped into whole-column ``draw_many`` calls; the
underlying numpy bit streams are therefore consumed identically.
Chunks cover a fixed number of transactions and carry over across
batches, so the emitted trace is independent of ``batch_size``.
Workload-state transitions (order/history sequence numbers) happen in
the consumption pass in exact transaction order.  Only the *assembly*
of the already-determined references is vectorized: New-Order and
Payment (fixed-shape, ~80% of references) are computed column-wise and
scattered into the output array; the stateful transactions
(Order-Status, Delivery, Stock-Level) record just their state
resolution (last-order lookups, queue pops, recent-list scans) in the
consumption pass, and their references are likewise derived
column-wise from the recorded positions.  The property suite asserts
byte identity of the resulting blocks per seed.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.constants import (
    DISTRICTS_PER_WAREHOUSE,
    SELECT_BY_NAME_PROBABILITY,
    TUPLES_PER_NAME_SELECT,
)
from repro.errors import InvariantViolationError
from repro.workload.mix import TRANSACTION_ORDER, TransactionType
from repro.workload.state import OrderRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.workload.trace import TraceGenerator

#: Default reference budget per encoded batch.
DEFAULT_BATCH_SIZE = 65536

#: Stream output formats accepted by ``TraceGenerator.stream``.
STREAM_FORMATS = ("objects", "encoded")

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

# Batch-assembly group codes (per transaction).
_G_NEW_ORDER = 0
_G_PAYMENT_ONE = 1
_G_PAYMENT_MANY = 2
_G_DELIVERY = 3
_G_STOCK_LEVEL = 4
_G_ORDER_STATUS = 5

# Relation indexes, mirroring ``trace.RELATION_NAMES`` order (this
# module cannot import trace at runtime — trace imports it); the
# byte-identity suite compares ``tx_accesses`` against the scalar
# path, which pins these values.
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


def _cat_lists(parts: list) -> list:
    """Concatenate a handful of list parts (pass-through for one)."""
    if not parts:
        return []
    if len(parts) == 1:
        return list(parts[0])
    out: list = []
    for part in parts:
        out += part
    return out


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
    id, as in the scalar ``tpl.index(sorted(tpl)[mid])``).  Each
    substream is consumed exactly as the scalar
    ``_customer_tuples_from`` does per transaction: selection floats,
    by-id customers, bands, then each band's names in occurrence order.
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


class ScalarBatchEmitter:
    """Reference batch builder over the scalar per-transaction encoders.

    Byte-for-byte this is the pre-vectorization trace: it simply
    concatenates ``_transaction_encoded`` outputs.  The property suite
    compares its batches against :class:`VectorBatchEmitter`'s.
    """

    def __init__(self, trace: "TraceGenerator"):
        self._trace = trace

    def next_batch(
        self, *, min_refs: int | None = None, transactions: int | None = None
    ) -> EncodedBatch:
        trace = self._trace
        refs: list[int] = []
        tx_indices: list[int] = []
        tx_lengths: list[int] = []
        tx_accesses = np.zeros((_N_TYPES, 9), dtype=np.int64)
        acc = tx_accesses.tolist()
        produced = 0
        while (
            produced < transactions
            if transactions is not None
            else len(refs) < (min_refs if min_refs is not None else DEFAULT_BATCH_SIZE)
        ):
            tx_index, tx_refs, counts = trace._transaction_encoded()
            refs += tx_refs
            tx_indices.append(tx_index)
            tx_lengths.append(len(tx_refs))
            row = acc[tx_index]
            for relation in range(9):
                row[relation] += counts[relation]
            produced += 1
        return EncodedBatch(
            _empty_i64(refs),
            _empty_i64(tx_indices),
            _empty_i64(tx_lengths),
            np.array(acc, dtype=np.int64),
            trace.highest_page_id(),
        )


class VectorBatchEmitter:
    """Column-wise batch builder over a chunked columnar input planner.

    The planner pre-draws whole input columns per transaction type for
    a fixed-size chunk of transactions (one ``draw_many`` per
    substream instead of per-transaction scalar draws); the consumption
    pass then walks the chunk in transaction order, applying
    workload-state transitions and collecting assembly columns; the
    assembly pass computes New-Order and Payment references as numpy
    columns and scatters every group into one output array in
    transaction order.  Chunks carry over across batches.
    """

    def __init__(self, trace: "TraceGenerator"):
        self._trace = trace
        if not trace._generator._split:
            raise InvariantViolationError(
                "VectorBatchEmitter requires a split-stream InputGenerator"
            )
        # numpy copies of the per-tuple encoded-offset tables; the
        # write-tagged variants differ from the read ones only in the
        # low (write) bit, so a single table plus ``+ 1`` covers both.
        self._item_ref_r = trace._item_ref_r_np
        self._stock_off_w = trace._stock_off_w_np
        self._customer_off_r = trace._customer_off_r_np
        self._customer_off_w = trace._customer_off_w_np
        self._lines = trace.config.items_per_order
        self._no_width = 5 + 3 * self._lines
        self._pay_many_width = 2 + TUPLES_PER_NAME_SELECT + 1
        # Planned-chunk state (carries over between batches).
        self._ck_types: list[int] = []
        self._ck_pos = 0
        empty = np.empty(0, dtype=np.int64)
        self._ck_no: tuple = ((), (), (), (), [], empty, empty, (), empty, empty, empty)
        self._ck_no_ptr = 0
        self._ck_p_plan: tuple = ([], [0], [0], *([empty] * 9))
        self._ck_p_ptr = 0
        self._ck_os: tuple = ((), (), (), (), [0], empty)
        self._ck_os_ptr = 0
        self._ck_d: Sequence[int] = ()
        self._ck_d_ptr = 0
        self._ck_sl: tuple = ((), ())
        self._ck_sl_ptr = 0
        self._ck_group_np = np.empty(0, dtype=np.uint8)
        self._ck_len_np = empty
        self._ck_pay_cum: list[int] = [0]
        self._ck_action: list[int] = []
        self._ck_action_idx = 0

    # -- columnar input planning --------------------------------------------

    @staticmethod
    def _plan_tuples(
        count: int,
        select_float,
        customer_sampler,
        band_block,
        name_samplers,
    ) -> list[tuple[int, ...]]:
        """Customer-selection tuples for ``count`` transactions, columnar.

        Consumes each substream exactly as the scalar
        ``_customer_tuples_from`` does per transaction: the selection
        floats in transaction order, the single-customer sampler at
        every by-id transaction in order, the band stream at every
        by-name transaction in order, and each band's name sampler in
        groups of ``TUPLES_PER_NAME_SELECT`` in occurrence order.
        """
        selects = select_float.draw_many(count)
        by_name = [value < SELECT_BY_NAME_PROBABILITY for value in selects]
        n_by_name = sum(by_name)
        singles = customer_sampler.draw_many(count - n_by_name)
        if not n_by_name:
            return [(customer,) for customer in singles]
        bands = band_block.draw_many(n_by_name)
        tuple_count = TUPLES_PER_NAME_SELECT
        by_name_tuples: list[tuple[int, ...]] = [()] * n_by_name
        for band in range(len(name_samplers)):
            positions = [i for i, drawn in enumerate(bands) if drawn == band]
            if positions:
                draws = name_samplers[band].draw_many(tuple_count * len(positions))
                for k, i in enumerate(positions):
                    by_name_tuples[i] = tuple(
                        draws[tuple_count * k : tuple_count * (k + 1)]
                    )
        tuples_col: list[tuple[int, ...]] = []
        single_index = 0
        by_name_index = 0
        for flag in by_name:
            if flag:
                tuples_col.append(by_name_tuples[by_name_index])
                by_name_index += 1
            else:
                tuples_col.append((singles[single_index],))
                single_index += 1
        return tuples_col

    def _plan_chunk(self, size: int) -> None:
        """Pre-draw one chunk of ``size`` transactions' input columns."""
        trace = self._trace
        generator = trace._generator
        lines = self._lines
        types = trace._next_tx_indices(size)
        self._ck_types = types
        self._ck_pos = 0
        n_no = types.count(_NEW_ORDER_IDX)
        n_p = types.count(_PAYMENT_IDX)
        n_os = types.count(_ORDER_STATUS_IDX)
        n_d = types.count(_DELIVERY_IDX)
        n_sl = len(types) - n_no - n_p - n_os - n_d

        if n_no:
            no_w = generator._no_warehouse.draw_many(n_no)
            flat_items = generator._no_item.draw_many(n_no * lines)
            flags = generator._no_flags.draw_many_np(n_no * lines)
            # Remote stock lines as flat (line position, via) arrays —
            # the consumption pass rebases the sorted positions per
            # batch segment with two binary searches.
            remote_flat = np.empty(0, dtype=np.int64)
            remote_vias = np.empty(0, dtype=np.int64)
            p_remote = generator._remote_stock_probability
            if p_remote > 0.0:
                flagged = np.flatnonzero(flags < p_remote)
                block = generator._no_remote
                if len(flagged) and block is not None:
                    raw = block.draw_many_np(len(flagged))
                    homes = np.array(no_w, dtype=np.int64)[flagged // lines]
                    # _remote_from: ``other if other < home else other + 1``.
                    remote_flat = flagged
                    remote_vias = raw + (raw >= homes)
            no_d = generator._no_district.draw_many(n_no)
            no_c = generator._no_customer.draw_many(n_no)
            # One tuple per order, C-speed: zip over ``lines`` copies of
            # one shared iterator slices the flat column row-wise.
            flat_iter = iter(flat_items)
            items_col = list(zip(*([flat_iter] * lines)))
            # Array copies of the input columns (the assembly pass
            # slices these as views, skipping per-batch list-to-array
            # conversions) and Delivery's Customer write reference per
            # order, so the consumption pass just copies it off the
            # record.
            no_w_np = np.array(no_w, dtype=np.int64)
            no_d_np = np.array(no_d, dtype=np.int64)
            no_c_np = np.array(no_c, dtype=np.int64)
            cref = (
                (
                    (no_w_np - 1) * DISTRICTS_PER_WAREHOUSE + (no_d_np - 1)
                )
                * trace._customer_ppb
            ) << 5
            cref += self._customer_off_w[no_c_np - 1]
            self._ck_no = (
                no_w,
                no_d,
                no_c,
                items_col,
                flat_items,
                remote_flat,
                remote_vias,
                cref.tolist(),
                no_w_np,
                no_d_np,
                no_c_np,
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            self._ck_no = ((), (), (), (), [], empty, empty, (), empty, empty, empty)
        self._ck_no_ptr = 0

        if n_p:
            # Fully columnar payment plan (every by-name selection
            # draws exactly TUPLES_PER_NAME_SELECT ids).  Substream
            # consumption order matches the scalar ``payment_raw`` /
            # ``_plan_tuples`` exactly: warehouse,
            # home district, remote floats, remote warehouses, remote
            # districts, selection floats, by-id customers, bands, then
            # each band's names in occurrence order.
            many_width = self._pay_many_width
            # ``draw_many_np`` views may alias a live refill buffer, so
            # columns stored past this call are copied; draws consumed
            # inside the plan stay views.
            p_w_np = generator._p_warehouse.draw_many_np(n_p).copy()
            p_d_np = generator._p_district_home.draw_many_np(n_p).copy()
            cust_w_np = p_w_np.copy()
            cust_d_np = p_d_np.copy()
            remote_floats = generator._p_remote_float.draw_many_np(n_p)
            remote_at = np.flatnonzero(
                remote_floats < generator._remote_payment_probability
            )
            if remote_at.size:
                block = generator._p_remote
                if block is not None:
                    raw = block.draw_many_np(int(remote_at.size))
                    cust_w_np[remote_at] = raw + (raw >= p_w_np[remote_at])
                cust_d_np[remote_at] = generator._p_district_cust.draw_many_np(
                    int(remote_at.size)
                )
            by_name, singles, name_mat, p3_write = select_payment_customers(
                n_p,
                generator._p_select_float,
                generator._p_customer,
                generator._p_band,
                generator._p_names,
            )
            p_len_np = np.where(by_name, many_width, 4)
            self._ck_p_plan = (
                p_len_np.tolist(),
                np.concatenate(([0], np.cumsum(~by_name))),
                np.concatenate(([0], np.cumsum(by_name))),
                np.flatnonzero(~by_name),
                np.flatnonzero(by_name),
                singles,
                name_mat.ravel(),
                p3_write,
                p_w_np,
                p_d_np,
                cust_w_np,
                cust_d_np,
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            self._ck_p_plan = ([], [0], [0], *([empty] * 9))
        self._ck_p_ptr = 0

        if n_os:
            os_tuples = self._plan_tuples(
                n_os,
                generator._os_select_float,
                generator._os_customer,
                generator._os_band,
                generator._os_names,
            )
            os_w = generator._os_warehouse.draw_many(n_os)
            os_d = generator._os_district.draw_many(n_os)
            # Everything except the last-order lookup is input-determined:
            # the selected (median) customer, the per-transaction tuple
            # widths, and the fully tagged Customer read references.
            os_len = [len(tpl) for tpl in os_tuples]
            os_sel = [
                tpl[0] if len(tpl) == 1 else sorted(tpl)[len(tpl) // 2]
                for tpl in os_tuples
            ]
            flat = [customer for tpl in os_tuples for customer in tpl]
            base5 = (
                (
                    (np.array(os_w, dtype=np.int64) - 1)
                    * DISTRICTS_PER_WAREHOUSE
                    + (np.array(os_d, dtype=np.int64) - 1)
                )
                * trace._customer_ppb
            ) << 5
            cust_flat = np.repeat(base5, os_len) + self._customer_off_r[
                np.array(flat, dtype=np.int64) - 1
            ]
            self._ck_os = (
                os_w,
                os_d,
                os_sel,
                os_len,
                list(accumulate(os_len, initial=0)),
                cust_flat,
            )
        else:
            self._ck_os = ((), (), (), (), [0], np.empty(0, dtype=np.int64))
        self._ck_os_ptr = 0

        self._ck_d = generator._d_warehouse.draw_many(n_d) if n_d else ()
        self._ck_d_ptr = 0

        if n_sl:
            sl_w = generator._sl_warehouse.draw_many(n_sl)
            sl_d = generator._sl_district.draw_many(n_sl)
            # Threshold draws are consumed (stream parity) but unused
            # by the encoder, exactly like the scalar path.
            generator._sl_threshold.draw_many(n_sl)
            self._ck_sl = (sl_w, sl_d)
        else:
            self._ck_sl = ((), ())
        self._ck_sl_ptr = 0

        # Per-transaction assembly group and reference count for the
        # whole chunk (-1 marks state-dependent lengths that only the
        # consumption pass can know).
        types_np = np.array(types, dtype=np.int64)
        group_lut = np.empty(_N_TYPES, dtype=np.uint8)
        group_lut[_NEW_ORDER_IDX] = _G_NEW_ORDER
        group_lut[_PAYMENT_IDX] = _G_PAYMENT_ONE  # by-name ones refined below
        group_lut[_ORDER_STATUS_IDX] = _G_ORDER_STATUS
        group_lut[_DELIVERY_IDX] = _G_DELIVERY
        group_lut[_STOCK_LEVEL_IDX] = _G_STOCK_LEVEL
        len_lut = np.full(_N_TYPES, -1, dtype=np.int64)
        len_lut[_NEW_ORDER_IDX] = self._no_width
        self._ck_group_np = group_lut[types_np]
        self._ck_len_np = len_lut[types_np]
        if n_p:
            p_len_np = np.array(self._ck_p_plan[0], dtype=np.int64)
            pay_at = np.flatnonzero(types_np == _PAYMENT_IDX)
            self._ck_len_np[pay_at] = p_len_np
            self._ck_group_np[pay_at[p_len_np != 4]] = _G_PAYMENT_MANY

        # Consumption plan: Payments have no order-state transition, so
        # the consumption pass only visits "action" positions and skips
        # payment runs via the reference-count prefix sums.
        self._ck_pay_cum = list(accumulate(self._ck_p_plan[0], initial=0))
        self._ck_action = [i for i, t in enumerate(types) if t != _PAYMENT_IDX]
        self._ck_action_idx = 0

    def next_batch(
        self, *, min_refs: int | None = None, transactions: int | None = None
    ) -> EncodedBatch:
        trace = self._trace
        state = trace._state
        no_width = self._no_width
        lines = self._lines
        initial_per = state._initial_per_district

        # A batch spans at most a handful of planner chunks; planned
        # columns are captured as per-segment slices ("parts") and
        # concatenated once at assembly time instead of re-appended
        # per transaction.
        tx_parts: list[list[int]] = []
        group_parts: list[np.ndarray] = []
        len_parts: list[np.ndarray] = []

        # New-Order parts.  The order/new-order/order-line sequence
        # counters advance by fixed strides per order, so each segment
        # only records its starting counters plus a count; the columns
        # are arange-materialised at assembly time.
        no_w_parts: list[np.ndarray] = []
        no_d_parts: list[np.ndarray] = []
        no_c_parts: list[np.ndarray] = []
        no_seq_parts: list[tuple[int, int, int, int]] = []
        no_items_parts: list[list[int]] = []
        no_rpos_parts: list[np.ndarray] = []
        no_rvia_parts: list[np.ndarray] = []
        n_no = 0

        # Payment parts, pre-split by variant at plan time; each part
        # holds the columns _assemble_payment_one/_many expect.
        p1_parts: list[tuple[np.ndarray, ...]] = []
        p3_parts: list[tuple[np.ndarray, ...]] = []
        n_p1 = 0
        n_p3 = 0

        # Delivery / Stock-Level capture one record reference per
        # delivered (scanned) order; the per-record columns are
        # extracted in bulk at assembly time.
        dl_recs: list[OrderRecord] = []
        dl_tx_recs: list[int] = []
        sl_recs: list[OrderRecord] = []
        sl_warehouse: list[int] = []
        sl_district: list[int] = []
        sl_tx_lines: list[int] = []

        # Order-Status resolves only the last-order lookup in the loop;
        # the customer read columns come straight off the plan and the
        # order/order-line reads are derived from these positions.
        os_seq: list[int] = []
        os_line: list[int] = []
        os_has: list[int] = []
        os_ncust_parts: list[Sequence[int]] = []
        os_cust_parts: list[np.ndarray] = []

        # Access counts of the state-dependent transactions, tallied in
        # the consumption pass (New-Order and Payment are fixed-shape
        # and added per batch at the end).
        loop_acc = [[0] * 9 for _ in range(_N_TYPES)]

        # State-dependent reference counts in transaction order, to
        # fill the -1 slots of the planned per-chunk length template.
        var_lengths: list[int] = []

        total = 0
        produced = 0
        use_tx_bound = transactions is not None
        target_refs = min_refs if min_refs is not None else DEFAULT_BATCH_SIZE
        while (
            produced < transactions if use_tx_bound else total < target_refs
        ):
            if self._ck_pos >= len(self._ck_types):
                self._plan_chunk(
                    min(
                        PLAN_CHUNK_TRANSACTIONS,
                        max(MIN_PLAN_TRANSACTIONS, transactions - produced),
                    )
                    if use_tx_bound
                    else PLAN_CHUNK_TRANSACTIONS
                )
            types = self._ck_types
            pos = self._ck_pos
            seg_start = pos
            end = len(types)
            (
                ck_no_w,
                ck_no_d,
                ck_no_c,
                ck_no_items,
                ck_no_flat,
                ck_rpos,
                ck_rvia,
                ck_no_cref,
                ck_no_w_np,
                ck_no_d_np,
                ck_no_c_np,
            ) = self._ck_no
            no_ptr = self._ck_no_ptr
            no_ptr0 = no_ptr
            (
                p_len,
                p1_prefix,
                p3_prefix,
                p1_ord,
                p3_ord,
                p1_cust,
                p3_tuples,
                p3_write,
                p_w_np,
                p_d_np,
                p_cw_np,
                p_cd_np,
            ) = self._ck_p_plan
            p_ptr = self._ck_p_ptr
            p_ptr0 = p_ptr
            (
                ck_os_w,
                ck_os_d,
                ck_os_sel,
                ck_os_len,
                ck_os_prefix,
                ck_os_cust,
            ) = self._ck_os
            os_ptr = self._ck_os_ptr
            os_ptr0 = os_ptr
            ck_d_w = self._ck_d
            d_ptr = self._ck_d_ptr
            ck_sl_w, ck_sl_d = self._ck_sl
            sl_ptr = self._ck_sl_ptr
            action_pos = self._ck_action
            act_idx = self._ck_action_idx
            n_actions = len(action_pos)
            pay_cum = self._ck_pay_cum
            var_start = len(var_lengths)
            order_ctr = state._order_seq
            new_ctr = state._new_order_seq
            line_ctr = state._line_seq
            order_seq0 = order_ctr
            new_seq0 = new_ctr
            line_seq0 = line_ctr
            history0 = state._history_seq
            pending = state._pending
            recent = state._recent
            last_order = state._last_order
            while True:
                next_act = action_pos[act_idx] if act_idx < n_actions else end
                if next_act > pos:
                    # Positions pos..next_act-1 are all Payments (no
                    # order-state transition): skip the whole run via
                    # the planned reference-count prefix sums, unless
                    # the batch bound lands inside it.
                    run = next_act - pos
                    base = pay_cum[p_ptr]
                    run_refs = pay_cum[p_ptr + run] - base
                    if use_tx_bound and produced + run >= transactions:
                        take = transactions - produced
                        produced += take
                        total += pay_cum[p_ptr + take] - base
                        p_ptr += take
                        pos += take
                        break
                    if not use_tx_bound and total + run_refs >= target_refs:
                        take = (
                            bisect_left(
                                pay_cum,
                                target_refs - total + base,
                                p_ptr,
                                p_ptr + run,
                            )
                            - p_ptr
                        )
                        produced += take
                        total += pay_cum[p_ptr + take] - base
                        p_ptr += take
                        pos += take
                        break
                    produced += run
                    total += run_refs
                    p_ptr += run
                    pos = next_act
                if act_idx >= n_actions:
                    break
                tx_index = types[next_act]
                pos = next_act + 1
                act_idx += 1
                if tx_index == _NEW_ORDER_IDX:
                    # Inlined WorkloadState.place_order: the planner's
                    # samplers only draw in-range warehouses/districts,
                    # so the per-call validation is spent at plan time.
                    warehouse = ck_no_w[no_ptr]
                    district = ck_no_d[no_ptr]
                    customer = ck_no_c[no_ptr]
                    record = OrderRecord(
                        warehouse,
                        district,
                        customer,
                        order_ctr,
                        line_ctr,
                        ck_no_items[no_ptr],
                        new_ctr,
                        None,
                        None,
                        ck_no_cref[no_ptr],
                    )
                    order_ctr += 1
                    line_ctr += lines
                    new_ctr += 1
                    key = (warehouse, district)
                    pending[key].append(record)
                    recent[key].append(record)
                    last_order[(warehouse, district, customer)] = record
                    no_ptr += 1
                    total += no_width
                elif tx_index == _ORDER_STATUS_IDX:
                    warehouse = ck_os_w[os_ptr]
                    district = ck_os_d[os_ptr]
                    selected = ck_os_sel[os_ptr]
                    n_cust = ck_os_len[os_ptr]
                    os_ptr += 1
                    record = last_order.get((warehouse, district, selected))
                    if record is not None:
                        os_seq.append(record.order_seq)
                        os_line.append(record.line_start)
                        has = 1
                    elif initial_per and selected <= initial_per:
                        # ``last_order_of``'s synthesized initial order,
                        # inlined: its positions are pure arithmetic.
                        seq = (
                            (warehouse - 1) * DISTRICTS_PER_WAREHOUSE
                            + (district - 1)
                        ) * initial_per + (selected - 1)
                        os_seq.append(seq)
                        os_line.append(seq * lines)
                        has = 1
                    else:
                        has = 0
                    os_has.append(has)
                    row = loop_acc[tx_index]
                    row[_REL_CUSTOMER] += n_cust
                    length = n_cust
                    if has:
                        # Every order — live, primed, or synthesized —
                        # carries exactly ``lines`` order lines.
                        row[_REL_ORDER] += 1
                        row[_REL_ORDER_LINE] += lines
                        length += 1 + lines
                    var_lengths.append(length)
                    total += length
                elif tx_index == _DELIVERY_IDX:
                    warehouse = ck_d_w[d_ptr]
                    d_ptr += 1
                    delivered = 0
                    for district in range(1, DISTRICTS_PER_WAREHOUSE + 1):
                        queue = pending[(warehouse, district)]
                        if not queue:
                            continue
                        dl_recs.append(queue.popleft())
                        delivered += 1
                    dl_tx_recs.append(delivered)
                    # Every live record carries exactly ``lines`` order
                    # lines (items_per_order is fixed per generator), so
                    # the reference count needs no per-record reads.
                    tx_lines = delivered * lines
                    row = loop_acc[tx_index]
                    row[_REL_CUSTOMER] += delivered
                    row[_REL_ORDER] += delivered
                    row[_REL_NEW_ORDER] += delivered
                    row[_REL_ORDER_LINE] += tx_lines
                    length = 3 * delivered + tx_lines
                    var_lengths.append(length)
                    total += length
                else:
                    warehouse = ck_sl_w[sl_ptr]
                    district = ck_sl_d[sl_ptr]
                    sl_ptr += 1
                    recs = recent[(warehouse, district)]
                    if recs:
                        sl_recs += recs
                    sl_warehouse.append(warehouse)
                    sl_district.append(district)
                    tx_lines = len(recs) * lines
                    sl_tx_lines.append(tx_lines)
                    row = loop_acc[tx_index]
                    row[_REL_DISTRICT] += 1
                    row[_REL_STOCK] += tx_lines
                    row[_REL_ORDER_LINE] += tx_lines
                    length = 1 + 2 * tx_lines
                    var_lengths.append(length)
                    total += length
                produced += 1
                if produced >= transactions if use_tx_bound else total >= target_refs:
                    break
            state._order_seq = order_ctr
            state._new_order_seq = new_ctr
            state._line_seq = line_ctr

            # -- capture this segment's slices of the planned columns --
            tx_parts.append(types[seg_start:pos])
            group_parts.append(self._ck_group_np[seg_start:pos])
            seg_len = self._ck_len_np[seg_start:pos]
            if len(var_lengths) > var_start:
                seg_len = seg_len.copy()
                seg_len[seg_len < 0] = var_lengths[var_start:]
            len_parts.append(seg_len)
            if no_ptr > no_ptr0:
                seg_no = no_ptr - no_ptr0
                no_w_parts.append(ck_no_w_np[no_ptr0:no_ptr])
                no_d_parts.append(ck_no_d_np[no_ptr0:no_ptr])
                no_c_parts.append(ck_no_c_np[no_ptr0:no_ptr])
                no_seq_parts.append((order_seq0, new_seq0, line_seq0, seg_no))
                no_items_parts.append(
                    ck_no_flat[no_ptr0 * lines : no_ptr * lines]
                )
                lo = int(np.searchsorted(ck_rpos, no_ptr0 * lines))
                hi = int(np.searchsorted(ck_rpos, no_ptr * lines))
                if hi > lo:
                    # Rebase chunk-flat line positions to batch-flat.
                    no_rpos_parts.append(
                        ck_rpos[lo:hi] + (n_no - no_ptr0) * lines
                    )
                    no_rvia_parts.append(ck_rvia[lo:hi])
                n_no += seg_no
            if p_ptr > p_ptr0:
                lo1 = p1_prefix[p_ptr0]
                hi1 = p1_prefix[p_ptr]
                if hi1 > lo1:
                    sel = p1_ord[lo1:hi1]
                    p1_parts.append(
                        (
                            p_w_np[sel],
                            p_d_np[sel],
                            p_cw_np[sel],
                            p_cd_np[sel],
                            p1_cust[lo1:hi1],
                            sel + (history0 - p_ptr0),
                        )
                    )
                    n_p1 += hi1 - lo1
                lo3 = p3_prefix[p_ptr0]
                hi3 = p3_prefix[p_ptr]
                if hi3 > lo3:
                    sel = p3_ord[lo3:hi3]
                    width_t = TUPLES_PER_NAME_SELECT
                    p3_parts.append(
                        (
                            p_w_np[sel],
                            p_d_np[sel],
                            p_cw_np[sel],
                            p_cd_np[sel],
                            p3_tuples[lo3 * width_t : hi3 * width_t],
                            p3_write[lo3:hi3],
                            sel + (history0 - p_ptr0),
                        )
                    )
                    n_p3 += hi3 - lo3
                # Every Payment consumes exactly one History sequence
                # number, so the counter is advanced per segment.
                state._history_seq = history0 + (p_ptr - p_ptr0)
            if os_ptr > os_ptr0:
                os_ncust_parts.append(ck_os_len[os_ptr0:os_ptr])
                os_cust_parts.append(
                    ck_os_cust[ck_os_prefix[os_ptr0] : ck_os_prefix[os_ptr]]
                )
            self._ck_pos = pos
            self._ck_no_ptr = no_ptr
            self._ck_p_ptr = p_ptr
            self._ck_os_ptr = os_ptr
            self._ck_d_ptr = d_ptr
            self._ck_sl_ptr = sl_ptr
            self._ck_action_idx = act_idx

        if len(len_parts) == 1:
            lengths = len_parts[0]
            group_arr = group_parts[0]
            tx_index_col: list[int] = tx_parts[0]
        else:
            lengths = _cat_arrays(len_parts)
            group_arr = (
                np.concatenate(group_parts)
                if group_parts
                else np.empty(0, dtype=np.uint8)
            )
            tx_index_col = _cat_lists(tx_parts)

        out = np.empty(total, dtype=np.int64)
        starts = np.empty(len(lengths), dtype=np.int64)
        if len(lengths):
            starts[0] = 0
            np.cumsum(lengths[:-1], out=starts[1:])

        if n_no:
            no_order_parts: list[np.ndarray] = []
            no_new_parts: list[np.ndarray] = []
            no_line_parts: list[np.ndarray] = []
            for order0, new0, line0, seg_no in no_seq_parts:
                iota = np.arange(seg_no, dtype=np.int64)
                no_order_parts.append(order0 + iota)
                no_new_parts.append(new0 + iota)
                no_line_parts.append(line0 + iota * lines)
            self._assemble_new_order(
                out,
                starts[group_arr == _G_NEW_ORDER],
                _cat_arrays(no_w_parts),
                _cat_arrays(no_d_parts),
                _cat_arrays(no_c_parts),
                _cat_arrays(no_order_parts),
                _cat_arrays(no_new_parts),
                _cat_arrays(no_line_parts),
                _cat_lists(no_items_parts),
                _cat_arrays(no_rpos_parts),
                _cat_arrays(no_rvia_parts),
            )
        if n_p1:
            p1_cols = [_cat_arrays(list(col)) for col in zip(*p1_parts)]
            self._assemble_payment_one(
                out, starts[group_arr == _G_PAYMENT_ONE], *p1_cols
            )
        if n_p3:
            p3_cols = [_cat_arrays(list(col)) for col in zip(*p3_parts)]
            self._assemble_payment_many(
                out, starts[group_arr == _G_PAYMENT_MANY], *p3_cols
            )
        if dl_tx_recs:
            dl_new_seq = [r.new_order_seq for r in dl_recs]
            if None in dl_new_seq:
                raise InvariantViolationError(
                    "pending queue held a record without a new-order sequence"
                )
            self._assemble_delivery(
                out,
                starts[group_arr == _G_DELIVERY],
                dl_new_seq,
                [r.order_seq for r in dl_recs],
                [r.line_start for r in dl_recs],
                [len(r.item_ids) for r in dl_recs],
                [r.cust_ref for r in dl_recs],
                dl_tx_recs,
            )
        if os_has:
            self._assemble_order_status(
                out,
                starts[group_arr == _G_ORDER_STATUS],
                _cat_lists(os_ncust_parts),
                _cat_arrays(os_cust_parts),
                os_has,
                os_seq,
                os_line,
            )
        if sl_warehouse:
            self._assemble_stock_level(
                out,
                starts[group_arr == _G_STOCK_LEVEL],
                sl_warehouse,
                sl_district,
                sl_tx_lines,
                [r.line_start for r in sl_recs],
                list(chain.from_iterable(r.item_ids for r in sl_recs)),
            )
        tx_accesses = np.array(loop_acc, dtype=np.int64)
        tx_accesses[_NEW_ORDER_IDX] += (
            np.array(trace._counts_new_order, dtype=np.int64) * n_no
        )
        tx_accesses[_PAYMENT_IDX] += np.array(
            trace._counts_payment_one, dtype=np.int64
        ) * n_p1 + np.array(
            trace._counts_payment_many, dtype=np.int64
        ) * n_p3

        return EncodedBatch(
            out,
            _empty_i64(tx_index_col),
            lengths,
            tx_accesses,
            trace.highest_page_id(),
        )

    # -- per-group assembly --------------------------------------------------

    def _assemble_new_order(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        warehouse: np.ndarray,
        district: np.ndarray,
        customer: np.ndarray,
        order_seq: np.ndarray,
        new_seq: np.ndarray,
        line_start: np.ndarray,
        items: list[int],
        remote_pos: np.ndarray,
        remote_via: np.ndarray,
    ) -> None:
        trace = self._trace
        lines = self._lines
        count = len(warehouse)
        w = warehouse
        d = district
        mat = np.empty((count, self._no_width), dtype=np.int64)
        mat[:, 0] = (
            ((w - 1) // trace._warehouse_tpp) << 5
        ) + trace._tag_warehouse_r
        district_tuple = (w - 1) * DISTRICTS_PER_WAREHOUSE + d - 1
        mat[:, 1] = (
            (district_tuple // trace._district_tpp) << 5
        ) + trace._tag_district_w
        customer_base5 = (district_tuple * trace._customer_ppb) << 5
        mat[:, 2] = customer_base5 + self._customer_off_r[customer - 1]
        gshift = trace._growing_shift
        mat[:, 3] = (
            (order_seq // trace._tpp_order) << gshift
        ) + trace._tag_order_w
        mat[:, 4] = (
            (new_seq // trace._tpp_new_order) << gshift
        ) + trace._tag_new_order_w
        item_arr = _empty_i64(items)
        mat[:, 5::3] = self._item_ref_r[item_arr - 1].reshape(count, lines)
        stock_base5 = np.repeat(((w - 1) * trace._stock_ppb) << 5, lines)
        if len(remote_pos):
            stock_base5[remote_pos] = (
                (remote_via - 1) * trace._stock_ppb
            ) << 5
        mat[:, 6::3] = (stock_base5 + self._stock_off_w[item_arr - 1]).reshape(
            count, lines
        )
        ol_pages = (
            line_start[:, None] + np.arange(lines, dtype=np.int64)
        ) // trace._tpp_order_line
        mat[:, 7::3] = (ol_pages << gshift) + trace._tag_order_line_w
        out[starts[:, None] + np.arange(self._no_width, dtype=np.int64)] = mat

    def _assemble_payment_one(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        warehouse: np.ndarray,
        district: np.ndarray,
        cust_warehouse: np.ndarray,
        cust_district: np.ndarray,
        customer: np.ndarray,
        history: np.ndarray,
    ) -> None:
        trace = self._trace
        count = len(warehouse)
        w = warehouse
        d = district
        mat = np.empty((count, 4), dtype=np.int64)
        mat[:, 0] = (
            ((w - 1) // trace._warehouse_tpp) << 5
        ) + trace._tag_warehouse_w
        mat[:, 1] = (
            (((w - 1) * DISTRICTS_PER_WAREHOUSE + d - 1) // trace._district_tpp)
            << 5
        ) + trace._tag_district_w
        customer_base5 = (
            (
                (cust_warehouse - 1) * DISTRICTS_PER_WAREHOUSE
                + (cust_district - 1)
            )
            * trace._customer_ppb
        ) << 5
        # Write-tagged customer offsets are the read offsets plus the
        # write bit in the encoding's lowest position.
        mat[:, 2] = customer_base5 + self._customer_off_r[customer - 1] + 1
        mat[:, 3] = (
            (history // trace._tpp_history) << trace._growing_shift
        ) + trace._tag_history_w
        out[starts[:, None] + np.arange(4, dtype=np.int64)] = mat

    def _assemble_payment_many(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        warehouse: np.ndarray,
        district: np.ndarray,
        cust_warehouse: np.ndarray,
        cust_district: np.ndarray,
        tuples: np.ndarray,
        write_col: np.ndarray,
        history: np.ndarray,
    ) -> None:
        trace = self._trace
        count = len(warehouse)
        width = self._pay_many_width
        w = warehouse
        d = district
        mat = np.empty((count, width), dtype=np.int64)
        mat[:, 0] = (
            ((w - 1) // trace._warehouse_tpp) << 5
        ) + trace._tag_warehouse_w
        mat[:, 1] = (
            (((w - 1) * DISTRICTS_PER_WAREHOUSE + d - 1) // trace._district_tpp)
            << 5
        ) + trace._tag_district_w
        customer_base5 = (
            (
                (cust_warehouse - 1) * DISTRICTS_PER_WAREHOUSE
                + (cust_district - 1)
            )
            * trace._customer_ppb
        ) << 5
        tuple_arr = tuples.reshape(count, TUPLES_PER_NAME_SELECT)
        cust = customer_base5[:, None] + self._customer_off_r[tuple_arr - 1]
        # The selected (median) tuple is written at its first
        # occurrence: add the write bit at that column.
        cust[np.arange(count), write_col] += 1
        mat[:, 2 : 2 + TUPLES_PER_NAME_SELECT] = cust
        mat[:, width - 1] = (
            (history // trace._tpp_history) << trace._growing_shift
        ) + trace._tag_history_w
        out[starts[:, None] + np.arange(width, dtype=np.int64)] = mat

    def _assemble_order_status(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        ncust: list[int],
        cust_refs: np.ndarray,
        has_order: list[int],
        order_seq: list[int],
        line_start: list[int],
    ) -> None:
        """Scatter Order-Status refs: the selection's customer reads,
        then — when the customer has a last order — its Order read and
        one Order-Line read per line."""
        trace = self._trace
        ncust_arr = _empty_i64(ncust)
        cust_excl = np.cumsum(ncust_arr) - ncust_arr
        out[
            np.repeat(starts - cust_excl, ncust_arr)
            + np.arange(int(cust_refs.shape[0]), dtype=np.int64)
        ] = cust_refs
        if not order_seq:
            return
        gshift = trace._growing_shift
        ostarts = starts + ncust_arr
        if len(order_seq) < len(has_order):
            ostarts = ostarts[np.array(has_order, dtype=bool)]
        out[ostarts] = (
            (_empty_i64(order_seq) // trace._tpp_order) << gshift
        ) + trace._tag_order_r
        lines = self._lines
        pages = (
            _empty_i64(line_start)[:, None] + np.arange(lines, dtype=np.int64)
        ) // trace._tpp_order_line
        out[(ostarts + 1)[:, None] + np.arange(lines, dtype=np.int64)] = (
            pages << gshift
        ) + trace._tag_order_line_r

    def _assemble_delivery(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        new_seq: list[int],
        order_seq: list[int],
        line_start: list[int],
        counts: list[int],
        cust_ref: list[int],
        tx_recs: list[int],
    ) -> None:
        """Scatter Delivery refs: per delivered record
        ``[new_order, order, order_line x count, customer]``."""
        if not counts:
            return
        trace = self._trace
        gshift = trace._growing_shift
        counts_arr = _empty_i64(counts)
        widths = counts_arr + 3
        rec_excl = np.cumsum(widths) - widths
        tx_recs_arr = _empty_i64(tx_recs)
        first = np.cumsum(tx_recs_arr) - tx_recs_arr
        # A zero-record transaction's ``first`` slot points past its
        # own (empty) span; clamp it — the repeat count of 0 drops it.
        safe_first = np.minimum(first, len(widths) - 1)
        rec_abs = rec_excl + np.repeat(starts - rec_excl[safe_first], tx_recs_arr)
        out[rec_abs] = (
            (_empty_i64(new_seq) // trace._tpp_new_order) << gshift
        ) + trace._tag_new_order_w
        out[rec_abs + 1] = (
            (_empty_i64(order_seq) // trace._tpp_order) << gshift
        ) + trace._tag_order_w
        out[rec_abs + 2 + counts_arr] = _empty_i64(cust_ref)
        total_lines = int(counts_arr.sum())
        line_excl = np.cumsum(counts_arr) - counts_arr
        intra = np.arange(total_lines, dtype=np.int64) - np.repeat(
            line_excl, counts_arr
        )
        pages = (
            np.repeat(_empty_i64(line_start), counts_arr) + intra
        ) // trace._tpp_order_line
        out[np.repeat(rec_abs + 2, counts_arr) + intra] = (
            pages << gshift
        ) + trace._tag_order_line_w

    def _assemble_stock_level(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        warehouse: list[int],
        district: list[int],
        tx_lines: list[int],
        line_start: list[int],
        items: list[int],
    ) -> None:
        """Scatter Stock-Level refs: a district read followed by
        interleaved ``(order_line, stock)`` pairs per scanned line."""
        trace = self._trace
        w = _empty_i64(warehouse)
        d = _empty_i64(district)
        out[starts] = (
            (
                ((w - 1) * DISTRICTS_PER_WAREHOUSE + d - 1)
                // trace._district_tpp
            )
            << 5
        ) + trace._tag_district_r
        if not items:
            return
        gshift = trace._growing_shift
        lines = self._lines
        tx_lines_arr = _empty_i64(tx_lines)
        total_lines = len(items)
        # Every scanned order carries exactly ``lines`` order lines, so
        # the per-record page spans form one dense matrix.
        ol_refs = (
            (
                (
                    _empty_i64(line_start)[:, None]
                    + np.arange(lines, dtype=np.int64)
                )
                // trace._tpp_order_line
            )
            << gshift
        ).ravel() + trace._tag_order_line_r
        # Read-tagged stock offsets are the write-tagged ones minus the
        # write bit in the encoding's lowest position.
        stock_refs = np.repeat(((w - 1) * trace._stock_ppb) << 5, tx_lines_arr) + (
            self._stock_off_w[_empty_i64(items) - 1] - 1
        )
        vals = np.empty(2 * total_lines, dtype=np.int64)
        vals[0::2] = ol_refs
        vals[1::2] = stock_refs
        pair_lens = 2 * tx_lines_arr
        pair_excl = np.cumsum(pair_lens) - pair_lens
        out[
            np.repeat(starts + 1 - pair_excl, pair_lens)
            + np.arange(2 * total_lines, dtype=np.int64)
        ] = vals

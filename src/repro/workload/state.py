"""Order bookkeeping for the stateful transactions (paper Section 4).

The paper's buffer simulation "keeps track of the last order placed by
each customer, the last 20 orders for each district, and which tuples
are in the New-Order relation"; Order-Status, Delivery and Stock-Level
replay those tuples (the ``P(x)`` entries of Table 3).

:class:`ColumnarOrderState` keeps exactly that bookkeeping as arrays,
plus the global append positions of the ever-growing Order, Order-Line,
New-Order and History relations so appended tuples can be mapped to
pages, and answers a whole planned chunk of transactions at once.
:class:`OrderRecord` is the value its diagnostic queries return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.constants import DISTRICTS_PER_WAREHOUSE, STOCK_LEVEL_ORDERS


@dataclass(frozen=True, slots=True)
class OrderRecord:
    """One placed order, with the append positions of its tuples.

    ``order_seq`` and ``line_start`` are 0-based global insertion
    positions in the Order and Order-Line relations; together with the
    tuples-per-page geometry they determine which pages the order's
    tuples occupy.  ``new_order_seq`` is the position of its entry in
    the New-Order relation (None for an initial order that was never
    pending).
    """

    warehouse: int
    district: int
    customer: int
    order_seq: int
    line_start: int
    item_ids: tuple[int, ...]
    new_order_seq: int | None


class ChunkResolution(NamedTuple):
    """What one planned chunk's stateful transactions touch.

    Per-order columns are flat: a Delivery's orders in district order,
    a Stock-Level's oldest first, transactions in chunk order; the
    ``*_counts`` columns (one entry per transaction, zeros included)
    delimit them.
    """

    placed_order_seq: np.ndarray
    placed_new_order_seq: np.ndarray
    last_order_seq: np.ndarray
    delivered_counts: np.ndarray
    delivered_district: np.ndarray
    delivered_customer: np.ndarray
    delivered_order_seq: np.ndarray
    delivered_new_order_seq: np.ndarray
    scanned_counts: np.ndarray
    scanned_order_seq: np.ndarray
    scanned_items: np.ndarray


class ColumnarOrderState:
    """The order bookkeeping as arrays, resolved a chunk at a time.

    Three structures replace the per-order objects: an append-only
    *order log* (customer, Order position and item ids of the primed
    tail of the initial population, then of every live order in
    placement order); a per-district *arrivals table* of log rows with a
    delivered-head count (pending orders are the arrivals past the
    head, the recent ones the last ``STOCK_LEVEL_ORDERS`` arrivals);
    and the Order position of every customer's last order, which
    starts as the initial population's arithmetic (customer ``c`` of
    district index ``k`` holds order ``k * customers + c - 1``).
    Order-Line and New-Order positions are arithmetic on the Order
    position and the log row, so neither is stored.

    Districts and warehouses are addressed by 0-based index
    (``(warehouse - 1) * 10 + district - 1``), customers by 1-based id.
    """

    def __init__(
        self,
        warehouses: int,
        customers_per_district: int,
        prime_pending: int,
        primed_items: np.ndarray,
    ):
        n_districts = warehouses * DISTRICTS_PER_WAREHOUSE
        n_primed, lines = primed_items.shape
        prime_orders = n_primed // n_districts
        self._warehouses = warehouses
        self._per_district = customers_per_district
        self._lines = lines
        self._prime_orders = prime_orders
        self._prime_pending = prime_pending
        self._n_primed = n_primed
        # Live positions continue after the initial population.
        self._initial_orders = n_districts * customers_per_district
        self._initial_new_orders = n_districts * prime_pending

        district = np.repeat(np.arange(n_districts, dtype=np.int64), prime_orders)
        customer = np.tile(
            np.arange(
                customers_per_district - prime_orders + 1,
                customers_per_district + 1,
                dtype=np.int64,
            ),
            n_districts,
        )
        self._log_len = n_primed
        self._log_customer = customer.astype(np.int32)
        self._log_order_seq = district * customers_per_district + customer - 1
        self._log_items = primed_items.astype(np.int32)
        self._arrivals = np.arange(n_primed, dtype=np.int32).reshape(
            n_districts, prime_orders
        )
        self._arrived = np.full(n_districts, prime_orders, dtype=np.int64)
        self._delivered = np.full(
            n_districts, prime_orders - prime_pending, dtype=np.int64
        )
        self._last_order_seq = np.arange(self._initial_orders, dtype=np.int64)
        # Insertion counters of what the emitter has *emitted* (the log
        # runs up to one planned chunk ahead of them).
        self._emitted_orders = 0
        self._emitted_payments = 0

    # -- sizes ---------------------------------------------------------------

    @property
    def orders_placed(self) -> int:
        """Total orders ever inserted (size of the Order relation)."""
        return self._initial_orders + self._emitted_orders

    @property
    def order_lines_inserted(self) -> int:
        return self.orders_placed * self._lines

    @property
    def new_order_inserts(self) -> int:
        """Total tuples ever appended to the New-Order relation."""
        return self._initial_new_orders + self._emitted_orders

    @property
    def history_rows(self) -> int:
        return self._emitted_payments

    def record_emitted(self, new_orders: int, payments: int) -> None:
        """Advance the insertion counters by one emitted batch."""
        self._emitted_orders += new_orders
        self._emitted_payments += payments

    def pending_count(self) -> int:
        """Current size of the New-Order relation (pending orders)."""
        return int((self._arrived - self._delivered).sum())

    # -- chunk resolution ----------------------------------------------------

    def resolve_chunk(
        self,
        size: int,
        no_pos: np.ndarray,
        no_district: np.ndarray,
        no_customer: np.ndarray,
        no_items: np.ndarray,
        os_pos: np.ndarray,
        os_district: np.ndarray,
        os_customer: np.ndarray,
        d_pos: np.ndarray,
        d_warehouse: np.ndarray,
        sl_pos: np.ndarray,
        sl_district: np.ndarray,
    ) -> ChunkResolution:
        """Apply one chunk of ``size`` transactions, in position order.

        ``*_pos`` are the transactions' positions in the chunk
        (distinct, ascending per type); the other columns are their
        inputs.  Every query sees exactly the New-Orders at smaller
        positions and the Deliveries before it — the state a
        one-at-a-time replay would have shown it.
        """
        n_no = len(no_pos)
        iota = np.arange(n_no, dtype=np.int64)
        first_row = self._log_len
        placed_seq = self._initial_orders + (first_row - self._n_primed) + iota
        self._reserve_log(first_row + n_no)
        self._log_customer[first_row : first_row + n_no] = no_customer
        self._log_order_seq[first_row : first_row + n_no] = placed_seq
        self._log_items[first_row : first_row + n_no] = no_items
        self._log_len = first_row + n_no

        # Arrivals by (district, position): a stable sort on the
        # district keeps positions ascending inside each district, so
        # the composite key is sorted and "arrivals of district k before
        # position t" is a binary search on it.
        by_district = np.argsort(no_district, kind="stable")
        district_sorted = no_district[by_district]
        arrival_keys = district_sorted * size + no_pos[by_district]
        arrived = self._arrived
        rank = (
            arrived[district_sorted]
            + iota
            - np.searchsorted(arrival_keys, district_sorted * size)
        )
        self._reserve_arrivals(int(rank.max()) + 1 if n_no else 0)
        self._arrivals[district_sorted, rank] = first_row + by_district
        self._arrived = arrived + np.bincount(no_district, minlength=len(arrived))

        def arrived_before(district: np.ndarray, pos: np.ndarray) -> np.ndarray:
            base = district * size
            return (
                arrived[district]
                + np.searchsorted(arrival_keys, base + pos)
                - np.searchsorted(arrival_keys, base)
            )

        # Order-Status: the customer's last New-Order before the query
        # inside the chunk, else the order on record from earlier.
        os_key = os_district * self._per_district + os_customer - 1
        last_seq = self._last_order_seq[os_key]
        if n_no:
            customer_keys = (
                no_district * self._per_district + no_customer - 1
            ) * size + no_pos
            by_customer = np.argsort(customer_keys)
            customer_keys = customer_keys[by_customer]
            key_sorted = customer_keys // size
            seq_sorted = placed_seq[by_customer]
            at = np.searchsorted(customer_keys, os_key * size + os_pos) - 1
            hit = (at >= 0) & (key_sorted[at] == os_key)
            last_seq = np.where(hit, seq_sorted[at], last_seq)
            # Last writer per customer: the entry before a key change.
            final = np.ones(n_no, dtype=bool)
            final[:-1] = key_sorted[1:] != key_sorted[:-1]
            self._last_order_seq[key_sorted[final]] = seq_sorted[final]

        # Stock-Level: the last STOCK_LEVEL_ORDERS arrivals before it.
        sl_arrived = arrived_before(sl_district, sl_pos)
        scanned_counts = np.minimum(sl_arrived, STOCK_LEVEL_ORDERS)
        scanned_rows = self._arrivals[
            np.repeat(sl_district, scanned_counts),
            _ranges(sl_arrived - scanned_counts, scanned_counts),
        ]

        delivered_counts, delivered_district, delivered_rank = self._deliver(
            d_pos, d_warehouse, arrived_before, size
        )
        delivered_rows = self._arrivals[delivered_district, delivered_rank]
        return ChunkResolution(
            placed_seq,
            placed_seq + (self._initial_new_orders - self._initial_orders),
            last_seq,
            delivered_counts,
            delivered_district,
            self._log_customer[delivered_rows],
            self._log_order_seq[delivered_rows],
            self._new_order_seq(delivered_rows.astype(np.int64)),
            scanned_counts,
            self._log_order_seq[scanned_rows],
            self._log_items[scanned_rows],
        )

    def _deliver(
        self,
        d_pos: np.ndarray,
        d_warehouse: np.ndarray,
        arrived_before: Callable[[np.ndarray, np.ndarray], np.ndarray],
        size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pop the oldest pending order of each district, per Delivery.

        Returns the orders delivered per Delivery, and per delivered
        order its district and arrival rank, in (Delivery, district)
        order.  A district's head after its ``j``-th Delivery of the
        chunk obeys ``S_j = min(S_{j-1} + 1, avail_j)`` (skip when the
        queue is empty), whose closed form is
        ``S_j = j + min(S_0, min_{i<=j}(avail_i - i))``: one running
        minimum per district, taken over all warehouses at once by
        offsetting each warehouse's rows below the previous one's.
        """
        n_d = len(d_pos)
        by_warehouse = np.argsort(d_warehouse, kind="stable")
        warehouse = d_warehouse[by_warehouse]
        districts = warehouse[:, None] * DISTRICTS_PER_WAREHOUSE + np.arange(
            DISTRICTS_PER_WAREHOUSE, dtype=np.int64
        )
        avail = arrived_before(districts, d_pos[by_warehouse][:, None])
        first = np.searchsorted(warehouse, warehouse)
        nth = (np.arange(n_d, dtype=np.int64) - first + 1)[:, None]
        head0 = self._delivered[districts]
        span = int(self._arrived.max()) + size + 1
        offset = warehouse[:, None] * span
        slack = np.minimum.accumulate(avail - nth - offset, axis=0) + offset
        head = nth + np.minimum(head0, slack)
        before = np.empty_like(head)
        before[1:] = head[:-1]
        starts_run = nth[:, 0] == 1
        before[starts_run] = head0[starts_run]
        # Back to transaction order, then flat in (Delivery, district) order.
        delivered = np.empty((n_d, DISTRICTS_PER_WAREHOUSE), dtype=bool)
        delivered[by_warehouse] = head > before
        rank = np.empty_like(head)
        rank[by_warehouse] = before
        district = np.empty_like(head)
        district[by_warehouse] = districts
        delivered_district = district[delivered]
        self._delivered += np.bincount(
            delivered_district, minlength=len(self._delivered)
        )
        return delivered.sum(axis=1), delivered_district, rank[delivered]

    def _new_order_seq(self, rows: np.ndarray) -> np.ndarray:
        """New-Order positions by log row (of orders that were ever pending).

        The primed pending orders lead the relation, ``prime_pending``
        per district in district order; live orders follow in placement
        order.
        """
        per = max(self._prime_orders, 1)
        return np.where(
            rows < self._n_primed,
            rows // per * self._prime_pending
            + rows % per
            - (self._prime_orders - self._prime_pending),
            rows + (self._initial_new_orders - self._n_primed),
        )

    def _reserve_log(self, rows: int) -> None:
        capacity = len(self._log_customer)
        if rows > capacity:
            grow = max(rows, 2 * capacity) - capacity
            self._log_customer = np.concatenate(
                [self._log_customer, np.empty(grow, dtype=np.int32)]
            )
            self._log_order_seq = np.concatenate(
                [self._log_order_seq, np.empty(grow, dtype=np.int64)]
            )
            self._log_items = np.concatenate(
                [self._log_items, np.empty((grow, self._lines), dtype=np.int32)]
            )

    def _reserve_arrivals(self, per_district: int) -> None:
        n_districts, capacity = self._arrivals.shape
        if per_district > capacity:
            grow = max(per_district, 2 * capacity) - capacity
            self._arrivals = np.concatenate(
                [self._arrivals, np.empty((n_districts, grow), dtype=np.int32)],
                axis=1,
            )

    # -- queries (diagnostics: records are built on demand) ------------------

    def last_order_of(
        self, warehouse: int, district: int, customer: int
    ) -> OrderRecord:
        """Most recent order by a customer (their initial one if none)."""
        index = self._district_index(warehouse, district)
        if not 1 <= customer <= self._per_district:
            raise ValueError(
                f"customer must be in [1, {self._per_district}], got {customer}"
            )
        order_seq = int(
            self._last_order_seq[index * self._per_district + customer - 1]
        )
        first_primed = self._per_district - self._prime_orders
        if order_seq >= self._initial_orders:
            row = order_seq - self._initial_orders + self._n_primed
        elif customer > first_primed:
            row = index * self._prime_orders + customer - first_primed - 1
        else:
            # Older initial orders are not logged: only their page
            # positions matter, so the item ids are placeholders.
            return OrderRecord(
                warehouse,
                district,
                customer,
                order_seq,
                order_seq * self._lines,
                (0,) * self._lines,
                None,
            )
        return self._record(index, row)

    def recent_orders(self, warehouse: int, district: int) -> tuple[OrderRecord, ...]:
        """Up to the last 20 orders of a district, oldest first."""
        index = self._district_index(warehouse, district)
        arrived = int(self._arrived[index])
        rows = self._arrivals[index, max(0, arrived - STOCK_LEVEL_ORDERS) : arrived]
        return tuple(self._record(index, row) for row in rows.tolist())

    def pending_orders(self, warehouse: int, district: int) -> tuple[OrderRecord, ...]:
        """The district's pending orders, oldest first."""
        index = self._district_index(warehouse, district)
        rows = self._arrivals[index, self._delivered[index] : self._arrived[index]]
        return tuple(self._record(index, row) for row in rows.tolist())

    def _record(self, district_index: int, row: int) -> OrderRecord:
        warehouse, district = divmod(district_index, DISTRICTS_PER_WAREHOUSE)
        order_seq = int(self._log_order_seq[row])
        never_pending = (
            row < self._n_primed
            and row % self._prime_orders < self._prime_orders - self._prime_pending
        )
        return OrderRecord(
            warehouse + 1,
            district + 1,
            int(self._log_customer[row]),
            order_seq,
            order_seq * self._lines,
            tuple(self._log_items[row].tolist()),
            None if never_pending else int(self._new_order_seq(np.array(row))),
        )

    def _district_index(self, warehouse: int, district: int) -> int:
        if not 1 <= warehouse <= self._warehouses:
            raise ValueError(
                f"warehouse must be in [1, {self._warehouses}], got {warehouse}"
            )
        if not 1 <= district <= DISTRICTS_PER_WAREHOUSE:
            raise ValueError(
                f"district must be in [1, {DISTRICTS_PER_WAREHOUSE}], got {district}"
            )
        return (warehouse - 1) * DISTRICTS_PER_WAREHOUSE + district - 1


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] .. starts[i] + counts[i] - 1`` for every ``i``, flat."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) + np.repeat(
        starts - (ends - counts), counts
    )

"""Random input generation for the five transactions (paper Section 2.2).

All tuple-id randomness follows the paper's assumptions:

* warehouse and district ids are uniform (each terminal submits at the
  same rate);
* customer ids come from NU(1023, 1, 3000) when selecting by id;
* by-name selection (60% of Payment / Order-Status) touches three
  customer tuples drawn near a NU(255, lbound, ubound) seed in one of
  three equally likely 1000-customer bands;
* item ids come from NU(8191, 1, 100000);
* 1% of order lines are supplied by a uniformly chosen remote
  warehouse; 15% of payments go through a remote warehouse.

This module is the one place those inputs are drawn.
:class:`InputGenerator` has one column method per transaction type and
one per kind of traffic a distributed node receives from its peers;
each returns whole columns of inputs.  The trace planner
(:mod:`repro.workload.trace`) takes them column by column, the
executable engine (:class:`~repro.tpcc.executor.TpccExecutor`) a block
at a time, as ``*Params`` rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.constants import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    ITEMS,
    ITEMS_PER_ORDER,
    NURAND_A_CUSTOMER,
    NURAND_A_ITEM,
    NURAND_A_NAME,
    REMOTE_PAYMENT_PROBABILITY,
    REMOTE_STOCK_PROBABILITY,
    SELECT_BY_NAME_PROBABILITY,
    TUPLES_PER_NAME_SELECT,
    UNIQUE_CUSTOMER_NAMES,
)
from repro.core.nurand import NURand, scaled_nurand_a
from repro.workload.transactions import (
    DeliveryParams,
    NewOrderParams,
    OrderLineRequest,
    OrderStatusParams,
    PaymentParams,
    StockLevelParams,
)


class _BlockSampler:
    """Refillable block of draws, handed out in runs.

    ``refill_block`` is the only thing that differs between primitives:
    a zero-argument callable returning the next block as an int64 or
    float64 array (:func:`_nurand_block`, :func:`_uniform_block`,
    :func:`_float_block`).  Scalar numpy calls cost microseconds each;
    drawing a block and handing out runs of it keeps the marginal
    distribution identical while amortizing the call.
    :meth:`draw_many_np` hands out one stream however the counts are
    split, which is what lets every consumer of :class:`InputGenerator`
    take whole columns.  The first refill is deferred to the first draw,
    so a primitive that is never used consumes nothing.

    An integer block is stored as int32, which holds every id, count
    and threshold :func:`validate_inputs` admits, so an idle executor
    keeps half the bytes; a draw widens its run back to int64.  Stored
    blocks are read-only.
    """

    __slots__ = ("_refill_block", "_dtype", "_buffer", "_next")

    def __init__(self, refill_block: Callable[[], np.ndarray], dtype: type = np.int64):
        self._refill_block = refill_block
        #: What draws return: int64 or float64, the refill's own dtype.
        self._dtype = dtype
        self._buffer: np.ndarray = np.empty(0, dtype=_STORED[dtype])
        self._next = 0

    def draw_many_np(self, count: int) -> "np.ndarray":
        """The next ``count`` draws of the stream, as a new array."""
        index = self._next
        buffer = self._buffer
        if index + count <= buffer.shape[0]:
            self._next = index + count
            return buffer[index : index + count].astype(self._dtype)
        parts = [buffer[index:]]
        got = buffer.shape[0] - index
        stored = buffer.dtype
        while got < count:
            buffer = self._buffer = self._refill_block().astype(stored, copy=False)
            buffer.flags.writeable = False
            take = min(count - got, buffer.shape[0])
            parts.append(buffer[:take])
            got += take
            self._next = take
        return np.concatenate(parts, dtype=self._dtype)


#: How :class:`_BlockSampler` stores a block of each draw dtype.
_STORED: dict[type, type] = {np.int64: np.int32, np.float64: np.float64}
_INT32_MAX = int(np.iinfo(np.int32).max)


def _nurand_block(sampler: NURand, rng: np.random.Generator) -> _BlockSampler:
    """Blocks of 8192 draws from one NURand sampler."""
    return _BlockSampler(partial(sampler.sample_array, rng, 8192))


def _uniform_block(rng: np.random.Generator, lo: int, hi: int) -> _BlockSampler:
    """Blocks of 4096 uniform integers over ``[lo, hi)``."""
    return _BlockSampler(partial(rng.integers, lo, hi, size=4096))


def _float_block(rng: np.random.Generator) -> _BlockSampler:
    """Blocks of 4096 uniform ``[0, 1)`` floats."""
    return _BlockSampler(partial(rng.random, 4096), np.float64)


#: The generator's substreams, in spawn order.  Every draw primitive
#: gets its own child generator of ``SeedSequence(seed)``, so a value
#: depends only on how many draws *its* primitive has made — never on
#: the interleaving across primitives or transaction types.  That makes
#: the values independent of how the draws are batched, so the trace
#: planner's chunk-sized columns and the engine's small blocks see the
#: same inputs of each type.  The ``g_*`` streams serve the traffic a
#: distributed node receives from its peers
#: (:meth:`InputGenerator.remote_stock_columns`,
#: :meth:`InputGenerator.remote_payment_columns`), so that traffic does
#: not perturb the per-transaction streams; ``g_remote`` has no reader
#: left but keeps its place, so the spawn order (and every value) stays
#: put.
SPLIT_STREAM_NAMES: tuple[str, ...] = (
    "no_warehouse",
    "no_district",
    "no_customer",
    "no_item",
    "no_flags",
    "no_remote",
    "p_warehouse",
    "p_district_home",
    "p_district_cust",
    "p_remote_float",
    "p_remote",
    "p_select_float",
    "p_customer",
    "p_band",
    "p_name0",
    "p_name1",
    "p_name2",
    "os_select_float",
    "os_customer",
    "os_band",
    "os_name0",
    "os_name1",
    "os_name2",
    "os_warehouse",
    "os_district",
    "d_warehouse",
    "sl_warehouse",
    "sl_district",
    "sl_threshold",
    "g_warehouse",
    "g_district",
    "g_customer",
    "g_item",
    "g_remote",
    "g_band",
    "g_name0",
    "g_name1",
    "g_name2",
    "g_float",
)


def validate_inputs(
    warehouses: int,
    *,
    items_per_order: int = ITEMS_PER_ORDER,
    remote_stock_probability: float = REMOTE_STOCK_PROBABILITY,
    remote_payment_probability: float = REMOTE_PAYMENT_PROBABILITY,
    items: int = ITEMS,
    customers_per_district: int = CUSTOMERS_PER_DISTRICT,
) -> None:
    """Raise :class:`ValueError` unless :class:`InputGenerator` can draw
    at this scale: positive counts below 2**31 (the samplers store
    int32), probabilities in ``[0, 1]`` and customers in whole name
    bands of :data:`TUPLES_PER_NAME_SELECT`.  Configurations that build
    a generator later call it at construction, so a bad value fails
    where it was written."""
    for name, count in (
        ("warehouses", warehouses),
        ("customers_per_district", customers_per_district),
        ("items", items),
        ("items_per_order", items_per_order),
    ):
        if count <= 0:
            raise ValueError(f"{name} must be positive, got {count}")
        if count > _INT32_MAX:
            raise ValueError(f"{name} must be at most {_INT32_MAX}, got {count}")
    for name, probability in (
        ("remote_stock_probability", remote_stock_probability),
        ("remote_payment_probability", remote_payment_probability),
    ):
        if not 0 <= probability <= 1:
            raise ValueError(f"{name} must be in [0, 1], got {probability}")
    if customers_per_district % TUPLES_PER_NAME_SELECT != 0:
        raise ValueError(
            f"customers_per_district must be divisible by "
            f"{TUPLES_PER_NAME_SELECT}, got {customers_per_district}"
        )


def _lists(columns: Sequence[np.ndarray]) -> list[list]:
    return [column.tolist() for column in columns]


class CustomerSelection(NamedTuple):
    """The customer selections of a column of Payments or Order-Statuses.

    ``by_name`` masks the by-name selections (60 %); ``singles`` holds
    the NU(1023) by-id customers and ``names`` one row of
    ``TUPLES_PER_NAME_SELECT`` ids per by-name selection, both in
    occurrence order.  A row's ids are drawn independently from the
    NU(255) distribution of one uniformly chosen band of customers, the
    paper's Section 3 simplification of the name lookup (the executable
    engine names the three customers the loader gave one last name).
    """

    by_name: np.ndarray
    singles: np.ndarray
    names: np.ndarray

    def lists(self) -> tuple[list[bool], Iterator[tuple[int, ...]]]:
        """``(by_name, customer_tuples)`` of each selection."""
        by_name = self.by_name.tolist()
        singles = iter(self.singles.tolist())
        names = map(tuple, self.names.tolist())
        return by_name, (next(names) if flag else (next(singles),) for flag in by_name)


class NewOrderColumns(NamedTuple):
    """Inputs of a column of New-Orders; ``items`` and
    ``supply_warehouse`` have one row of ``items_per_order`` per order."""

    warehouse: np.ndarray
    district: np.ndarray
    customer: np.ndarray
    items: np.ndarray
    supply_warehouse: np.ndarray

    def rows(self) -> Iterator[NewOrderParams]:
        warehouse, district, customer, items, supply = _lists(self)
        lines = (tuple(map(OrderLineRequest, *order)) for order in zip(items, supply))
        return map(NewOrderParams, warehouse, district, customer, lines)


class PaymentColumns(NamedTuple):
    """Inputs of a column of Payments."""

    warehouse: np.ndarray
    district: np.ndarray
    customer_warehouse: np.ndarray
    customer_district: np.ndarray
    selection: CustomerSelection

    def rows(self) -> Iterator[PaymentParams]:
        return map(PaymentParams, *_lists(self[:4]), *self.selection.lists())


class OrderStatusColumns(NamedTuple):
    """Inputs of a column of Order-Statuses."""

    warehouse: np.ndarray
    district: np.ndarray
    selection: CustomerSelection

    def rows(self) -> Iterator[OrderStatusParams]:
        return map(OrderStatusParams, *_lists(self[:2]), *self.selection.lists())


class DeliveryColumns(NamedTuple):
    """Inputs of a column of Deliveries."""

    warehouse: np.ndarray

    def rows(self) -> Iterator[DeliveryParams]:
        return map(DeliveryParams, *_lists(self))


class StockLevelColumns(NamedTuple):
    """Inputs of a column of Stock-Levels."""

    warehouse: np.ndarray
    district: np.ndarray
    threshold: np.ndarray

    def rows(self) -> Iterator[StockLevelParams]:
        return map(StockLevelParams, *_lists(self))


#: The samplers of one customer selection: the by-name floats, the
#: by-id customers, the bands and each band's names.
_Selector = tuple[_BlockSampler, _BlockSampler, _BlockSampler, list[_BlockSampler]]


class InputGenerator:
    """Generates transaction input parameters for ``warehouses`` warehouses.

    ``remote_stock_probability`` is exposed as a parameter because the
    paper's Figure 12 studies scale-up sensitivity to it; the benchmark
    value is 0.01.

    Every draw comes off the substreams of :data:`SPLIT_STREAM_NAMES`,
    spawned from ``SeedSequence(seed)``; the seed defaults to 0 because
    every draw in the repository must be replayable (reprolint REP001).
    Each ``*_columns(count)`` method draws the next ``count`` inputs of
    one type, consuming each of its substreams in transaction order
    (and in line order within a New-Order), so any split of a run of
    draws into calls yields the same inputs.  A column set's ``rows()``
    builds the ``*Params`` of each transaction as it is taken, so a
    consumer that takes a few rows of a block builds only those.  The
    trace generator and
    the executable engine both draw through these methods, so for one
    seed and scale both see the same ``k``-th input of each transaction
    type (the engine then sets the few fields only it uses; see
    :meth:`~repro.tpcc.executor.TpccExecutor._draw`).  Returned arrays
    are new ones, int64 or float64, never views of the samplers' blocks.
    """

    def __init__(
        self,
        warehouses: int,
        items_per_order: int = ITEMS_PER_ORDER,
        remote_stock_probability: float = REMOTE_STOCK_PROBABILITY,
        remote_payment_probability: float = REMOTE_PAYMENT_PROBABILITY,
        items: int = ITEMS,
        customers_per_district: int = CUSTOMERS_PER_DISTRICT,
        seed: int | Sequence[int] = 0,
    ):
        validate_inputs(
            warehouses,
            items_per_order=items_per_order,
            remote_stock_probability=remote_stock_probability,
            remote_payment_probability=remote_payment_probability,
            items=items,
            customers_per_district=customers_per_district,
        )
        self._items_per_order = items_per_order
        self._remote_stock_probability = remote_stock_probability
        self._remote_payment_probability = remote_payment_probability
        unique_names = customers_per_district // TUPLES_PER_NAME_SELECT

        a_item = scaled_nurand_a(items, ITEMS, NURAND_A_ITEM)
        a_customer = scaled_nurand_a(
            customers_per_district, CUSTOMERS_PER_DISTRICT, NURAND_A_CUSTOMER
        )
        a_name = scaled_nurand_a(unique_names, UNIQUE_CUSTOMER_NAMES, NURAND_A_NAME)
        item_nurand = NURand(a_item, 1, items)
        customer_nurand = NURand(a_customer, 1, customers_per_district)
        children = dict(
            zip(
                SPLIT_STREAM_NAMES,
                np.random.SeedSequence(seed).spawn(len(SPLIT_STREAM_NAMES)),
            )
        )

        def uniform(name: str, lo: int, hi: int) -> _BlockSampler:
            return _uniform_block(np.random.default_rng(children[name]), lo, hi)

        def floats(name: str) -> _BlockSampler:
            return _float_block(np.random.default_rng(children[name]))

        def nurand(name: str, dist: NURand) -> _BlockSampler:
            return _nurand_block(dist, np.random.default_rng(children[name]))

        def remote(name: str) -> _BlockSampler | None:
            # [1, warehouses) — only meaningful (and only constructible)
            # when there is more than one warehouse to pick from.
            if warehouses <= 1:
                return None
            return uniform(name, 1, warehouses)

        def selector(select: str, customer: str, band: str, names: str) -> _Selector:
            return (
                floats(select),
                nurand(customer, customer_nurand),
                uniform(band, 0, TUPLES_PER_NAME_SELECT),
                [
                    nurand(
                        f"{names}{band}",
                        NURand(a_name, band * unique_names + 1, (band + 1) * unique_names),
                    )
                    for band in range(TUPLES_PER_NAME_SELECT)
                ],
            )

        self._no_warehouse = uniform("no_warehouse", 1, warehouses + 1)
        self._no_district = uniform("no_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._no_customer = nurand("no_customer", customer_nurand)
        self._no_item = nurand("no_item", item_nurand)
        self._no_flags = floats("no_flags")
        self._no_remote = remote("no_remote")
        self._p_warehouse = uniform("p_warehouse", 1, warehouses + 1)
        self._p_district_home = uniform(
            "p_district_home", 1, DISTRICTS_PER_WAREHOUSE + 1
        )
        self._p_district_cust = uniform(
            "p_district_cust", 1, DISTRICTS_PER_WAREHOUSE + 1
        )
        self._p_remote_float = floats("p_remote_float")
        self._p_remote = remote("p_remote")
        self._p_selector = selector("p_select_float", "p_customer", "p_band", "p_name")
        self._os_selector = selector(
            "os_select_float", "os_customer", "os_band", "os_name"
        )
        self._os_warehouse = uniform("os_warehouse", 1, warehouses + 1)
        self._os_district = uniform("os_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._d_warehouse = uniform("d_warehouse", 1, warehouses + 1)
        self._sl_warehouse = uniform("sl_warehouse", 1, warehouses + 1)
        self._sl_district = uniform("sl_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._sl_threshold = uniform("sl_threshold", 10, 21)
        self._g_warehouse = uniform("g_warehouse", 1, warehouses + 1)
        self._g_district = uniform("g_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._g_item = nurand("g_item", item_nurand)
        self._g_selector = selector("g_float", "g_customer", "g_band", "g_name")

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def _remote_of(block: _BlockSampler | None, home: np.ndarray) -> np.ndarray:
        """A uniform warehouse other than each ``home`` (``home`` itself
        when there is no other)."""
        if block is None:
            return home
        other = block.draw_many_np(len(home))
        return other + (other >= home)

    @staticmethod
    def _select_customers(count: int, selector: _Selector) -> CustomerSelection:
        """``count`` customer selections: the by-name floats, the by-id
        customers, the bands, then each band's names in occurrence order."""
        select_float, customer, band_block, name_samplers = selector
        by_name = select_float.draw_many_np(count) < SELECT_BY_NAME_PROBABILITY
        n_by = int(np.count_nonzero(by_name))
        names = np.empty((n_by, TUPLES_PER_NAME_SELECT), dtype=np.int64)
        if n_by:
            bands = band_block.draw_many_np(n_by)
            for band, sampler in enumerate(name_samplers):
                at = np.flatnonzero(bands == band)
                if at.size:
                    draws = sampler.draw_many_np(TUPLES_PER_NAME_SELECT * int(at.size))
                    names[at] = draws.reshape(-1, TUPLES_PER_NAME_SELECT)
        return CustomerSelection(by_name, customer.draw_many_np(count - n_by), names)

    # -- per-transaction columns -------------------------------------------

    def new_order_columns(self, count: int) -> NewOrderColumns:
        """Inputs of the next ``count`` New-Orders.

        Per order: warehouse, district, customer, the line items, one
        remote flag per line and a supply warehouse per flagged line.
        """
        lines = self._items_per_order
        warehouse = self._no_warehouse.draw_many_np(count)
        items = self._no_item.draw_many_np(count * lines)
        flags = self._no_flags.draw_many_np(count * lines)
        supply = np.repeat(warehouse, lines)
        remote_at = np.flatnonzero(flags < self._remote_stock_probability)
        supply[remote_at] = self._remote_of(self._no_remote, supply[remote_at])
        return NewOrderColumns(
            warehouse,
            self._no_district.draw_many_np(count),
            self._no_customer.draw_many_np(count),
            items.reshape(count, lines),
            supply.reshape(count, lines),
        )

    def payment_columns(self, count: int) -> PaymentColumns:
        """Inputs of the next ``count`` Payments.

        Per Payment: warehouse, home district, the remote float; for a
        remote one (15 %) a customer warehouse and district; then the
        customer selection.
        """
        warehouse = self._p_warehouse.draw_many_np(count)
        district = self._p_district_home.draw_many_np(count)
        remote_at = np.flatnonzero(
            self._p_remote_float.draw_many_np(count) < self._remote_payment_probability
        )
        customer_warehouse = warehouse.copy()
        customer_district = district.copy()
        customer_warehouse[remote_at] = self._remote_of(
            self._p_remote, warehouse[remote_at]
        )
        customer_district[remote_at] = self._p_district_cust.draw_many_np(
            len(remote_at)
        )
        return PaymentColumns(
            warehouse,
            district,
            customer_warehouse,
            customer_district,
            self._select_customers(count, self._p_selector),
        )

    def order_status_columns(self, count: int) -> OrderStatusColumns:
        """Inputs of the next ``count`` Order-Statuses."""
        return OrderStatusColumns(
            self._os_warehouse.draw_many_np(count),
            self._os_district.draw_many_np(count),
            self._select_customers(count, self._os_selector),
        )

    def delivery_columns(self, count: int) -> DeliveryColumns:
        """Inputs of the next ``count`` Deliveries."""
        return DeliveryColumns(self._d_warehouse.draw_many_np(count))

    def stock_level_columns(self, count: int) -> StockLevelColumns:
        """Inputs of the next ``count`` Stock-Levels."""
        return StockLevelColumns(
            self._sl_warehouse.draw_many_np(count),
            self._sl_district.draw_many_np(count),
            self._sl_threshold.draw_many_np(count),
        )

    # -- traffic from peers -------------------------------------------------

    def remote_stock_columns(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(warehouse, item)`` of ``count`` New-Order stock lines that
        peers send here: a NURand item at a uniform local warehouse,
        statistically a sender's line when all nodes are configured
        alike."""
        return (
            self._g_warehouse.draw_many_np(count),
            self._g_item.draw_many_np(count),
        )

    def remote_payment_columns(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray, CustomerSelection]:
        """``(warehouse, district, selection)`` of the customers of
        ``count`` Payments that peers send here."""
        return (
            self._g_warehouse.draw_many_np(count),
            self._g_district.draw_many_np(count),
            self._select_customers(count, self._g_selector),
        )

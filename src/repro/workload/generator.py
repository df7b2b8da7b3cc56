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

Draws are buffered through vectorized NURand sampling so trace
generation stays fast while the public API remains scalar.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial

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
    """Refillable block of draws, handed out one by one.

    ``refill_block`` is the only thing that differs between primitives:
    a zero-argument callable returning the next block as an array
    (:func:`_nurand_block`, :func:`_uniform_block`, :func:`_float_block`).
    Scalar numpy calls cost microseconds each; drawing a block and
    handing it out keeps the marginal distribution identical while
    amortizing the call.  ``draw``, ``draw_many`` and ``draw_many_np``
    hand out one stream in any interleaving: the per-transaction
    ``*Params`` methods take Python numbers, the trace emitter whole
    columns.  The first refill is deferred to the first draw, so a
    primitive that is never used consumes nothing.
    """

    __slots__ = ("_refill_block", "_buffer", "_next")

    def __init__(self, refill_block: Callable[[], np.ndarray]):
        self._refill_block = refill_block
        # int64 so that concatenating the empty start with the first
        # real block keeps that block's dtype (int64 or float64).
        self._buffer: np.ndarray = np.empty(0, dtype=np.int64)
        self._next = 0

    def draw(self):
        index = self._next
        if index >= self._buffer.shape[0]:
            self._buffer = self._refill_block()
            index = 0
        self._next = index + 1
        return self._buffer[index].item()

    def draw_many(self, count: int) -> list:
        """``count`` sequential draws (same stream as ``draw`` repeated)."""
        return self.draw_many_np(count).tolist()

    def draw_many_np(self, count: int) -> "np.ndarray":
        """``draw_many`` returning an array view of the refill buffer.

        Callers must treat the result as read-only (it may alias the
        live buffer).
        """
        index = self._next
        buffer = self._buffer
        if index + count <= buffer.shape[0]:
            self._next = index + count
            return buffer[index : index + count]
        parts = [buffer[index:]]
        got = buffer.shape[0] - index
        while got < count:
            buffer = self._buffer = self._refill_block()
            take = min(count - got, buffer.shape[0])
            parts.append(buffer[:take])
            got += take
            self._next = take
        return np.concatenate(parts)


def _nurand_block(sampler: NURand, rng: np.random.Generator) -> _BlockSampler:
    """Blocks of 8192 draws from one NURand sampler."""
    return _BlockSampler(partial(sampler.sample_array, rng, 8192))


def _uniform_block(rng: np.random.Generator, lo: int, hi: int) -> _BlockSampler:
    """Blocks of 4096 uniform integers over ``[lo, hi)``."""
    return _BlockSampler(partial(rng.integers, lo, hi, size=4096))


def _float_block(rng: np.random.Generator) -> _BlockSampler:
    """Blocks of 4096 uniform ``[0, 1)`` floats."""
    return _BlockSampler(partial(rng.random, 4096))


#: The generator's substreams, in spawn order.  Every draw primitive
#: gets its own child generator of ``SeedSequence(seed)``, so a value
#: depends only on how many draws *its* primitive has made — never on
#: the interleaving across primitives or transaction types.  That makes
#: the values independent of how the draws are batched, which is what
#: lets the trace emitter draw whole columns at a time, and lets the
#: executable engine, which draws one transaction at a time, see the
#: same inputs of each type.  The ``g_*`` streams serve the traffic a
#: distributed node receives from its peers
#: (``TraceGenerator.remote_*_refs``), so that traffic does not perturb
#: the per-transaction streams; ``g_remote`` has no reader left but
#: keeps its place, so the spawn order (and every value) stays put.
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


class InputGenerator:
    """Generates transaction input parameters for ``warehouses`` warehouses.

    ``remote_stock_probability`` is exposed as a parameter because the
    paper's Figure 12 studies scale-up sensitivity to it; the benchmark
    value is 0.01.

    Every draw comes off the substreams of :data:`SPLIT_STREAM_NAMES`,
    spawned from ``SeedSequence(seed)``; the seed defaults to 0 because
    every draw in the repository must be replayable (reprolint REP001).
    The trace generator and the executable engine both draw through
    this one layout, so for one seed and scale both see the same
    ``k``-th input of each transaction type (the engine then sets the
    few fields only it uses; see
    :meth:`~repro.tpcc.executor.TpccExecutor._draw`).
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
        if warehouses <= 0:
            raise ValueError(f"warehouses must be positive, got {warehouses}")
        if items_per_order <= 0:
            raise ValueError(f"items_per_order must be positive, got {items_per_order}")
        if not 0 <= remote_stock_probability <= 1:
            raise ValueError(
                f"remote_stock_probability must be in [0, 1], got "
                f"{remote_stock_probability}"
            )
        if not 0 <= remote_payment_probability <= 1:
            raise ValueError(
                f"remote_payment_probability must be in [0, 1], got "
                f"{remote_payment_probability}"
            )
        if customers_per_district % TUPLES_PER_NAME_SELECT != 0:
            raise ValueError(
                f"customers_per_district must be divisible by "
                f"{TUPLES_PER_NAME_SELECT}, got {customers_per_district}"
            )
        self._warehouses = warehouses
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

        def names(prefix: str) -> list[_BlockSampler]:
            return [
                nurand(
                    f"{prefix}{band}",
                    NURand(a_name, band * unique_names + 1, (band + 1) * unique_names),
                )
                for band in range(TUPLES_PER_NAME_SELECT)
            ]

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
        self._p_select_float = floats("p_select_float")
        self._p_customer = nurand("p_customer", customer_nurand)
        self._p_band = uniform("p_band", 0, TUPLES_PER_NAME_SELECT)
        self._p_names = names("p_name")
        self._os_select_float = floats("os_select_float")
        self._os_customer = nurand("os_customer", customer_nurand)
        self._os_band = uniform("os_band", 0, TUPLES_PER_NAME_SELECT)
        self._os_names = names("os_name")
        self._os_warehouse = uniform("os_warehouse", 1, warehouses + 1)
        self._os_district = uniform("os_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._d_warehouse = uniform("d_warehouse", 1, warehouses + 1)
        self._sl_warehouse = uniform("sl_warehouse", 1, warehouses + 1)
        self._sl_district = uniform("sl_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._sl_threshold = uniform("sl_threshold", 10, 21)
        self._g_warehouse = uniform("g_warehouse", 1, warehouses + 1)
        self._g_district = uniform("g_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
        self._g_customer = nurand("g_customer", customer_nurand)
        self._g_item = nurand("g_item", item_nurand)
        self._g_band = uniform("g_band", 0, TUPLES_PER_NAME_SELECT)
        self._g_names = names("g_name")
        self._g_float = floats("g_float")

    # -- shared helpers -----------------------------------------------------

    @property
    def warehouses(self) -> int:
        return self._warehouses

    @property
    def items_per_order(self) -> int:
        return self._items_per_order

    @staticmethod
    def _remote_from(block: _BlockSampler | None, home: int) -> int:
        if block is None:
            return home
        other = block.draw()
        return other if other < home else other + 1

    @staticmethod
    def _customer_tuples_from(
        select_float: _BlockSampler,
        customer_sampler: _BlockSampler,
        band_block: _BlockSampler,
        name_samplers: list[_BlockSampler],
    ) -> tuple[bool, tuple[int, ...]]:
        """Customer ids touched by a Payment / Order-Status selection.

        Returns ``(by_name, ids)``: one NU(1023)-drawn id 40% of the
        time; 60% of the time three ids drawn independently from the
        NU(255) distribution of a uniformly chosen band of 1000
        customers.  This is the paper's Section 3 simplification of the
        name lookup — the three same-named tuples are "distributed
        across the 3000 tuples", not adjacent (the executable engine in
        :mod:`repro.tpcc` replaces them with the three customers the
        loader gave one last name).
        """
        if select_float.draw() >= SELECT_BY_NAME_PROBABILITY:
            return False, (customer_sampler.draw(),)
        sampler = name_samplers[band_block.draw()]
        return True, tuple(sampler.draw_many(TUPLES_PER_NAME_SELECT))

    # -- per-transaction generators ----------------------------------------

    def new_order(self) -> NewOrderParams:
        """Inputs for one New-Order transaction.

        Draw order: warehouse, the line items, one remote flag per
        line, a supply warehouse per flagged line, district, customer.
        """
        warehouse = self._no_warehouse.draw()
        count = self._items_per_order
        items = self._no_item.draw_many(count)
        remote_flags = self._no_flags.draw_many(count)
        p_remote = self._remote_stock_probability
        lines = tuple(
            OrderLineRequest(
                item_id=item,
                supply_warehouse=(
                    self._remote_from(self._no_remote, warehouse)
                    if flag < p_remote
                    else warehouse
                ),
            )
            for item, flag in zip(items, remote_flags)
        )
        return NewOrderParams(
            warehouse=warehouse,
            district=self._no_district.draw(),
            customer=self._no_customer.draw(),
            lines=lines,
        )

    def payment(self) -> PaymentParams:
        """Inputs for one Payment transaction."""
        warehouse = self._p_warehouse.draw()
        district = self._p_district_home.draw()
        if self._p_remote_float.draw() < self._remote_payment_probability:
            customer_warehouse = self._remote_from(self._p_remote, warehouse)
            customer_district = self._p_district_cust.draw()
        else:
            customer_warehouse = warehouse
            customer_district = district
        by_name, tuples = self._customer_tuples_from(
            self._p_select_float, self._p_customer, self._p_band, self._p_names
        )
        return PaymentParams(
            warehouse=warehouse,
            district=district,
            customer_warehouse=customer_warehouse,
            customer_district=customer_district,
            by_name=by_name,
            customer_tuples=tuples,
        )

    def order_status(self) -> OrderStatusParams:
        """Inputs for one Order-Status transaction."""
        by_name, tuples = self._customer_tuples_from(
            self._os_select_float, self._os_customer, self._os_band, self._os_names
        )
        return OrderStatusParams(
            warehouse=self._os_warehouse.draw(),
            district=self._os_district.draw(),
            by_name=by_name,
            customer_tuples=tuples,
        )

    def delivery(self) -> DeliveryParams:
        """Inputs for one Delivery transaction."""
        return DeliveryParams(warehouse=self._d_warehouse.draw())

    def stock_level(self) -> StockLevelParams:
        """Inputs for one Stock-Level transaction."""
        return StockLevelParams(
            warehouse=self._sl_warehouse.draw(),
            district=self._sl_district.draw(),
            threshold=self._sl_threshold.draw(),
        )

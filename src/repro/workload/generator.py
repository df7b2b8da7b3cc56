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

from collections.abc import Callable
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
    amortizing the call.  ``draw``/``draw_many`` — the per-transaction
    ``*Params`` methods — hand out Python numbers from a plain-list copy
    of the block (no per-call numpy scalar boxing), made when a scalar
    draw first needs the current block; the trace emitter reads whole
    columns with ``draw_many_np`` and never pays for it.  The first
    refill is deferred to the first draw — a primitive that is never
    used consumes nothing — unless ``eager`` asks for it at
    construction.
    """

    __slots__ = ("_refill_block", "_buffer", "_buffer_np", "_next")

    def __init__(self, refill_block: Callable[[], np.ndarray], eager: bool = False):
        self._refill_block = refill_block
        # int64 so that concatenating the empty start with the first
        # real block keeps that block's dtype (int64 or float64).
        self._buffer_np: np.ndarray = (
            refill_block() if eager else np.empty(0, dtype=np.int64)
        )
        # The list copy of ``_buffer_np``; empty until a scalar draw
        # asks for the current block.
        self._buffer: list = []
        self._next = 0

    def _refill(self) -> None:
        self._buffer_np = self._refill_block()
        self._buffer = []
        self._next = 0

    def _listed(self) -> list:
        """The current block as a list (the next block if this one is spent)."""
        if self._next >= self._buffer_np.shape[0]:
            self._refill()
        self._buffer = self._buffer_np.tolist()
        return self._buffer

    def draw(self):
        index = self._next
        if index >= len(self._buffer):
            self._listed()
            index = self._next
        self._next = index + 1
        return self._buffer[index]

    def draw_many(self, count: int) -> list:
        """``count`` sequential draws (same stream as ``draw`` repeated)."""
        index = self._next
        buffer = self._buffer
        if count and index >= len(buffer):
            buffer = self._listed()
            index = self._next
        if index + count <= len(buffer):
            self._next = index + count
            return buffer[index : index + count]
        out = buffer[index:]
        self._next = len(buffer)
        while len(out) < count:
            buffer = self._listed()
            take = min(count - len(out), len(buffer))
            out += buffer[:take]
            self._next = take
        return out

    def draw_many_np(self, count: int) -> "np.ndarray":
        """``draw_many`` returning an array view of the refill buffer.

        Same stream, same bookkeeping — only the container differs, so
        columnar consumers skip the list round-trip.  Callers must treat
        the result as read-only (it may alias the live buffer).
        """
        index = self._next
        buffer_np = self._buffer_np
        if index + count <= buffer_np.shape[0]:
            self._next = index + count
            return buffer_np[index : index + count]
        parts = [buffer_np[index:]]
        got = buffer_np.shape[0] - index
        self._next = buffer_np.shape[0]
        while got < count:
            self._refill()
            buffer_np = self._buffer_np
            take = min(count - got, buffer_np.shape[0])
            parts.append(buffer_np[:take])
            got += take
            self._next = take
        return np.concatenate(parts)


def _nurand_block(
    sampler: NURand, rng: np.random.Generator, eager: bool = False
) -> _BlockSampler:
    """Blocks of 8192 draws from one NURand sampler."""
    return _BlockSampler(partial(sampler.sample_array, rng, 8192), eager)


def _uniform_block(rng: np.random.Generator, lo: int, hi: int) -> _BlockSampler:
    """Blocks of 4096 uniform integers over ``[lo, hi)``."""
    return _BlockSampler(partial(rng.integers, lo, hi, size=4096))


def _float_block(rng: np.random.Generator) -> _BlockSampler:
    """Blocks of 4096 uniform ``[0, 1)`` floats."""
    return _BlockSampler(partial(rng.random, 4096))


#: Substream layout of split-stream mode, in spawn order.  Every draw
#: primitive gets its own child generator of the config's seed
#: sequence, so a value depends only on how many draws *its* primitive
#: has made — never on the interleaving across primitives.  That makes
#: the values independent of how the draws are batched, which is what
#: lets the trace emitter draw whole columns at a time.  The ``g_*``
#: streams back the generic accessors (``uniform_warehouse`` etc.) so
#: external draws don't perturb the per-transaction streams.
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

    When no ``rng`` is passed, a generator seeded with 0 is used: every
    draw in the repository must be replayable, so an OS-entropy-seeded
    default would silently break trace determinism (reprolint REP001).

    ``split_streams=True`` switches to the substream layout of
    :data:`SPLIT_STREAM_NAMES` seeded from ``seed_sequence``: the same
    marginal distributions, but with each primitive on an independent
    child generator so draws can be consumed in batches.  The trace
    generator runs in this mode; the executable engine keeps the
    shared-``rng`` default.
    """

    def __init__(
        self,
        warehouses: int,
        rng: np.random.Generator | None = None,
        items_per_order: int = ITEMS_PER_ORDER,
        remote_stock_probability: float = REMOTE_STOCK_PROBABILITY,
        remote_payment_probability: float = REMOTE_PAYMENT_PROBABILITY,
        items: int = ITEMS,
        customers_per_district: int = CUSTOMERS_PER_DISTRICT,
        split_streams: bool = False,
        seed_sequence: np.random.SeedSequence | None = None,
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
        self._items = items
        self._customers_per_district = customers_per_district
        self._unique_names = customers_per_district // TUPLES_PER_NAME_SELECT
        self._split = split_streams

        a_item = scaled_nurand_a(items, ITEMS, NURAND_A_ITEM)
        a_customer = scaled_nurand_a(
            customers_per_district, CUSTOMERS_PER_DISTRICT, NURAND_A_CUSTOMER
        )
        a_name = scaled_nurand_a(
            self._unique_names, UNIQUE_CUSTOMER_NAMES, NURAND_A_NAME
        )
        item_nurand = NURand(a_item, 1, items)
        customer_nurand = NURand(a_customer, 1, customers_per_district)

        def name_nurand(band: int) -> NURand:
            return NURand(
                a_name,
                band * self._unique_names + 1,
                (band + 1) * self._unique_names,
            )

        if not split_streams:
            self._rng = rng if rng is not None else np.random.default_rng(0)
            shared = self._rng
            item_sampler = _nurand_block(item_nurand, shared, eager=True)
            customer_sampler = _nurand_block(customer_nurand, shared, eager=True)
            name_samplers = [
                _nurand_block(name_nurand(band), shared, eager=True)
                for band in range(TUPLES_PER_NAME_SELECT)
            ]
            warehouse_block = _uniform_block(shared, 1, warehouses + 1)
            district_block = _uniform_block(shared, 1, DISTRICTS_PER_WAREHOUSE + 1)
            # [1, warehouses) — only meaningful (and only constructible)
            # when there is more than one warehouse to pick from.
            remote_block = (
                _uniform_block(shared, 1, warehouses) if warehouses > 1 else None
            )
            band_block = _uniform_block(shared, 0, len(name_samplers))
            threshold_block = _uniform_block(shared, 10, 21)
            float_block = _float_block(shared)
            # Every per-transaction primitive aliases the shared one, so
            # the draw stream is exactly the historical shared-rng order.
            self._no_warehouse = warehouse_block
            self._p_warehouse = warehouse_block
            self._os_warehouse = warehouse_block
            self._d_warehouse = warehouse_block
            self._sl_warehouse = warehouse_block
            self._g_warehouse = warehouse_block
            self._no_district = district_block
            self._p_district_home = district_block
            self._p_district_cust = district_block
            self._os_district = district_block
            self._sl_district = district_block
            self._g_district = district_block
            self._no_customer = customer_sampler
            self._p_customer = customer_sampler
            self._os_customer = customer_sampler
            self._g_customer = customer_sampler
            self._no_item = item_sampler
            self._g_item = item_sampler
            self._no_flags = float_block
            self._p_remote_float = float_block
            self._p_select_float = float_block
            self._os_select_float = float_block
            self._g_float = float_block
            self._no_remote = remote_block
            self._p_remote = remote_block
            self._g_remote = remote_block
            self._p_band = band_block
            self._os_band = band_block
            self._g_band = band_block
            self._p_names = name_samplers
            self._os_names = name_samplers
            self._g_names = name_samplers
            self._sl_threshold = threshold_block
        else:
            if seed_sequence is None:
                raise ValueError("split_streams=True requires a seed_sequence")
            children = dict(
                zip(
                    SPLIT_STREAM_NAMES,
                    seed_sequence.spawn(len(SPLIT_STREAM_NAMES)),
                )
            )
            self._rng = np.random.default_rng(seed_sequence)

            def uniform(name: str, lo: int, hi: int) -> _BlockSampler:
                return _uniform_block(np.random.default_rng(children[name]), lo, hi)

            def floats(name: str) -> _BlockSampler:
                return _float_block(np.random.default_rng(children[name]))

            def nurand(name: str, dist: NURand) -> _BlockSampler:
                return _nurand_block(dist, np.random.default_rng(children[name]))

            def remote(name: str) -> _BlockSampler | None:
                if warehouses <= 1:
                    return None
                return uniform(name, 1, warehouses)

            self._no_warehouse = uniform("no_warehouse", 1, warehouses + 1)
            self._no_district = uniform(
                "no_district", 1, DISTRICTS_PER_WAREHOUSE + 1
            )
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
            self._p_names = [
                nurand(f"p_name{band}", name_nurand(band))
                for band in range(TUPLES_PER_NAME_SELECT)
            ]
            self._os_select_float = floats("os_select_float")
            self._os_customer = nurand("os_customer", customer_nurand)
            self._os_band = uniform("os_band", 0, TUPLES_PER_NAME_SELECT)
            self._os_names = [
                nurand(f"os_name{band}", name_nurand(band))
                for band in range(TUPLES_PER_NAME_SELECT)
            ]
            self._os_warehouse = uniform("os_warehouse", 1, warehouses + 1)
            self._os_district = uniform(
                "os_district", 1, DISTRICTS_PER_WAREHOUSE + 1
            )
            self._d_warehouse = uniform("d_warehouse", 1, warehouses + 1)
            self._sl_warehouse = uniform("sl_warehouse", 1, warehouses + 1)
            self._sl_district = uniform(
                "sl_district", 1, DISTRICTS_PER_WAREHOUSE + 1
            )
            self._sl_threshold = uniform("sl_threshold", 10, 21)
            self._g_warehouse = uniform("g_warehouse", 1, warehouses + 1)
            self._g_district = uniform("g_district", 1, DISTRICTS_PER_WAREHOUSE + 1)
            self._g_customer = nurand("g_customer", customer_nurand)
            self._g_item = nurand("g_item", item_nurand)
            self._g_remote = remote("g_remote")
            self._g_band = uniform("g_band", 0, TUPLES_PER_NAME_SELECT)
            self._g_names = [
                nurand(f"g_name{band}", name_nurand(band))
                for band in range(TUPLES_PER_NAME_SELECT)
            ]
            self._g_float = floats("g_float")

    # -- shared helpers -----------------------------------------------------

    @property
    def warehouses(self) -> int:
        return self._warehouses

    @property
    def items_per_order(self) -> int:
        return self._items_per_order

    def uniform_warehouse(self) -> int:
        """A warehouse id in ``[1 .. warehouses]``."""
        return self._g_warehouse.draw()

    def uniform_district(self) -> int:
        """A district id in ``[1 .. 10]``."""
        return self._g_district.draw()

    @staticmethod
    def _remote_from(block: _BlockSampler | None, home: int) -> int:
        if block is None:
            return home
        other = block.draw()
        return other if other < home else other + 1

    def remote_warehouse(self, home: int) -> int:
        """A warehouse id uniform over all warehouses except ``home``."""
        return self._remote_from(self._g_remote, home)

    def customer_id(self) -> int:
        """One NURand-distributed customer id."""
        return self._g_customer.draw()

    def item_id(self) -> int:
        """One NURand-distributed item id."""
        return self._g_item.draw()

    def _customer_tuples_from(
        self,
        select_float: _BlockSampler,
        customer_sampler: _BlockSampler,
        band_block: _BlockSampler,
        name_samplers: list[_BlockSampler],
    ) -> tuple[bool, tuple[int, ...]]:
        if select_float.draw() >= SELECT_BY_NAME_PROBABILITY:
            return False, (customer_sampler.draw(),)
        sampler = name_samplers[band_block.draw()]
        return True, tuple(sampler.draw_many(TUPLES_PER_NAME_SELECT))

    def customer_tuples(self) -> tuple[bool, tuple[int, ...]]:
        """Customer ids touched by a Payment / Order-Status selection.

        Returns ``(by_name, ids)``: one NU(1023)-drawn id 40% of the
        time; 60% of the time three ids drawn independently from the
        NU(255) distribution of a uniformly chosen band of 1000
        customers.  This is the paper's Section 3 simplification of the
        name lookup — the three same-named tuples are "distributed
        across the 3000 tuples", not adjacent (the executable engine in
        :mod:`repro.tpcc` resolves real last names instead).
        """
        return self._customer_tuples_from(
            self._g_float, self._g_customer, self._g_band, self._g_names
        )

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

"""Page-reference trace generation for the buffer simulation (Section 4).

A :class:`TraceGenerator` draws transactions from the mix, generates
their inputs, updates the order bookkeeping, and emits one page
reference per distinct tuple touched — exactly the access census of
paper Table 3, mapped to pages through the configured packing strategy.

Relations are addressed by small integer indexes (:data:`RELATION_INDEX`)
so the buffer pool can key pages with cheap ``(relation, page)`` tuples.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.constants import (
    CUSTOMERS_PER_DISTRICT,
    DEFAULT_PAGE_SIZE,
    DISTRICTS_PER_WAREHOUSE,
    ITEMS,
    ITEMS_PER_ORDER,
    REMOTE_STOCK_PROBABILITY,
    STOCK_LEVEL_ORDERS,
)
from repro.core.mapping import RelationLayout
from repro.core.nurand import customer_mixture_distribution, item_id_distribution
from repro.core.packing import (
    HottestFirstPacking,
    PackingStrategy,
    RandomPacking,
    SequentialPacking,
)
from repro.workload.generator import InputGenerator
from repro.workload.mix import DEFAULT_MIX, TransactionMix
from repro.workload.schema import RELATIONS
from repro.workload.state import ColumnarOrderState
from repro.workload.stream import (
    DEFAULT_BATCH_SIZE,
    EncodedBatch,
    VectorBatchEmitter,
    select_payment_customers,
)

#: Relation names in a stable order; positions are the relation indexes.
RELATION_NAMES: tuple[str, ...] = (
    "warehouse",
    "district",
    "customer",
    "stock",
    "item",
    "order",
    "new_order",
    "order_line",
    "history",
)

#: Relation name -> integer index used in page keys.
RELATION_INDEX: dict[str, int] = {name: i for i, name in enumerate(RELATION_NAMES)}

_WAREHOUSE = RELATION_INDEX["warehouse"]
_DISTRICT = RELATION_INDEX["district"]
_CUSTOMER = RELATION_INDEX["customer"]
_STOCK = RELATION_INDEX["stock"]
_ITEM = RELATION_INDEX["item"]
_ORDER = RELATION_INDEX["order"]
_NEW_ORDER = RELATION_INDEX["new_order"]
_ORDER_LINE = RELATION_INDEX["order_line"]
_HISTORY = RELATION_INDEX["history"]


class PageReference(NamedTuple):
    """One page touched by a transaction."""

    relation: int
    page: int
    write: bool

    @property
    def relation_name(self) -> str:
        return RELATION_NAMES[self.relation]


#: Number of statically sized relations (the first five of
#: :data:`RELATION_NAMES`); their page counts are fixed by the layouts.
N_STATIC_RELATIONS = 5

#: Number of append-only relations (order, new_order, order_line,
#: history); their page counts grow without bound as the trace runs.
N_GROWING_RELATIONS = len(RELATION_NAMES) - N_STATIC_RELATIONS

#: Bit layout of an int-encoded reference:
#: ``ref = (page_id << REF_PID_SHIFT) | (relation << REF_REL_SHIFT) | write``.
REF_WRITE_MASK = 0x1
REF_REL_SHIFT = 1
REF_REL_MASK = 0xF
REF_PID_SHIFT = 5


class PageIdSpace:
    """Dense int interning of ``(relation, page)`` keys.

    The five static relations get contiguous page-id ranges laid out
    back to back (``static_bases[rel] + page``).  The four growing
    relations are interleaved above ``static_total`` —
    ``static_total + page * N_GROWING_RELATIONS + (rel - N_STATIC_RELATIONS)``
    — so each stays dense no matter how far it grows and the whole id
    space stays compact (ids only exist for pages actually referenced).

    A full reference additionally carries the relation index and the
    write flag in its low five bits (see ``REF_*``), so the simulator
    kernels can bucket misses by relation without a reverse lookup.
    """

    __slots__ = ("static_bases", "static_total")

    def __init__(self, static_pages: Sequence[int]):
        if len(static_pages) != N_STATIC_RELATIONS:
            raise ValueError(
                f"expected {N_STATIC_RELATIONS} static page counts, "
                f"got {len(static_pages)}"
            )
        bases = []
        total = 0
        for pages in static_pages:
            if pages <= 0:
                raise ValueError(f"static relation page counts must be positive, got {pages}")
            bases.append(total)
            total += pages
        self.static_bases: tuple[int, ...] = tuple(bases)
        self.static_total: int = total

    def encode(self, relation: int, page: int) -> int:
        """The dense page id of ``(relation, page)``."""
        if relation < N_STATIC_RELATIONS:
            return self.static_bases[relation] + page
        return (
            self.static_total
            + page * N_GROWING_RELATIONS
            + (relation - N_STATIC_RELATIONS)
        )

    def decode(self, page_id: int) -> tuple[int, int]:
        """The ``(relation, page)`` key behind a dense page id."""
        if page_id < self.static_total:
            for relation in range(N_STATIC_RELATIONS - 1, -1, -1):
                base = self.static_bases[relation]
                if page_id >= base:
                    return relation, page_id - base
        offset = page_id - self.static_total
        return (
            N_STATIC_RELATIONS + offset % N_GROWING_RELATIONS,
            offset // N_GROWING_RELATIONS,
        )

    def encode_ref(self, relation: int, page: int, write: bool) -> int:
        """The full int encoding of one reference."""
        return (
            (self.encode(relation, page) << REF_PID_SHIFT)
            | (relation << REF_REL_SHIFT)
            | (1 if write else 0)
        )

    def decode_ref(self, ref: int) -> PageReference:
        """The :class:`PageReference` behind an int-encoded reference."""
        relation = (ref >> REF_REL_SHIFT) & REF_REL_MASK
        page_id = ref >> REF_PID_SHIFT
        if relation < N_STATIC_RELATIONS:
            page = page_id - self.static_bases[relation]
        else:
            page = (page_id - self.static_total) // N_GROWING_RELATIONS
        return PageReference(relation, page, bool(ref & REF_WRITE_MASK))

    def decode_ref_arrays(
        self, refs: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Column-wise :meth:`decode_ref` over a whole encoded batch.

        Returns ``(relation, page, write)`` arrays; element ``i`` of
        each equals the corresponding field of ``decode_ref(refs[i])``.
        """
        relation = (refs >> REF_REL_SHIFT) & REF_REL_MASK
        page_id = refs >> REF_PID_SHIFT
        bases = np.zeros(REF_REL_MASK + 1, dtype=np.int64)
        bases[:N_STATIC_RELATIONS] = self.static_bases
        page = np.where(
            relation < N_STATIC_RELATIONS,
            page_id - bases[relation],
            (page_id - self.static_total) // N_GROWING_RELATIONS,
        )
        return relation, page, (refs & REF_WRITE_MASK).astype(bool)


#: Valid packing selections for the skewed relations.
PACKING_KINDS = ("sequential", "optimized", "random")


@dataclass(frozen=True, kw_only=True)
class TraceConfig:
    """Configuration of a trace run (keyword-only).

    ``packing`` selects how the Customer, Stock and Item relations are
    loaded; the tiny Warehouse/District relations and the append-only
    relations are always sequential.  ``prime_orders``/``prime_pending``
    pre-populate each district's order history so the stateful
    transactions have work from the first reference.  Derive variants
    from a base config with :meth:`replace`.
    """

    warehouses: int = 20
    page_size: int = DEFAULT_PAGE_SIZE
    packing: str = "sequential"
    mix: TransactionMix = field(default_factory=lambda: DEFAULT_MIX)
    items_per_order: int = ITEMS_PER_ORDER
    remote_stock_probability: float = REMOTE_STOCK_PROBABILITY
    prime_orders: int = STOCK_LEVEL_ORDERS + 10
    prime_pending: int = 10
    seed: int = 0
    #: Scaled-database knobs (full TPC-C scale by default); used by the
    #: engine cross-validation to run the trace model at engine scale.
    items: int = ITEMS
    customers_per_district: int = CUSTOMERS_PER_DISTRICT

    def __post_init__(self) -> None:
        if self.packing not in PACKING_KINDS:
            raise ValueError(
                f"packing must be one of {PACKING_KINDS}, got {self.packing!r}"
            )
        if self.warehouses <= 0:
            raise ValueError(f"warehouses must be positive, got {self.warehouses}")
        if self.prime_orders < 0 or self.prime_pending < 0:
            raise ValueError(
                f"prime_orders and prime_pending must be non-negative, got "
                f"{self.prime_orders} and {self.prime_pending}"
            )
        if self.prime_pending > self.prime_orders:
            raise ValueError(
                f"prime_pending ({self.prime_pending}) cannot exceed prime_orders "
                f"({self.prime_orders})"
            )
        if self.prime_orders > self.customers_per_district:
            raise ValueError(
                f"prime_orders ({self.prime_orders}) cannot exceed "
                f"customers_per_district ({self.customers_per_district})"
            )

    def replace(self, **overrides) -> "TraceConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **overrides)


def _skewed_packing(
    kind: str, n_tuples: int, tuples_per_page: int, hotness, seed: int
) -> PackingStrategy:
    """Build the packing strategy for one skewed relation block."""
    if kind == "sequential":
        return SequentialPacking(n_tuples, tuples_per_page)
    if kind == "optimized":
        return HottestFirstPacking(n_tuples, tuples_per_page, hotness)
    return RandomPacking(n_tuples, tuples_per_page, seed=seed)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _TraceTables:
    """The part of a trace generator that does not depend on its seed.

    Relation layouts and packings, the page-id space, the reference
    tags and the per-tuple encoded-reference tables are fixed by the
    database shape (warehouses, page size, packing, scale) — and, for
    ``random`` packing only, by the seed the packings are drawn from.
    :func:`_trace_tables` builds them once per process, so every node
    of a distributed run shares one set; the arrays are read-only.
    """

    def __init__(
        self,
        warehouses: int,
        page_size: int,
        packing: str,
        items: int,
        customers_per_district: int,
        seed: int,
    ):
        spec = RELATIONS
        self.tpp_order = spec["order"].tuples_per_page(page_size)
        self.tpp_new_order = spec["new_order"].tuples_per_page(page_size)
        self.tpp_order_line = spec["order_line"].tuples_per_page(page_size)
        self.tpp_history = spec["history"].tuples_per_page(page_size)
        self.warehouse_tpp = spec["warehouse"].tuples_per_page(page_size)
        self.district_tpp = spec["district"].tuples_per_page(page_size)

        self.warehouse_layout = RelationLayout(
            "warehouse",
            SequentialPacking(warehouses, self.warehouse_tpp),
            n_blocks=1,
        )
        self.district_layout = RelationLayout(
            "district",
            SequentialPacking(
                warehouses * DISTRICTS_PER_WAREHOUSE, self.district_tpp
            ),
            n_blocks=1,
        )
        self.customer_layout = RelationLayout(
            "customer",
            _skewed_packing(
                packing,
                customers_per_district,
                spec["customer"].tuples_per_page(page_size),
                customer_mixture_distribution(customers_per_district),
                seed=seed + 1,
            ),
            n_blocks=warehouses * DISTRICTS_PER_WAREHOUSE,
        )
        item_hotness = item_id_distribution(items)
        self.stock_layout = RelationLayout(
            "stock",
            _skewed_packing(
                packing,
                items,
                spec["stock"].tuples_per_page(page_size),
                item_hotness,
                seed=seed + 2,
            ),
            n_blocks=warehouses,
        )
        self.item_layout = RelationLayout(
            "item",
            _skewed_packing(
                packing,
                items,
                spec["item"].tuples_per_page(page_size),
                item_hotness,
                seed=seed + 3,
            ),
            n_blocks=1,
        )
        self.customer_ppb = self.customer_layout.pages_per_block
        self.stock_ppb = self.stock_layout.pages_per_block

        # Int-encoded reference plumbing.  A reference is
        # ``(page << shift) + tag`` where the tag folds together the
        # relation's base page id, the relation index, and the write
        # flag — one add and one shift per reference in the hot loops.
        self.space = space = PageIdSpace(
            (
                self.warehouse_layout.n_pages,
                self.district_layout.n_pages,
                self.customer_layout.n_pages,
                self.stock_layout.n_pages,
                self.item_layout.n_pages,
            )
        )

        def static_tag(relation: int, write: bool) -> int:
            return (
                (space.static_bases[relation] << REF_PID_SHIFT)
                | (relation << REF_REL_SHIFT)
                | (1 if write else 0)
            )

        def growing_tag(relation: int, write: bool) -> int:
            slot = relation - N_STATIC_RELATIONS
            return (
                ((space.static_total + slot) << REF_PID_SHIFT)
                | (relation << REF_REL_SHIFT)
                | (1 if write else 0)
            )

        self.tag_warehouse_r = static_tag(_WAREHOUSE, False)
        self.tag_warehouse_w = static_tag(_WAREHOUSE, True)
        self.tag_district_r = static_tag(_DISTRICT, False)
        self.tag_district_w = static_tag(_DISTRICT, True)
        self.tag_customer_r = static_tag(_CUSTOMER, False)
        self.tag_customer_w = static_tag(_CUSTOMER, True)
        self.tag_stock_w = static_tag(_STOCK, True)
        self.tag_item_r = static_tag(_ITEM, False)
        self.tag_order_r = growing_tag(_ORDER, False)
        self.tag_order_w = growing_tag(_ORDER, True)
        self.tag_new_order_w = growing_tag(_NEW_ORDER, True)
        self.tag_order_line_r = growing_tag(_ORDER_LINE, False)
        self.tag_order_line_w = growing_tag(_ORDER_LINE, True)
        self.tag_history_w = growing_tag(_HISTORY, True)
        # For a growing relation, page * N_GROWING_RELATIONS << REF_PID_SHIFT
        # collapses into one shift by this amount (N_GROWING_RELATIONS = 4).
        self.growing_shift = REF_PID_SHIFT + 2

        # Per-tuple encoded-reference tables: the full reference for
        # tuple ``t`` is ``(block_base << 5) + table[t - 1]``, turning
        # the emitter's page lookup + shift + tag into one indexed add.
        # (Item needs no block base; its table holds full refs.)
        item_pages = self.item_layout.packing.local_page_array() << REF_PID_SHIFT
        stock_pages = self.stock_layout.packing.local_page_array() << REF_PID_SHIFT
        customer_pages = (
            self.customer_layout.packing.local_page_array() << REF_PID_SHIFT
        )
        self.item_ref_r = _read_only(item_pages + self.tag_item_r)
        self.stock_off_w = _read_only(stock_pages + self.tag_stock_w)
        self.customer_off_r = _read_only(customer_pages + self.tag_customer_r)
        self.customer_off_w = _read_only(customer_pages + self.tag_customer_w)


#: The shared :class:`_TraceTables` of one database shape.  One entry: a
#: distributed run asks for the same shape once per node, and a sweep
#: that moves between shapes keeps only the latest alive.
_trace_tables = functools.lru_cache(maxsize=1)(_TraceTables)


class TraceGenerator:
    """Generates the TPC-C page-reference stream.

    Use :meth:`stream` for an unbounded stream of encoded batches (or
    decoded transactions), :meth:`encoded_batch` for one bounded batch,
    or :meth:`references` for a flat bounded stream.  The generator owns
    all randomness (seeded via the config) and the workload state, so a
    given config yields a reproducible trace.

    Only the seeded state is per generator: the mix RNG, the input
    generator, the primed order state and the mix buffer.  The layouts,
    tags and encoded-reference tables come from :func:`_trace_tables`,
    shared with every generator of the same database shape.
    """

    def __init__(self, config: TraceConfig):
        self._config = config
        # One shared generator covers the mix sampling and the one-shot
        # priming draw; every per-transaction input primitive runs on
        # its own substream of the input generator, spawned from the
        # same seed, so the batch emitter can draw each one column-wise.
        self._rng = np.random.default_rng(config.seed)
        self._generator = InputGenerator(
            config.warehouses,
            items_per_order=config.items_per_order,
            remote_stock_probability=config.remote_stock_probability,
            items=config.items,
            customers_per_district=config.customers_per_district,
            seed=config.seed,
        )
        self._mix = config.mix
        # The seed shapes the tables only through random packing.
        self._tables = _trace_tables(
            config.warehouses,
            config.page_size,
            config.packing,
            config.items,
            config.customers_per_district,
            config.seed if config.packing == "random" else 0,
        )

        # Buffered transaction-type sampling (rng.choice is slow per
        # call): the planner slices the array.
        self._mix_array = np.empty(0, dtype=np.int64)
        self._mix_next = 0

        # Per-transaction access counts by relation index of the
        # fixed-shape transactions (the emitter scales the others).
        lines = config.items_per_order
        self._counts_new_order = (1, 1, 1, lines, lines, 1, 1, lines, 0)
        self._counts_payment_one = (1, 1, 1, 0, 0, 0, 0, 0, 1)
        self._counts_payment_many = (1, 1, 3, 0, 0, 0, 0, 0, 1)

        self._orders = self._prime_state()

        # The batch builder behind ``stream``/``encoded_batch``.  It
        # reaches back through a weak proxy: a strong back-reference
        # would make every generator cyclic garbage that keeps its
        # state alive until a full collection.
        self._emitter = VectorBatchEmitter(weakref.proxy(self))

    # -- public accessors -----------------------------------------------------

    @property
    def config(self) -> TraceConfig:
        return self._config

    @property
    def state(self) -> ColumnarOrderState:
        """The order bookkeeping, as a read-only view.

        The emitter resolves a planned chunk of transactions at a time,
        so the queries (``pending_count``, ``pending_orders``,
        ``recent_orders``, ``last_order_of``) see the state up to one
        planned chunk past the last emitted transaction; the insertion
        counters (``orders_placed``, ``order_lines_inserted``,
        ``new_order_inserts``, ``history_rows``) see exactly what was
        emitted.
        """
        return self._orders

    @property
    def page_id_space(self) -> PageIdSpace:
        """The dense page-id interning this trace encodes references with."""
        return self._tables.space

    def total_static_pages(self) -> dict[str, int]:
        """Pages occupied by the non-growing relations (diagnostics)."""
        return {
            "warehouse": self._tables.warehouse_layout.n_pages,
            "district": self._tables.district_layout.n_pages,
            "customer": self._tables.customer_layout.n_pages,
            "stock": self._tables.stock_layout.n_pages,
            "item": self._tables.item_layout.n_pages,
        }

    # -- priming -----------------------------------------------------------------

    def _prime_state(self) -> ColumnarOrderState:
        """The order state holding the tail of TPC-C's initial population.

        The initial database gives every customer one order, laid out
        district by district.  The buffer model only needs the *recent*
        ones: the last ``prime_orders`` per district enter the recent
        list (for Stock-Level) with real random item ids, and the last
        ``prime_pending`` of those are pending (for Delivery).  Older
        initial orders are position arithmetic, looked up when
        Order-Status asks for a cold customer's last order.
        """
        config = self._config
        n_primed = config.warehouses * DISTRICTS_PER_WAREHOUSE * config.prime_orders
        return ColumnarOrderState(
            config.warehouses,
            config.customers_per_district,
            config.prime_pending,
            self._rng.integers(
                1, config.items + 1, size=(n_primed, config.items_per_order)
            ),
        )

    # -- per-transaction reference generation -------------------------------------

    def stream(self, *, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[EncodedBatch]:
        """The trace as an endless run of :class:`EncodedBatch` blocks.

        Each block holds at least ``batch_size`` int-encoded references
        and ends on a transaction boundary; :meth:`references` and
        ``page_id_space.decode_ref_arrays`` decode them.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self._batches(batch_size)

    def _batches(self, batch_size: int) -> Iterator[EncodedBatch]:
        while True:
            yield self.encoded_batch(min_refs=batch_size)

    def encoded_batch(
        self,
        *,
        min_refs: int | None = None,
        transactions: int | None = None,
    ) -> EncodedBatch:
        """One :class:`EncodedBatch`, bounded by references or transactions.

        ``min_refs`` emits whole transactions until the batch holds at
        least that many references; ``transactions`` emits exactly that
        many transactions.  Exactly one bound must be given.  This is
        the building block under :meth:`stream`; the simulator calls it
        directly to align batches with its measurement windows.
        """
        if (min_refs is None) == (transactions is None):
            raise ValueError("exactly one of min_refs/transactions is required")
        return self._emitter.next_batch(
            min_refs=min_refs, transactions=transactions
        )

    def remote_stock_refs(self, count: int) -> np.ndarray:
        """``count`` encoded New-Order stock-line writes arriving from peers.

        A fresh NURand item at a uniform local warehouse is
        statistically equivalent to a sender's line when all nodes are
        identically configured.  The draws come off the generator's
        generic (``g_*``) substreams, which are independent of the
        per-transaction streams, so they never perturb the trace.
        """
        generator, tables = self._generator, self._tables
        warehouse = generator._g_warehouse.draw_many_np(count)
        item = generator._g_item.draw_many_np(count)
        return (((warehouse - 1) * tables.stock_ppb) << REF_PID_SHIFT) + (
            tables.stock_off_w[item - 1]
        )

    def remote_payment_refs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Customer blocks of ``count`` Payments arriving from peers.

        Returns ``(refs, lengths)``: the encoded Customer references
        back to back and how many each Payment contributes — one
        written NURand id, or the same-named candidates with the median
        id written at its first occurrence, exactly the trace's own
        Payment selection.  Draws use the generic substreams (see
        :meth:`remote_stock_refs`).
        """
        generator, tables = self._generator, self._tables
        warehouse = generator._g_warehouse.draw_many_np(count)
        district = generator._g_district.draw_many_np(count)
        by_name, singles, name_mat, write_col = select_payment_customers(
            count,
            generator._g_float,
            generator._g_customer,
            generator._g_band,
            generator._g_names,
        )
        base = (
            ((warehouse - 1) * DISTRICTS_PER_WAREHOUSE + (district - 1))
            * tables.customer_ppb
        ) << REF_PID_SHIFT
        width = name_mat.shape[1]
        lengths = np.where(by_name, width, 1)
        starts = np.cumsum(lengths) - lengths
        refs = np.empty(int(lengths.sum()), dtype=np.int64)
        refs[starts[~by_name]] = base[~by_name] + tables.customer_off_w[singles - 1]
        many = base[by_name][:, None] + tables.customer_off_r[name_mat - 1]
        many[np.arange(len(many)), write_col] += REF_WRITE_MASK
        refs[starts[by_name][:, None] + np.arange(width)] = many
        return refs, lengths

    def _refill_mix(self) -> None:
        self._mix_array = self._mix.sample_array(self._rng, 8192)
        self._mix_next = 0

    def _next_tx_indices(self, count: int) -> np.ndarray:
        """``count`` mix draws in bulk, off the same buffered stream.

        Slices the buffered mix array, refilling it in 8192-draw blocks,
        so the sample sequence does not depend on how the planner
        splits its requests.
        """
        parts: list[np.ndarray] = []
        while count:
            if self._mix_next >= len(self._mix_array):
                self._refill_mix()
            index = self._mix_next
            take = min(len(self._mix_array) - index, count)
            parts.append(self._mix_array[index : index + take])
            self._mix_next = index + take
            count -= take
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def references(self, transactions: int) -> Iterator[PageReference]:
        """The references of the next ``transactions`` transactions, flat."""
        batch = self.encoded_batch(transactions=transactions)
        columns = self._tables.space.decode_ref_arrays(batch.refs)
        return map(PageReference, *(column.tolist() for column in columns))

    def highest_page_id(self) -> int:
        """Upper bound on the dense page ids emitted so far.

        The static relations are bounded by construction; the growing
        relations' extent follows from the order state's insertion
        counters — which advance with the batches emitted, not the
        chunks planned — so this is O(1).  The simulator calls it once
        per batch to pre-size the kernels' page tables.
        """
        orders, tables = self._orders, self._tables
        growing = max(
            (orders.orders_placed // tables.tpp_order) * N_GROWING_RELATIONS
            + (_ORDER - N_STATIC_RELATIONS),
            (orders.new_order_inserts // tables.tpp_new_order) * N_GROWING_RELATIONS
            + (_NEW_ORDER - N_STATIC_RELATIONS),
            (orders.order_lines_inserted // tables.tpp_order_line)
            * N_GROWING_RELATIONS
            + (_ORDER_LINE - N_STATIC_RELATIONS),
            (orders.history_rows // tables.tpp_history) * N_GROWING_RELATIONS
            + (_HISTORY - N_STATIC_RELATIONS),
        )
        return tables.space.static_total + growing

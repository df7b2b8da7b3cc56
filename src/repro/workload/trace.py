"""Page-reference trace generation for the buffer simulation (Section 4).

A :class:`TraceGenerator` draws transactions from the mix, generates
their inputs, updates the order bookkeeping, and emits one page
reference per distinct tuple touched — exactly the access census of
paper Table 3, mapped to pages through the configured packing strategy.
References are packed ints in the format of :mod:`repro.workload.stream`
and come out as :class:`~repro.workload.stream.EncodedBatch` blocks.

The generator plans whole *chunks* of transactions: it draws a chunk's
inputs column by column, resolves the chunk's order bookkeeping at once
and assembles its references group by group into one array in
transaction order.  There is no per-transaction Python on this path, and
a batch is a cut of that array.

Why the batch cuts do not matter: the inputs come from the column
methods of :class:`~repro.workload.generator.InputGenerator`, the one
place each transaction type's inputs are drawn (the executable engine
draws through the same methods).  There every draw primitive owns an
independent child generator
(see :data:`~repro.workload.generator.SPLIT_STREAM_NAMES`), so a drawn
value depends only on how many draws *its own* primitive has made, and
a column method consumes each substream in transaction order; so any
split of a run of transactions into columns yields the same inputs.
Chunks cover a fixed number of transactions and carry over across
batches, so the emitted trace is independent of ``batch_size`` and of
the chunk size.  The planner itself only resolves the order state and
assembles references.

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
is planned.  The insertion counters behind ``highest_page_id`` still
advance by what each batch *emitted*.
``tests/property/test_stream_equivalence.py`` pins SHA-256 digests of
the emitted blocks (and every batch's ``highest_page_id``) for six
configurations, and an independent ``deque``/``dict`` oracle
(``tests/property/test_order_state_oracle.py``) checks the resolution
itself at several chunk sizes.
"""

from __future__ import annotations

import functools
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
    TUPLES_PER_NAME_SELECT,
)
from repro.core.mapping import RelationLayout
from repro.core.nurand import customer_mixture_distribution, item_id_distribution
from repro.core.packing import (
    HottestFirstPacking,
    PackingStrategy,
    RandomPacking,
    SequentialPacking,
)
from repro.stats.distribution import DiscreteDistribution
from repro.workload.generator import (
    CustomerSelection,
    InputGenerator,
    PaymentColumns,
    validate_inputs,
)
from repro.workload.mix import DEFAULT_MIX, TRANSACTION_ORDER, TransactionMix, TransactionType
from repro.workload.schema import RELATIONS
from repro.workload.state import ChunkResolution, ColumnarOrderState
from repro.workload.stream import (
    DEFAULT_BATCH_SIZE,
    N_GROWING_RELATIONS,
    N_RELATIONS,
    N_STATIC_RELATIONS,
    REF_GROWING_SHIFT,
    REF_PID_SHIFT,
    REF_REL_MASK,
    REF_REL_SHIFT,
    REF_WRITE_MASK,
    RELATION_INDEX,
    RELATION_NAMES,
    EncodedBatch,
    ref_relations,
)

_WAREHOUSE = RELATION_INDEX["warehouse"]
_DISTRICT = RELATION_INDEX["district"]
_CUSTOMER = RELATION_INDEX["customer"]
_STOCK = RELATION_INDEX["stock"]
_ITEM = RELATION_INDEX["item"]
_ORDER = RELATION_INDEX["order"]
_NEW_ORDER = RELATION_INDEX["new_order"]
_ORDER_LINE = RELATION_INDEX["order_line"]
_HISTORY = RELATION_INDEX["history"]

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


class PageReference(NamedTuple):
    """One page touched by a transaction."""

    relation: int
    page: int
    write: bool

    @property
    def relation_name(self) -> str:
        return RELATION_NAMES[self.relation]


class PageIdSpace:
    """Dense int interning of ``(relation, page)`` keys.

    The five static relations get contiguous page-id ranges laid out
    back to back (``static_bases[rel] + page``).  The four growing
    relations are interleaved above ``static_total`` —
    ``static_total + page * N_GROWING_RELATIONS + (rel - N_STATIC_RELATIONS)``
    — so each stays dense no matter how far it grows and the whole id
    space stays compact (ids only exist for pages actually referenced).

    A full reference additionally carries the relation index and the
    write flag in its low bits (the format of :mod:`repro.workload.stream`),
    so the simulator kernels can bucket misses by relation without a
    reverse lookup.
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
            | (REF_WRITE_MASK if write else 0)
        )

    def decode_ref(self, ref: int) -> PageReference:
        """The :class:`PageReference` behind an int-encoded reference."""
        relation = ref_relations(ref)
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
        relation = ref_relations(refs)
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
        validate_inputs(
            self.warehouses,
            items_per_order=self.items_per_order,
            remote_stock_probability=self.remote_stock_probability,
            items=self.items,
            customers_per_district=self.customers_per_district,
        )
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
        customer_hotness = customer_mixture_distribution(customers_per_district)
        self.customer_layout = RelationLayout(
            "customer",
            _skewed_packing(
                packing,
                customers_per_district,
                spec["customer"].tuples_per_page(page_size),
                customer_hotness,
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
        #: What :func:`skewed_layouts` returns.
        self.skewed: dict[str, tuple[RelationLayout, DiscreteDistribution]] = {
            "customer": (self.customer_layout, customer_hotness),
            "stock": (self.stock_layout, item_hotness),
            "item": (self.item_layout, item_hotness),
        }

        # Int-encoded reference plumbing.  A reference is
        # ``(page << shift) + tag``, where the tag is the reference of
        # the relation's page 0: one add and one shift per reference in
        # the hot loops.
        self.space = space = PageIdSpace(
            (
                self.warehouse_layout.n_pages,
                self.district_layout.n_pages,
                self.customer_layout.n_pages,
                self.stock_layout.n_pages,
                self.item_layout.n_pages,
            )
        )
        tag = functools.partial(space.encode_ref, page=0)
        self.tag_warehouse_r = tag(_WAREHOUSE, write=False)
        self.tag_warehouse_w = tag(_WAREHOUSE, write=True)
        self.tag_district_r = tag(_DISTRICT, write=False)
        self.tag_district_w = tag(_DISTRICT, write=True)
        self.tag_order_r = tag(_ORDER, write=False)
        self.tag_order_w = tag(_ORDER, write=True)
        self.tag_new_order_w = tag(_NEW_ORDER, write=True)
        self.tag_order_line_r = tag(_ORDER_LINE, write=False)
        self.tag_order_line_w = tag(_ORDER_LINE, write=True)
        self.tag_history_w = tag(_HISTORY, write=True)

        # Per-tuple encoded-reference tables: the full reference for
        # tuple ``t`` of a block is ``(block_base << REF_PID_SHIFT) +
        # table[t - 1]``, turning the page lookup + shift + tag into one
        # indexed add.  (Item needs no block base; its table holds full
        # refs.)
        item_pages = self.item_layout.packing.local_page_array() << REF_PID_SHIFT
        stock_pages = self.stock_layout.packing.local_page_array() << REF_PID_SHIFT
        customer_pages = (
            self.customer_layout.packing.local_page_array() << REF_PID_SHIFT
        )
        self.item_ref_r = _read_only(item_pages + tag(_ITEM, write=False))
        self.stock_off_w = _read_only(stock_pages + tag(_STOCK, write=True))
        self.customer_off_r = _read_only(customer_pages + tag(_CUSTOMER, write=False))
        self.customer_off_w = _read_only(customer_pages + tag(_CUSTOMER, write=True))


#: The shared :class:`_TraceTables` of one database shape.  One entry: a
#: distributed run asks for the same shape once per node, and a sweep
#: that moves between shapes keeps only the latest alive.
_trace_tables = functools.lru_cache(maxsize=1)(_TraceTables)


def _tables_of(config: TraceConfig) -> _TraceTables:
    # The seed shapes the tables only through random packing.
    return _trace_tables(
        config.warehouses,
        config.page_size,
        config.packing,
        config.items,
        config.customers_per_district,
        config.seed if config.packing == "random" else 0,
    )


def skewed_layouts(
    config: TraceConfig,
) -> dict[str, tuple[RelationLayout, DiscreteDistribution]]:
    """The Customer, Stock and Item layouts of ``config``'s database.

    Maps each relation, in that order, to its :class:`RelationLayout`
    (packing and block count) and the tuple access PMF every block of
    it shares — the layouts the trace itself addresses pages through.
    """
    return _tables_of(config).skewed


def _district_index(warehouse: np.ndarray, district: np.ndarray) -> np.ndarray:
    """0-based district indexes (the Customer block numbers) of 1-based
    ``(warehouse, district)`` ids."""
    return (warehouse - 1) * DISTRICTS_PER_WAREHOUSE + (district - 1)


def _median_names(names: np.ndarray) -> np.ndarray:
    """The customer each by-name row selects: its median id."""
    return np.sort(names, axis=1)[:, TUPLES_PER_NAME_SELECT // 2]


def _sequential_refs(
    index: np.ndarray, tuples_per_page: int, tag: int, shift: int = REF_PID_SHIFT
) -> np.ndarray:
    """References to the pages holding 0-based tuples ``index`` of a
    sequentially packed relation whose page 0 has reference ``tag``
    (``shift``: :data:`REF_GROWING_SHIFT` for a growing relation)."""
    return ((index // tuples_per_page) << shift) + tag


def _cat_arrays(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate a handful of array parts (pass-through for one)."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


class _PlannedChunk(NamedTuple):
    """One planned chunk, fully resolved and assembled.

    ``refs`` holds every reference of the chunk's transactions back to
    back; ``cum[i]`` is the number of references before transaction
    ``i``.  ``weights`` carries the one per-transaction quantity the
    access counts still depend on (Payment: 1 if by name; Order-Status:
    customers read; Delivery: orders delivered; Stock-Level: orders
    scanned).
    """

    types: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray
    refs: np.ndarray
    cum: np.ndarray


class TraceGenerator:
    """Generates the TPC-C page-reference stream.

    Use :meth:`stream` for an unbounded stream of encoded batches,
    :meth:`encoded_batch` for one bounded batch, or :meth:`references`
    for a flat bounded stream of decoded references.  The generator owns
    all randomness (seeded via the config) and the workload state, so a
    given config yields a reproducible trace.

    Only the seeded state is per generator: the mix RNG, the input
    generator, the primed order state, the mix buffer and the planned
    chunk.  The layouts, tags and encoded-reference tables come from
    :func:`_trace_tables`, shared with every generator of the same
    database shape.
    """

    def __init__(self, config: TraceConfig):
        self._config = config
        # One generator covers the mix sampling and the one-shot priming
        # draw; the inputs come off the input generator's substreams.
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
        self._tables = _tables_of(config)

        # Buffered transaction-type sampling (rng.choice is slow per
        # call): the planner slices the array.
        self._mix_array = np.empty(0, dtype=np.int64)
        self._mix_next = 0

        self._orders = self._prime_state()

        lines = self._lines = config.items_per_order
        self._no_width = 5 + 3 * lines
        self._pay_many_width = 3 + TUPLES_PER_NAME_SELECT
        # Access counts by (type, relation) are linear in two numbers
        # per type: how many transactions, and the sum of their chunk
        # ``weights``.  Every order — live, primed, or initial —
        # carries exactly ``lines`` order lines.
        per_tx = np.zeros((_N_TYPES, N_RELATIONS), dtype=np.int64)
        per_weight = np.zeros((_N_TYPES, N_RELATIONS), dtype=np.int64)
        per_tx[_NEW_ORDER_IDX, [_WAREHOUSE, _DISTRICT, _CUSTOMER, _ORDER, _NEW_ORDER]] = 1
        per_tx[_NEW_ORDER_IDX, [_STOCK, _ITEM, _ORDER_LINE]] = lines
        per_tx[_PAYMENT_IDX, [_WAREHOUSE, _DISTRICT, _CUSTOMER, _HISTORY]] = 1
        per_weight[_PAYMENT_IDX, _CUSTOMER] = TUPLES_PER_NAME_SELECT - 1
        per_tx[_ORDER_STATUS_IDX, [_ORDER, _ORDER_LINE]] = 1, lines
        per_weight[_ORDER_STATUS_IDX, _CUSTOMER] = 1
        per_weight[
            _DELIVERY_IDX, [_CUSTOMER, _ORDER, _NEW_ORDER, _ORDER_LINE]
        ] = 1, 1, 1, lines
        per_tx[_STOCK_LEVEL_IDX, _DISTRICT] = 1
        per_weight[_STOCK_LEVEL_IDX, [_STOCK, _ORDER_LINE]] = lines
        self._accesses_per_tx = per_tx
        self._accesses_per_weight = per_weight
        # The current planned chunk and the next unemitted position in
        # it (carry over between batches); History positions are handed
        # out at plan time, ahead of the emitted-row counter.
        empty = np.empty(0, dtype=np.int64)
        self._chunk = _PlannedChunk(empty, empty, empty, empty, np.zeros(1, np.int64))
        self._pos = 0
        self._planned_payments = 0

    # -- public accessors -----------------------------------------------------

    @property
    def config(self) -> TraceConfig:
        return self._config

    @property
    def state(self) -> ColumnarOrderState:
        """The order bookkeeping, as a read-only view.

        The generator resolves a planned chunk of transactions at a
        time, so the queries (``pending_count``, ``pending_orders``,
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

    # -- batches ---------------------------------------------------------------------

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
        directly to align batches with its measurement windows.  A
        batch is a cut of the planned chunks (of a few, when it crosses
        chunk boundaries), found by one binary search on the cumulative
        reference counts.
        """
        if min_refs is not None and transactions is None:
            by_refs, remaining = True, min_refs
        elif transactions is not None and min_refs is None:
            by_refs, remaining = False, transactions
        else:
            raise ValueError("exactly one of min_refs/transactions is required")
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
        self._orders.record_emitted(
            int(counts[_NEW_ORDER_IDX]), int(counts[_PAYMENT_IDX])
        )
        return EncodedBatch(
            _cat_arrays([c.refs[c.cum[a] : c.cum[b]] for c, a, b in cuts]),
            tx_indices,
            _cat_arrays([c.lengths[a:b] for c, a, b in cuts]),
            counts[:, None] * self._accesses_per_tx
            + sums.astype(np.int64)[:, None] * self._accesses_per_weight,
            self.highest_page_id(),
        )

    def remote_stock_refs(self, count: int) -> np.ndarray:
        """``count`` encoded New-Order stock-line writes arriving from
        peers, drawn by :meth:`InputGenerator.remote_stock_columns`."""
        return self._stock_refs(*self._generator.remote_stock_columns(count))

    def remote_payment_refs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Customer blocks of ``count`` Payments arriving from peers.

        Returns ``(refs, lengths)``: the encoded Customer references
        back to back and how many each Payment contributes — exactly the
        block a Payment of the trace writes.  The inputs come from
        :meth:`InputGenerator.remote_payment_columns`.
        """
        warehouse, district, selection = self._generator.remote_payment_columns(count)
        lengths = np.where(selection.by_name, TUPLES_PER_NAME_SELECT, 1)
        refs = np.empty(int(lengths.sum()), dtype=np.int64)
        self._put_customer_selection(
            refs,
            np.cumsum(lengths) - lengths,
            _district_index(warehouse, district),
            selection,
            write=True,
        )
        return refs, lengths

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
        encode = tables.space.encode
        return max(
            encode(_ORDER, orders.orders_placed // tables.tpp_order),
            encode(_NEW_ORDER, orders.new_order_inserts // tables.tpp_new_order),
            encode(_ORDER_LINE, orders.order_lines_inserted // tables.tpp_order_line),
            encode(_HISTORY, orders.history_rows // tables.tpp_history),
        )

    # -- chunk planning ----------------------------------------------------------

    def _next_tx_indices(self, count: int) -> np.ndarray:
        """``count`` mix draws in bulk, off the same buffered stream.

        Slices the buffered mix array, refilling it in 8192-draw blocks,
        so the sample sequence does not depend on how the planner
        splits its requests.
        """
        parts: list[np.ndarray] = []
        while count:
            if self._mix_next >= len(self._mix_array):
                self._mix_array = self._mix.sample_array(self._rng, 8192)
                self._mix_next = 0
            index = self._mix_next
            take = min(len(self._mix_array) - index, count)
            parts.append(self._mix_array[index : index + take])
            self._mix_next = index + take
            count -= take
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _plan_chunk(self, size: int) -> _PlannedChunk:
        """Draw, resolve and assemble the next ``size`` transactions.

        The inputs come from the generator's column methods, one call
        per transaction type; the columnar order state resolves every
        Order-Status, Delivery and Stock-Level of the chunk at once, and
        the references are assembled group by group into one array in
        transaction order.
        """
        generator = self._generator
        lines = self._lines
        types = self._next_tx_indices(size)
        no_pos, p_pos, os_pos, d_pos, sl_pos = (
            np.flatnonzero(types == index) for index in range(_N_TYPES)
        )
        lengths = np.empty(size, dtype=np.int64)
        weights = np.zeros(size, dtype=np.int64)

        new_order = generator.new_order_columns(len(no_pos))
        no_district = _district_index(new_order.warehouse, new_order.district)
        os_input = generator.order_status_columns(len(os_pos))
        os_by_name, os_singles, os_names = os_selection = os_input.selection
        os_selected = np.empty(len(os_pos), dtype=np.int64)
        os_selected[~os_by_name] = os_singles
        os_selected[os_by_name] = _median_names(os_names)
        os_district = _district_index(os_input.warehouse, os_input.district)
        d_warehouse = generator.delivery_columns(len(d_pos)).warehouse - 1
        stock_level = generator.stock_level_columns(len(sl_pos))
        sl_district = _district_index(stock_level.warehouse, stock_level.district)

        resolved = self._orders.resolve_chunk(
            size,
            no_pos,
            no_district,
            new_order.customer,
            new_order.items,
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
        payment = generator.payment_columns(len(p_pos))
        p_by_name = payment.selection.by_name
        lengths[p_pos] = np.where(p_by_name, self._pay_many_width, 4)
        weights[p_pos] = p_by_name
        history = self._planned_payments + np.arange(len(p_pos), dtype=np.int64)
        self._planned_payments += len(p_pos)

        cum = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lengths, out=cum[1:])
        starts = cum[:-1]
        out = np.empty(int(cum[-1]), dtype=np.int64)
        self._assemble_new_order(
            out,
            starts[no_pos],
            new_order.warehouse,
            no_district,
            new_order.customer,
            resolved.placed_order_seq,
            resolved.placed_new_order_seq,
            new_order.items,
            new_order.supply_warehouse,
        )
        self._assemble_payments(out, starts[p_pos], payment, history)
        self._assemble_order_status(
            out, starts[os_pos], os_district, os_selection, resolved.last_order_seq
        )
        self._assemble_delivery(out, starts[d_pos], resolved)
        self._assemble_stock_level(
            out, starts[sl_pos], stock_level.warehouse, sl_district, resolved
        )
        self._chunk = chunk = _PlannedChunk(types, lengths, weights, out, cum)
        self._pos = 0
        return chunk

    # -- per-group assembly --------------------------------------------------
    #
    # Districts are 0-based indexes ``(warehouse - 1) * 10 + district - 1``
    # (the Customer block number); warehouses, customers and items are
    # 1-based ids.

    def _customer_refs(
        self, district: np.ndarray, customer: np.ndarray, write: bool
    ) -> np.ndarray:
        """References to ``customer`` in the Customer block of ``district``."""
        tables = self._tables
        offsets = tables.customer_off_w if write else tables.customer_off_r
        return ((district * tables.customer_ppb) << REF_PID_SHIFT) + offsets[customer - 1]

    def _stock_refs(self, warehouse: np.ndarray, item: np.ndarray) -> np.ndarray:
        """Writes of stock ``item`` at ``warehouse`` (a read is one less)."""
        tables = self._tables
        refs = tables.stock_off_w[item - 1]
        refs += ((warehouse - 1) * tables.stock_ppb) << REF_PID_SHIFT
        return refs

    def _order_line_refs(self, order_seq: np.ndarray, tag: int) -> np.ndarray:
        """One row of Order-Line references per order (``lines`` each)."""
        lines = self._lines
        return _sequential_refs(
            (order_seq * lines)[:, None] + np.arange(lines, dtype=np.int64),
            self._tables.tpp_order_line,
            tag,
            REF_GROWING_SHIFT,
        )

    def _put_customer_selection(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        district: np.ndarray,
        selection: CustomerSelection,
        write: bool,
    ) -> None:
        """Scatter customer selections at ``starts``: one by-id customer,
        or the same-named candidates in draw order.  With ``write`` the
        by-id customer, or the median candidate at its first occurrence,
        is written (Payment); without, all are read (Order-Status)."""
        by_name, singles, names = selection
        out[starts[~by_name]] = self._customer_refs(district[~by_name], singles, write)
        many = self._customer_refs(district[by_name][:, None], names, False)
        if write:
            write_col = np.argmax(names == _median_names(names)[:, None], axis=1)
            many[np.arange(len(many)), write_col] += REF_WRITE_MASK
        width = TUPLES_PER_NAME_SELECT
        out[starts[by_name][:, None] + np.arange(width, dtype=np.int64)] = many

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
        line_warehouse: np.ndarray,
    ) -> None:
        """Scatter New-Order refs: warehouse read, district write,
        customer read, Order and New-Order appends, then per line an
        item read, a stock write and an Order-Line append (``items``
        and ``line_warehouse`` have one row per order)."""
        tables = self._tables
        mat = np.empty((len(warehouse), self._no_width), dtype=np.int64)
        mat[:, 0] = _sequential_refs(
            warehouse - 1, tables.warehouse_tpp, tables.tag_warehouse_r
        )
        mat[:, 1] = _sequential_refs(district, tables.district_tpp, tables.tag_district_w)
        mat[:, 2] = self._customer_refs(district, customer, False)
        mat[:, 3] = _sequential_refs(
            order_seq, tables.tpp_order, tables.tag_order_w, REF_GROWING_SHIFT
        )
        mat[:, 4] = _sequential_refs(
            new_seq, tables.tpp_new_order, tables.tag_new_order_w, REF_GROWING_SHIFT
        )
        mat[:, 5::3] = tables.item_ref_r[items - 1]
        mat[:, 6::3] = self._stock_refs(line_warehouse, items)
        mat[:, 7::3] = self._order_line_refs(order_seq, tables.tag_order_line_w)
        out[starts[:, None] + np.arange(self._no_width, dtype=np.int64)] = mat

    def _assemble_payments(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        payment: PaymentColumns,
        history: np.ndarray,
    ) -> None:
        """Scatter Payment refs: warehouse and district writes, the
        customer selection, a History append (at positions ``history``)."""
        tables = self._tables
        out[starts] = _sequential_refs(
            payment.warehouse - 1, tables.warehouse_tpp, tables.tag_warehouse_w
        )
        out[starts + 1] = _sequential_refs(
            _district_index(payment.warehouse, payment.district),
            tables.district_tpp,
            tables.tag_district_w,
        )
        selection = payment.selection
        customer_district = _district_index(
            payment.customer_warehouse, payment.customer_district
        )
        self._put_customer_selection(out, starts + 2, customer_district, selection, True)
        history_at = starts + np.where(selection.by_name, self._pay_many_width - 1, 3)
        out[history_at] = _sequential_refs(
            history, tables.tpp_history, tables.tag_history_w, REF_GROWING_SHIFT
        )

    def _assemble_order_status(
        self,
        out: np.ndarray,
        starts: np.ndarray,
        district: np.ndarray,
        selection: CustomerSelection,
        order_seq: np.ndarray,
    ) -> None:
        """Scatter Order-Status refs: the selection's customer reads,
        then the last order's Order read and one Order-Line read per
        line."""
        tables = self._tables
        self._put_customer_selection(out, starts, district, selection, False)
        order_at = starts + np.where(selection.by_name, TUPLES_PER_NAME_SELECT, 1)
        out[order_at] = _sequential_refs(
            order_seq, tables.tpp_order, tables.tag_order_r, REF_GROWING_SHIFT
        )
        out[
            (order_at + 1)[:, None] + np.arange(self._lines, dtype=np.int64)
        ] = self._order_line_refs(order_seq, tables.tag_order_line_r)

    def _assemble_delivery(
        self, out: np.ndarray, starts: np.ndarray, resolved: ChunkResolution
    ) -> None:
        """Scatter Delivery refs: per delivered order
        ``[new_order, order, order_line x lines, customer]``."""
        tables = self._tables
        lines = self._lines
        width = lines + 3
        counts = resolved.delivered_counts
        mat = np.empty((len(resolved.delivered_order_seq), width), dtype=np.int64)
        mat[:, 0] = _sequential_refs(
            resolved.delivered_new_order_seq,
            tables.tpp_new_order,
            tables.tag_new_order_w,
            REF_GROWING_SHIFT,
        )
        mat[:, 1] = _sequential_refs(
            resolved.delivered_order_seq,
            tables.tpp_order,
            tables.tag_order_w,
            REF_GROWING_SHIFT,
        )
        mat[:, 2 : 2 + lines] = self._order_line_refs(
            resolved.delivered_order_seq, tables.tag_order_line_w
        )
        mat[:, width - 1] = self._customer_refs(
            resolved.delivered_district, resolved.delivered_customer, True
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
        resolved: ChunkResolution,
    ) -> None:
        """Scatter Stock-Level refs: a district read followed by
        interleaved ``(order_line, stock)`` pairs per scanned line."""
        tables = self._tables
        lines = self._lines
        out[starts] = _sequential_refs(
            district, tables.district_tpp, tables.tag_district_r
        )
        counts = resolved.scanned_counts
        pairs = np.empty((len(resolved.scanned_order_seq), lines, 2), dtype=np.int64)
        pairs[:, :, 0] = self._order_line_refs(
            resolved.scanned_order_seq, tables.tag_order_line_r
        )
        pairs[:, :, 1] = (
            self._stock_refs(
                np.repeat(warehouse, counts)[:, None], resolved.scanned_items
            )
            - REF_WRITE_MASK
        )
        pair_lens = 2 * lines * counts
        pair_excl = np.cumsum(pair_lens) - pair_lens
        out[
            np.repeat(starts + 1 - pair_excl, pair_lens)
            + np.arange(pairs.size, dtype=np.int64)
        ] = pairs.ravel()

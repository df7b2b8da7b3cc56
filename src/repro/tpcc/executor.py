"""The five TPC-C transactions, executed against the storage engine.

Each method follows the call sequence of paper Section 2.2 exactly, so
the engine's measured SQL-call census reproduces Table 2 and its
buffer-manager statistics can be compared with the trace-driven model.

Every input comes from one place, :meth:`TpccExecutor._draw`, which
takes the next row of a per-type block drawn by the column methods of
:class:`InputGenerator` (the trace model's input drawer, seeded by the
executor's seed); only the mix, the payment amount, the carrier id and
the by-name customers come off the executor's own generator.  By-name
customer selection differs deliberately from the trace model's
simplification: the executor picks a real last name and resolves it
through the ``by_name`` index (three matching customers per district by
construction), selecting the middle row by first name as the
specification requires.

Every read names the columns the profile goes on to use (``columns=``),
so the engine decodes those and the primary key and skips the rest;
a select whose result only the census needs names none, ``()``.  An
update sets new values computed from ones the same transaction read
under its S lock, which no other transaction can change before the
update's X lock is granted.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Any, Callable, Generator, Iterator, Sequence

import numpy as np

from repro.constants import (
    NURAND_A_NAME,
    REMOTE_PAYMENT_PROBABILITY,
    REMOTE_STOCK_PROBABILITY,
    STOCK_LEVEL_ORDERS,
    UNIQUE_CUSTOMER_NAMES,
)
from repro.engine.database import Database, Transaction
from repro.engine.errors import (
    InjectedFaultError,
    LockConflictError,
    RecordNotFoundError,
    TransactionAbortedByCrashError,
)
from repro.obs import instruments
from repro.obs.clock import WallClock
from repro.results import ReportMixin
from repro.workload.generator import InputGenerator, scaled_nurand_a
from repro.workload.mix import DEFAULT_MIX, TransactionMix, TransactionType
from repro.workload.transactions import (
    DeliveryParams,
    NewOrderParams,
    OrderStatusParams,
    PaymentParams,
    StockLevelParams,
)
from repro.core.nurand import NURand
from repro.tpcc.loader import TpccConfig, last_name


#: Errors treated as transient: the transaction already rolled back
#: cleanly (crash-aborted ones were rolled back by recovery itself),
#: so the executor may retry it.
TRANSIENT_ERRORS = (
    LockConflictError,
    InjectedFaultError,
    TransactionAbortedByCrashError,
)

#: A statement sequence: yields each statement's result as it completes,
#: is sent it back, and returns the transaction's result.
Steps = Generator[Any, Any, Any]


def drain(steps: Steps) -> Any:
    """Run a statement sequence to completion on the calling thread."""
    try:
        value = next(steps)
        while True:
            value = steps.send(value)
    except StopIteration as stop:
        return stop.value


#: Latency measurement goes through the whitelisted obs clock seam, and
#: only when metrics collection is enabled (the histogram is flagged
#: non-deterministic, so determinism checks ignore it).
_WALL = WallClock()

# The transaction types, bound once: on CPython 3.10 and 3.11 a load
# through the class goes through ``EnumType.__getattr__`` (see
# ``engine/locks.py``).
_NEW_ORDER = TransactionType.NEW_ORDER
_PAYMENT = TransactionType.PAYMENT
_ORDER_STATUS = TransactionType.ORDER_STATUS
_DELIVERY = TransactionType.DELIVERY
_STOCK_LEVEL = TransactionType.STOCK_LEVEL

#: Rows per input block of :meth:`TpccExecutor._draw`.  How draws are
#: split into blocks moves no input; the size only amortizes the calls.
INPUT_BLOCK_ROWS = 64

#: The column method of each transaction type.
_COLUMNS: dict[TransactionType, Callable[[InputGenerator, int], Any]] = {
    _NEW_ORDER: InputGenerator.new_order_columns,
    _PAYMENT: InputGenerator.payment_columns,
    _ORDER_STATUS: InputGenerator.order_status_columns,
    _DELIVERY: InputGenerator.delivery_columns,
    _STOCK_LEVEL: InputGenerator.stock_level_columns,
}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient transaction failures.

    Attempt ``n`` (0-based) sleeps ``base_delay * multiplier**n`` capped
    at ``max_delay``, scaled by a uniform factor in
    ``[1 - jitter, 1 + jitter)`` so concurrent retries decorrelate.
    """

    max_attempts: int = 5
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        The result is clamped to ``[0, max_delay * (1 + jitter)]``: with
        ``jitter == 1.0`` the scale factor's lower edge touches 0, and
        the clamp keeps floating-point round-off from ever producing a
        negative sleep.
        """
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter:
            raw *= 1.0 - self.jitter + 2.0 * self.jitter * float(rng.random())
        return min(max(raw, 0.0), self.max_delay * (1.0 + self.jitter))


@dataclass(frozen=True)
class BreakerPolicy:
    """Parameters of the retry-storm circuit breaker.

    The breaker *opens* when ``failure_threshold`` transient failures
    land within a trailing ``window_seconds``; while open, retry
    attempts are short-circuited (the transaction gives up immediately
    instead of sleeping and re-contending).  After ``cooldown_seconds``
    the breaker goes *half-open*: one trial retry is admitted, and its
    outcome either closes the breaker or re-opens it for another
    cooldown.  Layered on :class:`RetryPolicy`, it turns a retry storm
    past the throughput knee into bounded-latency load shedding.
    """

    failure_threshold: int = 16
    window_seconds: float = 1.0
    cooldown_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown_seconds must be positive, got {self.cooldown_seconds}"
            )


class CircuitBreaker:
    """Closed / open / half-open breaker over a failure window.

    One instance is shared by every executor of a benchmark run, so the
    failure window sees the *global* transient-failure rate.  All time
    arrives as an explicit ``now`` argument — the virtual driver feeds
    virtual time, keeping breaker transitions deterministic per seed.
    """

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self._failures: deque[float] = deque()
        self._opened_at: float | None = None
        self._half_open_trial = False
        self.opens = 0
        self.short_circuits = 0

    @property
    def state(self) -> str:
        """``closed``, ``open`` or ``half_open`` (as of the last call)."""
        if self._opened_at is None:
            return "closed"
        return "half_open" if self._half_open_trial else "open"

    def allow(self, now: float) -> bool:
        """Whether a retry may proceed at ``now``; counts short-circuits."""
        if self._opened_at is None:
            return True
        if self._half_open_trial:
            # Another terminal's trial is already probing.
            self.short_circuits += 1
            return False
        if now >= self._opened_at + self.policy.cooldown_seconds:
            self._half_open_trial = True
            return True
        self.short_circuits += 1
        return False

    def record_failure(self, now: float) -> None:
        """Note one transient failure; may open (or re-open) the breaker."""
        if self._half_open_trial:
            # The half-open trial failed: back to a full cooldown.
            self._half_open_trial = False
            self._opened_at = now
            self.opens += 1
            return
        if self._opened_at is not None:
            return  # already open; in-flight stragglers change nothing
        window_start = now - self.policy.window_seconds
        self._failures.append(now)
        while self._failures and self._failures[0] < window_start:
            self._failures.popleft()
        if len(self._failures) >= self.policy.failure_threshold:
            self._opened_at = now
            self._half_open_trial = False
            self._failures.clear()
            self.opens += 1

    def record_success(self) -> None:
        """Note a completed transaction; a half-open success closes."""
        if self._opened_at is not None and self._half_open_trial:
            self._opened_at = None
            self._half_open_trial = False
            self._failures.clear()


@dataclass
class ExecutionSummary(ReportMixin):
    """Counts of executed transactions and notable outcomes."""

    executed: dict[str, int] = field(default_factory=dict)
    rolled_back: int = 0
    skipped_deliveries: int = 0
    aborted: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    gave_up: int = 0

    def record(self, tx_name: str) -> None:
        self.executed[tx_name] = self.executed.get(tx_name, 0) + 1

    def record_abort(self, tx_name: str) -> None:
        self.aborted[tx_name] = self.aborted.get(tx_name, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.executed.values())

    @property
    def total_aborted(self) -> int:
        return sum(self.aborted.values())

    def merge(self, other: "ExecutionSummary") -> "ExecutionSummary":
        """A new summary folding ``other`` into this one.

        Dict keys come out sorted so merging per-worker summaries in any
        order yields byte-identical serialized reports (like
        ``MetricsRegistry`` snapshot merging).
        """
        return ExecutionSummary(
            executed={
                name: self.executed.get(name, 0) + other.executed.get(name, 0)
                for name in sorted(set(self.executed) | set(other.executed))
            },
            rolled_back=self.rolled_back + other.rolled_back,
            skipped_deliveries=self.skipped_deliveries + other.skipped_deliveries,
            aborted={
                name: self.aborted.get(name, 0) + other.aborted.get(name, 0)
                for name in sorted(set(self.aborted) | set(other.aborted))
            },
            retries=self.retries + other.retries,
            gave_up=self.gave_up + other.gave_up,
        )


@dataclass(frozen=True)
class PreparedTransaction:
    """One terminal input drawn off the hot path (type + parameters).

    The driver draws one per terminal cycle, so the statement sequence
    spends its time in the engine, not in the input generator (the
    noisepage benchmark-runner pattern).
    """

    tx: TransactionType
    params: object


class TpccExecutor:
    """Drives the five transactions against a loaded database.

    All constructor parameters are keyword-only (REP003, like the
    ``*Config`` dataclasses).

    ``history_offset``/``history_stride`` partition the history-id
    sequence so several executors inserting concurrently never collide:
    executor ``i`` of ``n`` uses ``history_offset=i, history_stride=n``.
    """

    def __init__(
        self,
        *,
        db: Database,
        config: TpccConfig,
        seed: int | Sequence[int] = 0,
        remote_stock_probability: float = REMOTE_STOCK_PROBABILITY,
        remote_payment_probability: float = REMOTE_PAYMENT_PROBABILITY,
        rollback_probability: float = 0.0,
        retry_policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        history_offset: int = 0,
        history_stride: int = 1,
        terminal: int | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if history_offset < 0:
            raise ValueError(f"history_offset must be >= 0, got {history_offset}")
        if history_stride < 1:
            raise ValueError(f"history_stride must be >= 1, got {history_stride}")
        self._db = db
        self._config = config
        self._rng = np.random.default_rng(seed)
        self._inputs = InputGenerator(
            config.warehouses,
            items_per_order=config.items_per_order,
            remote_stock_probability=remote_stock_probability,
            remote_payment_probability=remote_payment_probability,
            items=config.items,
            customers_per_district=config.customers_per_district,
            seed=seed,
        )
        a_name = scaled_nurand_a(
            config.unique_names, UNIQUE_CUSTOMER_NAMES, NURAND_A_NAME
        )
        self._name_sampler = NURand(a_name, 0, config.unique_names - 1)
        # The untaken rows of each type's input block.
        self._rows: dict[TransactionType, Iterator] = {tx: iter(()) for tx in _COLUMNS}
        self._rollback_probability = rollback_probability
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._sleep = sleep
        # Continue after the largest h_id present, rounded up to the stride,
        # so a later run on the same database never reuses an earlier run's ids.
        last = max((key[0] for key in db.table("history").primary_keys()), default=0)
        self._history_next = -(-last // history_stride) * history_stride + 1 + history_offset
        self._history_stride = history_stride
        #: Driver terminal this executor acts for (fault-scope identity).
        self._terminal = terminal
        self._breaker = breaker
        self._clock = clock
        self.summary = ExecutionSummary()

    @property
    def db(self) -> Database:
        return self._db

    # -- transaction implementations ------------------------------------------
    #
    # Each profile is a *statement sequence*: a generator that executes
    # one SQL call, yields its result and is sent it back (``row = yield
    # txn.select(...)``).  The public methods drain a sequence on the
    # calling thread; the virtual scheduler resumes many of them from
    # one event loop, charging virtual time at every suspension.

    def new_order(self, *, params: NewOrderParams | None = None) -> dict | None:
        """Place an order; returns {o_id, warehouse, district, customer}.

        Returns None when the transaction was rolled back (the
        benchmark's 1% simulated entry errors, off by default).  Like
        every public method, ``params=None`` runs the next input of
        this type from :meth:`_draw`, the one input path.
        """
        return self._run_once(_NEW_ORDER, params)

    def payment(self, *, params: PaymentParams | None = None) -> dict:
        """Process a payment; returns {customer, amount}."""
        return self._run_once(_PAYMENT, params)

    def order_status(self, *, params: OrderStatusParams | None = None) -> dict | None:
        """Report a customer's last order; returns its line count or None."""
        return self._run_once(_ORDER_STATUS, params)

    def delivery(self, *, params: DeliveryParams | None = None) -> dict:
        """Deliver the oldest pending order of each district.

        One carrier id serves the whole transaction, as a real
        terminal's input screen would.
        """
        return self._run_once(_DELIVERY, params)

    def stock_level(self, *, params: StockLevelParams | None = None) -> dict:
        """Count low-stock items among the district's last 20 orders."""
        return self._run_once(_STOCK_LEVEL, params)

    def _run_once(self, tx: TransactionType, params: object) -> Any:
        """One attempt of ``tx`` on ``params`` (drawn when None), no retry."""
        return drain(self._transaction(tx, self._draw(tx) if params is None else params))

    def _transaction(self, tx: TransactionType, params: object) -> Steps:
        """Run one profile in a transaction: commit on return, abort on raise.

        A statement that fails has still been executed and priced, so
        the handler suspends once — the driver serves that statement —
        before the abort starts.
        """
        tx_name = tx.value  # once: ``Enum.value`` is a Python-level property
        txn = self._db.begin(tx_name)
        try:
            result = yield from self._profiles[tx](self, txn, params)
            if not txn.is_active:  # the profile rolled back on purpose
                return result
            yield txn.commit()
        except Exception:
            yield
            if txn.is_active:
                yield txn.abort()
            raise
        finally:
            # Still active: the sequence was closed while suspended (or
            # interrupted) and cannot suspend again, so it rolls back on
            # the spot; an abandoned transaction never keeps its locks.
            if txn.is_active:
                txn.abort()
        self.summary.record(tx_name)
        return result

    def _new_order(self, txn: Transaction, params: NewOrderParams) -> Steps:
        yield txn.select("warehouse", (params.warehouse,), ())
        district = yield txn.select(
            "district", (params.warehouse, params.district), ("d_next_o_id",)
        )
        order_id = district["d_next_o_id"]
        yield txn.update(
            "district",
            (params.warehouse, params.district),
            {"d_next_o_id": order_id + 1},
        )
        yield txn.select(
            "customer", (params.warehouse, params.district, params.customer), ()
        )
        yield txn.insert(
            "order",
            {
                "o_w_id": params.warehouse,
                "o_d_id": params.district,
                "o_id": order_id,
                "o_c_id": params.customer,
                "o_carrier_id": 0,
                "o_ol_cnt": len(params.lines),
                "o_entry_d": 0,
            },
        )
        yield txn.insert(
            "new_order",
            {
                "no_w_id": params.warehouse,
                "no_d_id": params.district,
                "no_o_id": order_id,
            },
        )
        for number, line in enumerate(params.lines, start=1):
            item = yield txn.select("item", (line.item_id,), ("i_price",))
            stock = yield txn.select(
                "stock",
                (line.supply_warehouse, line.item_id),
                ("s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt"),
            )
            quantity = stock["s_quantity"]
            new_quantity = (
                quantity - line.quantity
                if quantity - line.quantity >= 10
                else quantity - line.quantity + 91
            )
            yield txn.update(
                "stock",
                (line.supply_warehouse, line.item_id),
                {
                    "s_quantity": new_quantity,
                    "s_ytd": stock["s_ytd"] + line.quantity,
                    "s_order_cnt": stock["s_order_cnt"] + 1,
                    "s_remote_cnt": stock["s_remote_cnt"]
                    + (line.supply_warehouse != params.warehouse),
                },
            )
            yield txn.insert(
                "order_line",
                {
                    "ol_w_id": params.warehouse,
                    "ol_d_id": params.district,
                    "ol_o_id": order_id,
                    "ol_number": number,
                    "ol_i_id": line.item_id,
                    "ol_supply_w_id": line.supply_warehouse,
                    "ol_quantity": line.quantity,
                    "ol_delivery_d": 0,
                    "ol_amount": float(item["i_price"]) * line.quantity,
                    "ol_dist_info": f"dist-{params.district:02d}",
                },
            )
        if self._rng.random() < self._rollback_probability:
            yield txn.abort()
            self.summary.rolled_back += 1
            return None
        return {
            "o_id": order_id,
            "warehouse": params.warehouse,
            "district": params.district,
            "customer": params.customer,
        }

    def _payment(self, txn: Transaction, params: PaymentParams) -> Steps:
        amount = params.amount
        warehouse = yield txn.select("warehouse", (params.warehouse,), ("w_ytd",))
        district = yield txn.select(
            "district", (params.warehouse, params.district), ("d_ytd",)
        )
        customer = yield from self._locate_customer(
            txn,
            params.customer_warehouse,
            params.customer_district,
            params,
            ("c_first", "c_balance", "c_ytd_payment", "c_payment_cnt"),
        )
        yield txn.update(
            "warehouse",
            (params.warehouse,),
            {"w_ytd": warehouse["w_ytd"] + amount},
        )
        yield txn.update(
            "district",
            (params.warehouse, params.district),
            {"d_ytd": district["d_ytd"] + amount},
        )
        yield txn.update(
            "customer",
            (customer["c_w_id"], customer["c_d_id"], customer["c_id"]),
            {
                "c_balance": customer["c_balance"] - amount,
                "c_ytd_payment": customer["c_ytd_payment"] + amount,
                "c_payment_cnt": customer["c_payment_cnt"] + 1,
            },
        )
        h_id = self._history_next
        self._history_next += self._history_stride
        yield txn.insert(
            "history",
            {
                "h_id": h_id,
                "h_c_id": customer["c_id"],
                "h_c_d_id": customer["c_d_id"],
                "h_c_w_id": customer["c_w_id"],
                "h_d_id": params.district,
                "h_w_id": params.warehouse,
                "h_date": 0,
                "h_amount": amount,
                "h_data": "payment",
            },
        )
        return {"customer": customer["c_id"], "amount": amount}

    def _order_status(self, txn: Transaction, params: OrderStatusParams) -> Steps:
        warehouse = params.warehouse
        district = params.district
        customer = yield from self._locate_customer(
            txn, warehouse, district, params, ("c_first",)
        )
        order = yield txn.select_max(
            "order", "by_customer", (warehouse, district, customer["c_id"]), ()
        )
        if order is None:
            return None
        lines = yield txn.range_select(
            "order_line",
            "by_order",
            (warehouse, district, order["o_id"]),
            (warehouse, district, order["o_id"], 32_767),
            (),
        )
        return {"o_id": order["o_id"], "lines": len(lines)}

    def _delivery(self, txn: Transaction, params: DeliveryParams) -> Steps:
        warehouse = params.warehouse
        delivered = 0
        for district in range(1, self._config.districts + 1):
            pending = yield txn.select_min(
                "new_order", "by_district", (warehouse, district), ()
            )
            if pending is None:
                self.summary.skipped_deliveries += 1
                continue
            order_id = pending["no_o_id"]
            yield txn.delete("new_order", (warehouse, district, order_id))
            order = yield txn.select(
                "order", (warehouse, district, order_id), ("o_c_id",)
            )
            yield txn.update(
                "order",
                (warehouse, district, order_id),
                {"o_carrier_id": params.carrier_id},
            )
            total = 0.0
            lines = yield txn.range_select(
                "order_line",
                "by_order",
                (warehouse, district, order_id),
                (warehouse, district, order_id, 32_767),
                ("ol_amount",),
            )
            for line in lines:
                total += line["ol_amount"]
                yield txn.update(
                    "order_line",
                    (warehouse, district, order_id, line["ol_number"]),
                    {"ol_delivery_d": 1},
                )
            customer = yield txn.select(
                "customer",
                (warehouse, district, order["o_c_id"]),
                ("c_balance", "c_delivery_cnt"),
            )
            yield txn.update(
                "customer",
                (warehouse, district, order["o_c_id"]),
                {
                    "c_balance": customer["c_balance"] + total,
                    "c_delivery_cnt": customer["c_delivery_cnt"] + 1,
                },
            )
            delivered += 1
        return {"warehouse": warehouse, "delivered": delivered}

    def _stock_level(self, txn: Transaction, params: StockLevelParams) -> Steps:
        warehouse = params.warehouse
        district = params.district
        threshold = params.threshold
        district_row = yield txn.select(
            "district", (warehouse, district), ("d_next_o_id",)
        )
        next_order = district_row["d_next_o_id"]
        low = (warehouse, district, max(1, next_order - STOCK_LEVEL_ORDERS))
        high = (warehouse, district, next_order - 1, 32_767)
        yield txn.count_join()
        seen: set[int] = set()
        low_stock: set[int] = set()
        lines = yield txn.range_select(
            "order_line", "by_order", low, high, ("ol_i_id",)
        )
        for line in lines:
            item_id = line["ol_i_id"]
            if item_id in seen:
                continue
            seen.add(item_id)
            stock = yield txn.select("stock", (warehouse, item_id), ("s_quantity",))
            if stock["s_quantity"] < threshold:
                low_stock.add(item_id)
        return {"low_stock": len(low_stock), "threshold": threshold}

    #: The profile of each transaction type (plain functions: an
    #: executor holding its own bound methods would be cyclic garbage).
    _profiles: dict[TransactionType, Callable[..., Steps]] = {
        TransactionType.NEW_ORDER: _new_order,
        TransactionType.PAYMENT: _payment,
        TransactionType.ORDER_STATUS: _order_status,
        TransactionType.DELIVERY: _delivery,
        TransactionType.STOCK_LEVEL: _stock_level,
    }

    # -- driver ---------------------------------------------------------------------

    def run_mix(
        self,
        *,
        transactions: int,
        mix: TransactionMix = DEFAULT_MIX,
    ) -> ExecutionSummary:
        """Execute ``transactions`` draws from the mix.

        Transient failures (lock conflicts, injected faults) abort the
        transaction and retry it under the executor's
        :class:`RetryPolicy`; a transaction that exhausts its attempts
        counts as ``gave_up`` and re-raises.
        """
        for _ in range(transactions):
            self.execute_prepared(self.prepare(mix=mix))
        return self.summary

    def prepare(self, *, mix: TransactionMix = DEFAULT_MIX) -> PreparedTransaction:
        """Draw one terminal input (type + parameters) off the hot path.

        Samples the transaction type and every input the terminal would
        key in (:meth:`_draw`), so :meth:`execute_prepared` touches
        only the engine.  Deterministic per seed.
        """
        tx = mix.sample(self._rng)
        return PreparedTransaction(tx=tx, params=self._draw(tx))

    def _draw(self, tx: TransactionType) -> object:
        """The next input of type ``tx``: every executed input comes from here.

        Takes the next row of the type's input block, drawing a new
        block of :data:`INPUT_BLOCK_ROWS` when it runs out; the fields
        only the engine uses come off its own generator, at this call.
        """
        params = next(self._rows[tx], None)
        if params is None:
            rows = self._rows[tx] = _COLUMNS[tx](self._inputs, INPUT_BLOCK_ROWS).rows()
            params = next(rows)
        if tx is _PAYMENT:
            return dataclass_replace(
                params,
                customer_tuples=self._customers(params),
                amount=float(self._rng.uniform(1.0, 5000.0)),
            )
        if tx is _ORDER_STATUS:
            return dataclass_replace(params, customer_tuples=self._customers(params))
        if tx is _DELIVERY:
            return dataclass_replace(params, carrier_id=int(self._rng.integers(1, 11)))
        return params

    def execute_prepared(self, prepared: PreparedTransaction) -> object:
        """Run one prepared transaction under the retry policy."""
        return drain(self.prepared_steps(prepared))

    def prepared_steps(self, prepared: PreparedTransaction) -> Steps:
        """The statement sequence :meth:`execute_prepared` drains."""
        return self._retrying(prepared.tx, prepared.params)

    def _retrying(self, tx: TransactionType, params: object) -> Steps:
        """Run one transaction, retrying transient failures with backoff.

        A failed attempt has rolled itself back before re-raising, so
        each retry starts from a clean slate and runs the same
        ``params`` again.  Every attempt runs inside the fault
        injector's terminal/tx-type scope, so driver-aware fault rules
        can target this terminal or transaction type.  With a shared
        :class:`CircuitBreaker` installed, transient failures feed its
        window and retries are short-circuited while it is open — the
        transaction gives up at once instead of joining a retry storm.
        The back-off sleep is one more suspension: the driver's sleep
        records a virtual delay and returns at once, ``time.sleep`` has
        slept by then.
        """
        tx_name = tx.value
        timing = instruments.TX_SECONDS.enabled
        injector = self._db.injector
        attempts = 0
        while True:
            try:
                start = _WALL.wall_time() if timing else None
                scope = (
                    injector.scoped(terminal=self._terminal, tx_type=tx_name)
                    if injector is not None
                    else nullcontext()
                )
                with scope:
                    result = yield from self._transaction(tx, params)
                if start is not None:
                    instruments.TX_SECONDS.observe(
                        _WALL.wall_time() - start, tx=tx_name
                    )
                if self._breaker is not None:
                    self._breaker.record_success()
                return result
            except TRANSIENT_ERRORS:
                self.summary.record_abort(tx_name)
                instruments.TX_ABORTS.inc(tx=tx_name)
                attempts += 1
                if self._breaker is not None:
                    self._breaker.record_failure(self._clock())
                if attempts >= self._retry_policy.max_attempts:
                    self.summary.gave_up += 1
                    raise
                if self._breaker is not None and not self._breaker.allow(
                    self._clock()
                ):
                    instruments.DRIVER_SHED.inc(reason="retry")
                    self.summary.gave_up += 1
                    raise
                self.summary.retries += 1
                instruments.TX_RETRIES.inc(tx=tx_name)
                self._sleep(self._retry_policy.delay(attempts - 1, self._rng))
                yield

    # -- helpers -----------------------------------------------------------------------

    def _customers(self, params: PaymentParams | OrderStatusParams) -> tuple[int, ...]:
        """The customer ids a Payment / Order-Status selection touches.

        A by-id selection keeps the generator's id.  For a by-name one
        the generator draws the paper's three independent NU(255) ids,
        but the database gives one last name to customers ``n + 1``,
        ``n + 1 + U`` and ``n + 1 + 2U`` (``U`` names per district), so
        the selection carries those three, with ``n`` drawn here.
        """
        if not params.by_name:
            return params.customer_tuples
        unique = self._config.unique_names
        first = self._name_sampler.sample(self._rng) + 1
        return (first, first + unique, first + 2 * unique)

    def _locate_customer(
        self,
        txn: Transaction,
        warehouse: int,
        district: int,
        params: PaymentParams | OrderStatusParams,
        columns: tuple[str, ...],
    ) -> Steps:
        """Select ``params``' customer by id or by last name.

        The by-name path resolves all customers named like
        ``customer_tuples[0]`` through the ``by_name`` index, sorts by
        first name, and returns the middle one — the specification's
        rule.  Either way the row holds ``columns``, which must include
        ``c_first`` for that sort.
        """
        customer_id = params.customer_tuples[0]
        if not params.by_name:
            return (
                yield txn.select("customer", (warehouse, district, customer_id), columns)
            )
        name = last_name((customer_id - 1) % self._config.unique_names)
        matches = yield txn.select_by_index(
            "customer", "by_name", (warehouse, district, name), columns
        )
        if not matches:
            # The loader assigns every name number to exactly three
            # customers per district, so an empty match means the data
            # or the index is broken — not a benign miss.
            raise RecordNotFoundError(
                f"no customers named {name} in ({warehouse}, {district})"
            )
        matches.sort(key=lambda row: row["c_first"])
        return matches[len(matches) // 2]


def buffer_miss_rates(db: Database) -> dict[str, float]:
    """Measured per-table buffer miss rates of an engine run."""
    rates = {}
    for name in db.table_names():
        file_id = db.file_id_of(name)
        rates[name] = db.buffers.stats.miss_rate(file_id)
    return rates

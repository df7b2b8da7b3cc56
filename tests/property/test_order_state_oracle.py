"""The columnar order state against an oracle that shares nothing with ``src/``.

:class:`Oracle` is the paper's Section 4 bookkeeping written the obvious
way — one ``deque`` of pending orders and one of the last 20 orders per
district, one ``dict`` of last orders per customer — replayed one
transaction at a time.  :class:`ColumnarOrderState` resolves the same
schedule a chunk at a time with array operations; the two must agree on
every delivered order (per Delivery, in district order), every scanned
order (per Stock-Level, oldest first, with its item ids) and every
Order-Status lookup, whatever the chunk size.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.mix import TransactionMix
from repro.workload.state import ColumnarOrderState
from repro.workload.trace import TraceConfig, TraceGenerator

LINES = 3
NEW_ORDER, PAYMENT, ORDER_STATUS, DELIVERY, STOCK_LEVEL = range(5)


class Oracle:
    """Orders are ``(order position, New-Order position or None)``."""

    def __init__(self, warehouses, customers, prime_orders, prime_pending, items):
        districts = range(warehouses * 10)
        self.customers = customers
        self.next_order = len(districts) * customers
        self.next_new_order = len(districts) * prime_pending
        self.pending = {k: deque() for k in districts}
        self.recent = {k: deque(maxlen=20) for k in districts}
        self.last = {}
        self.items = {}
        primed = iter(items.tolist())
        for k in districts:
            for rank, customer in enumerate(
                range(customers - prime_orders + 1, customers + 1)
            ):
                waiting = rank - (prime_orders - prime_pending)
                order = (
                    k * customers + customer - 1,
                    k * prime_pending + waiting if waiting >= 0 else None,
                )
                self.items[order[0]] = next(primed)
                self.recent[k].append(order)
                self.last[k, customer] = order[0]
                if waiting >= 0:
                    self.pending[k].append(order)

    def new_order(self, k, customer, items):
        order = (self.next_order, self.next_new_order)
        self.next_order += 1
        self.next_new_order += 1
        self.items[order[0]] = items
        self.pending[k].append(order)
        self.recent[k].append(order)
        self.last[k, customer] = order[0]

    def order_status(self, k, customer):
        return self.last.get((k, customer), k * self.customers + customer - 1)

    def delivery(self, warehouse):
        queues = [self.pending[warehouse * 10 + d] for d in range(10)]
        return [queue.popleft() for queue in queues if queue]

    def stock_level(self, k):
        return [order for order, _ in self.recent[k]]


#: name -> (warehouses, customers per district, prime_orders, prime_pending,
#: mix weights in New-Order / Payment / Order-Status / Delivery / Stock-Level order)
SCENARIOS = {
    "paper-mix": (2, 40, 30, 10, (43, 44, 4, 5, 4)),
    "backlog-grows": (2, 40, 30, 10, (45, 43, 4, 4, 4)),
    "nothing-pending": (2, 40, 25, 0, (30, 20, 10, 30, 10)),
    "delivery-only": (1, 30, 22, 3, (0, 0, 0, 1, 0)),
    "no-new-order": (2, 30, 21, 10, (0, 40, 20, 20, 20)),
    "three-customers": (1, 3, 2, 1, (50, 10, 20, 5, 15)),
    "unprimed": (1, 6, 0, 0, (40, 20, 15, 10, 15)),
}


def lockstep(scenario, seed, chunk, transactions):
    warehouses, customers, prime_orders, prime_pending, weights = SCENARIOS[scenario]
    rng = np.random.default_rng(seed)
    n_districts = warehouses * 10
    primed_items = rng.integers(1, 50, size=(n_districts * prime_orders, LINES))
    state = ColumnarOrderState(warehouses, customers, prime_pending, primed_items)
    oracle = Oracle(warehouses, customers, prime_orders, prime_pending, primed_items)
    assert state.pending_count() == n_districts * prime_pending

    for start in range(0, transactions, chunk):
        size = min(chunk, transactions - start)
        types = rng.choice(5, size=size, p=np.array(weights) / sum(weights))
        district = rng.integers(0, n_districts, size=size)
        customer = rng.integers(1, customers + 1, size=size)
        items = rng.integers(1, 50, size=(size, LINES))
        pos = [np.flatnonzero(types == t) for t in range(5)]
        resolved = state.resolve_chunk(
            size,
            pos[NEW_ORDER],
            district[pos[NEW_ORDER]],
            customer[pos[NEW_ORDER]],
            items[pos[NEW_ORDER]],
            pos[ORDER_STATUS],
            district[pos[ORDER_STATUS]],
            customer[pos[ORDER_STATUS]],
            pos[DELIVERY],
            district[pos[DELIVERY]] // 10,
            pos[STOCK_LEVEL],
            district[pos[STOCK_LEVEL]],
        )

        placed, last, delivered, scanned = [], [], [], []
        for t in range(size):
            k = int(district[t])
            if types[t] == NEW_ORDER:
                placed.append((oracle.next_order, oracle.next_new_order))
                oracle.new_order(k, int(customer[t]), items[t].tolist())
            elif types[t] == ORDER_STATUS:
                last.append(oracle.order_status(k, int(customer[t])))
            elif types[t] == DELIVERY:
                delivered.append(oracle.delivery(k // 10))
            elif types[t] == STOCK_LEVEL:
                scanned.append(oracle.stock_level(k))

        context = (scenario, seed, chunk, start)
        assert list(
            zip(
                resolved.placed_order_seq.tolist(),
                resolved.placed_new_order_seq.tolist(),
            )
        ) == placed, context
        assert resolved.last_order_seq.tolist() == last, context
        assert resolved.delivered_counts.tolist() == [len(d) for d in delivered], context
        assert list(
            zip(
                resolved.delivered_order_seq.tolist(),
                resolved.delivered_new_order_seq.tolist(),
            )
        ) == [order for d in delivered for order in d], context
        assert resolved.scanned_counts.tolist() == [len(s) for s in scanned], context
        flat = [order for s in scanned for order in s]
        assert resolved.scanned_order_seq.tolist() == flat, context
        assert resolved.scanned_items.tolist() == [oracle.items[o] for o in flat], context
        assert state.pending_count() == sum(map(len, oracle.pending.values())), context
    return state, oracle


class TestLockstep:
    @settings(max_examples=30, deadline=None)
    @given(
        scenario=st.sampled_from(sorted(SCENARIOS)),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([(1, 300), (97, 1_500), (4_096, 6_000)]),
    )
    def test_random_schedules(self, scenario, seed, chunk):
        lockstep(scenario, seed, *chunk)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("chunk", [1, 97, 4_096])
    def test_every_scenario_at_every_chunk_size(self, scenario, chunk):
        lockstep(scenario, 7, chunk, 300 if chunk == 1 else 5_000)

    def test_last_writer_is_the_latest_position(self):
        """A customer ordering twice in one chunk: the later order wins,
        for queries inside the chunk and after it."""
        state, oracle = lockstep("three-customers", 3, 4_096, 4_096)
        for customer in (1, 2, 3):
            for k in range(10):
                record = state.last_order_of(1, k + 1, customer)
                assert record.order_seq == oracle.order_status(k, customer)

    def test_queries_match_the_oracle(self):
        state, oracle = lockstep("paper-mix", 5, 97, 1_500)
        for k in range(20):
            w, d = divmod(k, 10)
            pending = state.pending_orders(w + 1, d + 1)
            assert [
                (r.order_seq, r.new_order_seq) for r in pending
            ] == list(oracle.pending[k])
            recent = state.recent_orders(w + 1, d + 1)
            assert [(r.order_seq, r.new_order_seq) for r in recent] == list(
                oracle.recent[k]
            )
            assert [list(r.item_ids) for r in recent] == [
                oracle.items[order] for order, _ in oracle.recent[k]
            ]


class TestDrainedQueues:
    def test_empty_deliveries_keep_their_zero_lengths(self):
        """Delivery-only: once the primed queues drain a Delivery emits
        no reference, and ``tx_lengths`` still carries it."""
        config = TraceConfig(
            warehouses=1,
            seed=41,
            prime_pending=2,
            mix=TransactionMix(
                new_order=0, payment=0, order_status=0, delivery=1, stock_level=0
            ),
        )
        batch = TraceGenerator(config).encoded_batch(transactions=600)
        lines = config.items_per_order
        width = 3 + lines
        assert batch.tx_lengths.tolist() == [10 * width] * 2 + [0] * 598
        assert batch.references == 20 * width
        # Customer, Order and New-Order once, Order-Line once per line,
        # for each of the 20 delivered orders; nothing else.
        expected = np.zeros((5, 9), dtype=np.int64)
        expected[DELIVERY, [2, 5, 6, 7]] = 20, 20, 20, 20 * lines
        assert np.array_equal(batch.tx_accesses, expected)
        # Pinned while a scalar per-transaction encoder still checked it.
        assert batch.highest_page_id == 30738

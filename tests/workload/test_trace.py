"""Unit tests for repro.workload.trace (the buffer-simulation input)."""

import collections
import gc
import weakref

import numpy as np
import pytest

from repro.workload import stream as stream_module
from repro.workload import trace as trace_module
from repro.workload.stream import EncodedBatch
from repro.workload.mix import (
    DEFAULT_MIX,
    TRANSACTION_ORDER,
    TransactionMix,
    TransactionType,
)
from repro.workload.trace import (
    PACKING_KINDS,
    RELATION_INDEX,
    RELATION_NAMES,
    PageReference,
    TraceConfig,
    TraceGenerator,
)


@pytest.fixture(scope="module")
def small_trace():
    return TraceGenerator(TraceConfig(warehouses=2, seed=5))


class TestConfig:
    def test_invalid_packing(self):
        with pytest.raises(ValueError, match="packing"):
            TraceConfig(packing="zigzag")

    def test_invalid_warehouses(self):
        with pytest.raises(ValueError, match="warehouses"):
            TraceConfig(warehouses=0)

    def test_prime_pending_bounded(self):
        with pytest.raises(ValueError, match="prime_pending"):
            TraceConfig(prime_orders=5, prime_pending=6)

    def test_negative_priming_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            TraceConfig(prime_orders=-1, prime_pending=-1)
        with pytest.raises(ValueError, match="non-negative"):
            TraceConfig(prime_pending=-1)

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"remote_stock_probability": 2.0}, "remote_stock_probability"),
            ({"remote_stock_probability": -0.1}, "remote_stock_probability"),
            ({"items": 0}, "items must be positive"),
            ({"items_per_order": 0}, "items_per_order"),
            ({"customers_per_district": 100}, "divisible"),
        ],
    )
    def test_input_scale_rejected_at_construction(self, overrides, message):
        """The input generator's own check runs where the config is
        written, not when a trace (perhaps in a worker) is first built."""
        with pytest.raises(ValueError, match=message):
            TraceConfig(warehouses=2, **overrides)

    def test_all_packings_construct(self):
        for packing in PACKING_KINDS:
            TraceGenerator(TraceConfig(warehouses=1, packing=packing, seed=1))


class TestRelationIndex:
    def test_nine_relations(self):
        assert len(RELATION_NAMES) == 9
        assert RELATION_INDEX["warehouse"] == 0

    def test_reference_names(self):
        ref = PageReference(RELATION_INDEX["stock"], 5, True)
        assert ref.relation_name == "stock"


class TestPriming:
    def test_recent_orders_available(self, small_trace):
        state = small_trace.state
        assert len(state.recent_orders(1, 1)) == 20

    def test_pending_orders_available(self, small_trace):
        assert small_trace.state.pending_orders(1, 1)


class TestNewOrderBacklog:
    @staticmethod
    def _backlog_growth(mix):
        trace = TraceGenerator(TraceConfig(warehouses=2, mix=mix, seed=47))
        start = trace.state.pending_count()
        trace.encoded_batch(transactions=4000)
        return trace.state.pending_count() - start

    def test_unbalanced_mix_grows_the_backlog(self):
        """Section 2.1: 45 % New-Order against 4 % Delivery outgrows 43/5."""
        unbalanced = TransactionMix.from_percent(
            new_order=45, payment=43, order_status=4, delivery=4, stock_level=4
        )
        assert self._backlog_growth(unbalanced) > self._backlog_growth(DEFAULT_MIX)


class TestPageMapping:
    def test_static_page_counts(self, small_trace):
        pages = small_trace.total_static_pages()
        assert pages["warehouse"] == 1
        assert pages["district"] == 1  # 20 districts at 43/page
        assert pages["customer"] == 20 * 500  # 3000/6 per district
        assert pages["stock"] == 2 * 7693
        assert pages["item"] == 2041

    def test_customer_blocks_disjoint(self, small_trace):
        # One block per district: (warehouse - 1) * 10 + district - 1.
        layout = small_trace._tables.customer_layout
        assert len({layout.page_of(block, 1) for block in (0, 1, 10)}) == 3

    def test_stock_blocks_disjoint(self, small_trace):
        layout = small_trace._tables.stock_layout  # one block per warehouse
        assert layout.page_of(0, 1) != layout.page_of(1, 1)


class TestReferenceStreams:
    def _refs_by_type(self, packing="sequential", transactions=400):
        """Each transaction's references, decoded from one encoded batch."""
        trace = TraceGenerator(TraceConfig(warehouses=2, packing=packing, seed=9))
        batch = trace.encoded_batch(transactions=transactions)
        refs = list(map(trace.page_id_space.decode_ref, batch.refs.tolist()))
        ends = np.cumsum(batch.tx_lengths).tolist()
        by_type = collections.defaultdict(list)
        for tx_index, start, end in zip(batch.tx_indices.tolist(), [0, *ends], ends):
            by_type[TRANSACTION_ORDER[tx_index]].append(refs[start:end])
        return by_type

    def test_new_order_reference_count(self):
        by_type = self._refs_by_type()
        for refs in by_type[TransactionType.NEW_ORDER]:
            # 1 wh + 1 dist + 1 cust + 1 order + 1 new-order + 10*(item+stock+line)
            assert len(refs) == 35

    def test_new_order_relations_touched(self):
        by_type = self._refs_by_type()
        refs = by_type[TransactionType.NEW_ORDER][0]
        touched = {ref.relation_name for ref in refs}
        assert touched == {
            "warehouse",
            "district",
            "customer",
            "order",
            "new_order",
            "item",
            "stock",
            "order_line",
        }

    def test_payment_reference_count(self):
        by_type = self._refs_by_type()
        for refs in by_type[TransactionType.PAYMENT]:
            # 1 wh + 1 dist + (1 or 3) customers + 1 history
            assert len(refs) in (4, 6)

    def test_payment_write_flags(self):
        by_type = self._refs_by_type()
        for refs in by_type[TransactionType.PAYMENT]:
            customers = [r for r in refs if r.relation_name == "customer"]
            # Exactly one customer tuple is updated (the selected one).
            assert sum(r.write for r in customers) == 1

    def test_order_status_reads_only(self):
        by_type = self._refs_by_type()
        for refs in by_type[TransactionType.ORDER_STATUS]:
            assert all(not ref.write for ref in refs)

    def test_order_status_includes_last_order_lines(self):
        by_type = self._refs_by_type()
        sizes = [len(refs) for refs in by_type[TransactionType.ORDER_STATUS]]
        # 1-3 customer refs + 1 order + 10 lines when a last order exists.
        assert max(sizes) >= 12

    def test_delivery_touches_ten_districts(self):
        by_type = self._refs_by_type()
        refs = by_type[TransactionType.DELIVERY][0]
        new_orders = [r for r in refs if r.relation_name == "new_order"]
        assert 1 <= len(new_orders) <= 10
        assert all(r.write for r in new_orders)

    def test_stock_level_reads_lines_and_stock(self):
        by_type = self._refs_by_type()
        refs = by_type[TransactionType.STOCK_LEVEL][0]
        lines = sum(r.relation_name == "order_line" for r in refs)
        stock = sum(r.relation_name == "stock" for r in refs)
        assert lines == stock == 200  # 20 primed orders x 10 items
        assert all(not r.write for r in refs)

    def test_references_iterator_counts_transactions(self, small_trace):
        refs = list(small_trace.references(10))
        assert refs  # ten transactions' worth of references
        assert all(isinstance(ref, PageReference) for ref in refs)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = TraceGenerator(TraceConfig(warehouses=2, seed=3))
        b = TraceGenerator(TraceConfig(warehouses=2, seed=3))
        assert list(a.references(50)) == list(b.references(50))

    def test_different_seed_differs(self):
        a = TraceGenerator(TraceConfig(warehouses=2, seed=3))
        b = TraceGenerator(TraceConfig(warehouses=2, seed=4))
        assert list(a.references(50)) != list(b.references(50))


class TestAccessShares:
    def test_table3_relative_intensities(self):
        """Stock and order-line dominate tuple accesses (paper Table 3)."""
        trace = TraceGenerator(TraceConfig(warehouses=2, seed=17))
        counts = collections.Counter()
        transactions = 3000
        for ref in trace.references(transactions):
            counts[ref.relation_name] += 1
        per_tx = {name: counts[name] / transactions for name in counts}
        # Expected: warehouse~0.87, stock~12.3, item~4.3.
        assert per_tx["warehouse"] == pytest.approx(0.87, abs=0.1)
        assert per_tx["stock"] == pytest.approx(12.3, rel=0.15)
        assert per_tx["item"] == pytest.approx(4.3, rel=0.15)
        assert per_tx["order_line"] > per_tx["customer"]


class TestRemoteReferences:
    """The receiver-side synthetic references of the distributed model."""

    def test_stock_lines_are_local_stock_writes(self):
        trace = TraceGenerator(TraceConfig(warehouses=2, seed=31))
        relation, page, write = trace.page_id_space.decode_ref_arrays(
            trace.remote_stock_refs(500)
        )
        assert set(relation.tolist()) == {RELATION_INDEX["stock"]}
        assert write.all()
        assert 0 <= page.min() and page.max() < trace.total_static_pages()["stock"]
        assert trace.remote_stock_refs(0).size == 0

    def test_payment_blocks_write_exactly_one_customer(self):
        trace = TraceGenerator(TraceConfig(warehouses=2, seed=32))
        refs, lengths = trace.remote_payment_refs(2_000)
        assert lengths.sum() == refs.size
        assert set(lengths.tolist()) == {1, 3}
        # 60 % of Payments select by name (three candidates).
        assert np.mean(lengths == 3) == pytest.approx(0.6, abs=0.04)
        relation, page, write = trace.page_id_space.decode_ref_arrays(refs)
        assert set(relation.tolist()) == {RELATION_INDEX["customer"]}
        assert page.max() < trace.total_static_pages()["customer"]
        block = np.repeat(np.arange(lengths.size), lengths)
        assert np.bincount(block, weights=write).tolist() == [1.0] * lengths.size

    def test_generic_streams_leave_the_trace_alone(self):
        plain = TraceGenerator(TraceConfig(warehouses=1, seed=33))
        mixed = TraceGenerator(TraceConfig(warehouses=1, seed=33))
        mixed.remote_stock_refs(100)
        mixed.remote_payment_refs(40)
        assert np.array_equal(
            plain.encoded_batch(transactions=200).refs,
            mixed.encoded_batch(transactions=200).refs,
        )


def scaled_config(**overrides):
    defaults = dict(
        warehouses=2, items=600, customers_per_district=90, prime_orders=25, seed=5
    )
    defaults.update(overrides)
    return TraceConfig(**defaults)


SHARED_TABLES = ("item_ref_r", "stock_off_w", "customer_off_r", "customer_off_w")


class TestSharedTables:
    """The seed-independent layout tables are built once per process."""

    @pytest.mark.parametrize("packing", ["sequential", "optimized"])
    def test_shared_across_seeds(self, packing):
        a = TraceGenerator(scaled_config(packing=packing, seed=1))
        b = TraceGenerator(scaled_config(packing=packing, seed=2))
        assert a._tables is b._tables
        for name in SHARED_TABLES:
            assert getattr(a._tables, name) is getattr(b._tables, name)
        assert a.page_id_space is b.page_id_space

    def test_random_packing_is_per_seed(self):
        a = TraceGenerator(scaled_config(packing="random", seed=1))
        b = TraceGenerator(scaled_config(packing="random", seed=2))
        assert a._tables is not b._tables
        assert not np.array_equal(a._tables.stock_off_w, b._tables.stock_off_w)

    @pytest.mark.parametrize("name", SHARED_TABLES)
    def test_read_only(self, name):
        table = getattr(TraceGenerator(scaled_config())._tables, name)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0

    def test_one_shape_is_kept(self):
        TraceGenerator(scaled_config())
        TraceGenerator(scaled_config(warehouses=1))
        assert trace_module._trace_tables.cache_info().currsize == 1

    def test_alternating_shapes_match_fresh_generators(self):
        configs = [
            scaled_config(seed=7),
            scaled_config(packing="optimized", warehouses=1, seed=8),
            scaled_config(packing="random", seed=9),
        ]
        fresh = []
        for config in configs:
            trace_module._trace_tables.cache_clear()
            generator = TraceGenerator(config)
            fresh.append([generator.encoded_batch(transactions=150) for _ in range(2)])
        trace_module._trace_tables.cache_clear()
        # Every construction replaces the single cached entry, and the
        # generators are read in turn.
        generators = [TraceGenerator(config) for config in configs + configs]
        for round_index in range(2):
            for generator, batches in zip(generators, fresh + fresh):
                expected = batches[round_index]
                batch = generator.encoded_batch(transactions=150)
                assert np.array_equal(batch.refs, expected.refs)
                assert np.array_equal(batch.tx_accesses, expected.tx_accesses)
                assert batch.highest_page_id == expected.highest_page_id


class TestLifetime:
    @pytest.mark.parametrize("streamed", [True, False])
    def test_freed_by_reference_count_alone(self, streamed):
        """A generator that has emitted is not cyclic garbage: dropping
        the last reference frees it (and its state) with the cycle
        collector switched off."""
        gc.collect()
        gc.disable()
        try:
            trace = TraceGenerator(TraceConfig(warehouses=1, seed=34))
            trace.encoded_batch(transactions=50)
            if streamed:
                next(trace.stream())
            alive = weakref.ref(trace)
            state = weakref.ref(trace.state)
            del trace
            assert alive() is None
            assert state() is None
        finally:
            gc.enable()


class TestOneEmissionPath:
    """The selectors and shims between byte-identical paths are gone."""

    def test_vectorized_is_not_an_option(self):
        trace = TraceGenerator(TraceConfig(warehouses=1, seed=21))
        with pytest.raises(TypeError):
            trace.stream(vectorized=False)
        with pytest.raises(TypeError):
            trace.encoded_batch(transactions=1, vectorized=False)

    def test_stream_yields_only_encoded_batches(self):
        trace = TraceGenerator(TraceConfig(warehouses=1, seed=21))
        with pytest.raises(TypeError):
            trace.stream(format="objects")
        assert isinstance(next(trace.stream(batch_size=100)), EncodedBatch)
        assert not hasattr(stream_module, "STREAM_FORMATS")

    def test_per_transaction_entry_points_are_gone(self):
        trace = TraceGenerator(TraceConfig(warehouses=1, seed=21))
        assert not hasattr(trace, "transaction")
        assert not hasattr(trace, "transaction_encoded")

    def test_references_consumes_exactly_n_transactions(self):
        config = TraceConfig(warehouses=1, seed=22)
        whole = TraceGenerator(config).encoded_batch(transactions=30)
        split = TraceGenerator(config)
        head = list(split.references(10))
        tail = split.encoded_batch(transactions=20)
        cut = int(whole.tx_lengths[:10].sum())
        decode = split.page_id_space.decode_ref
        assert head == [decode(ref) for ref in whole.refs[:cut].tolist()]
        assert np.array_equal(tail.refs, whole.refs[cut:])
        assert np.array_equal(tail.tx_indices, whole.tx_indices[10:])

    @pytest.mark.parametrize("head_transactions", [0, 45, 300])
    def test_split_batch_matches_separate_batches(self, head_transactions):
        """``split`` cuts one batch into the batches a second generator
        emits when asked for the two windows in turn, access counts
        included; both parts keep the whole batch's page-id bound."""
        config = scaled_config(seed=23)
        whole = TraceGenerator(config).encoded_batch(transactions=300)
        head, tail = whole.split(head_transactions)
        separate = TraceGenerator(config)
        for part, transactions in ((head, head_transactions), (tail, 300 - head_transactions)):
            assert part.highest_page_id == whole.highest_page_id
            if not transactions:
                assert part.references == part.transactions == 0
                assert not part.tx_accesses.any()
                continue
            alone = separate.encoded_batch(transactions=transactions)
            assert np.array_equal(part.refs, alone.refs)
            assert np.array_equal(part.tx_indices, alone.tx_indices)
            assert np.array_equal(part.tx_lengths, alone.tx_lengths)
            assert np.array_equal(part.tx_accesses, alone.tx_accesses)

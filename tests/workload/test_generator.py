"""Unit tests for repro.workload.generator."""

import numpy as np
import pytest

from repro.constants import (
    CUSTOMERS_PER_DISTRICT,
    ITEMS,
    NURAND_A_CUSTOMER,
    NURAND_A_ITEM,
    NURAND_A_NAME,
)
from repro.core.nurand import NURand
from repro.workload.generator import (
    SPLIT_STREAM_NAMES,
    InputGenerator,
    scaled_nurand_a,
    validate_inputs,
)


@pytest.fixture
def generator():
    return InputGenerator(warehouses=5, seed=12345)


def selections(generator, count):
    """``count`` Payment and ``count`` Order-Status customer selections."""
    return [
        generator.payment_columns(count).selection,
        generator.order_status_columns(count).selection,
    ]


def by_name_rows(generator, count):
    """The by-name rows of ``count`` Payments and ``count`` Order-Statuses."""
    return np.concatenate([selection.names for selection in selections(generator, count)])


class TestDefaultRngDeterminism:
    """Regression: the default seed must be fixed (reprolint REP001).

    An OS-entropy-seeded default generator made two InputGenerators
    constructed without an explicit rng produce different traces.
    """

    def test_default_rng_is_deterministic(self):
        first = InputGenerator(warehouses=3)
        second = InputGenerator(warehouses=3)
        draws_a = first.new_order_columns(5).items
        draws_b = second.new_order_columns(5).items
        assert np.array_equal(draws_a, draws_b)

    def test_seed_selects_the_stream(self):
        def draws(seed):
            generator = InputGenerator(warehouses=3, seed=seed)
            return generator.new_order_columns(5).items.tobytes()

        assert draws([0, 4]) == draws([0, 4])
        assert len({draws(seed) for seed in (0, 1, [0, 4])}) == 3

    def test_types_draw_independently(self):
        """A type's k-th input depends neither on the other types' draws
        nor on how its own draws are split into columns."""
        alone = InputGenerator(warehouses=3, seed=8)
        mixed = InputGenerator(warehouses=3, seed=8)
        expected = list(alone.payment_columns(20).rows())
        got = []
        for count in (1, 7, 0, 12):
            mixed.new_order_columns(3)
            mixed.stock_level_columns(count)
            got += mixed.payment_columns(count).rows()
            mixed.order_status_columns(2)
            mixed.delivery_columns(count)
            mixed.remote_payment_columns(count)
        assert got == expected

    def test_rows_carry_the_columns(self, generator):
        """Each ``*Params`` row is the same transaction's column values."""
        orders = generator.new_order_columns(30)
        for k, params in enumerate(orders.rows()):
            assert (params.warehouse, params.district, params.customer) == (
                orders.warehouse[k], orders.district[k], orders.customer[k]
            )
            assert params.item_ids == tuple(orders.items[k].tolist())
            supply = tuple(line.supply_warehouse for line in params.lines)
            assert supply == tuple(orders.supply_warehouse[k].tolist())
        payments = generator.payment_columns(30)
        statuses = generator.order_status_columns(30)
        for columns in (payments, statuses):
            selection = columns.selection
            singles = iter(selection.singles.tolist())
            names = iter(selection.names.tolist())
            for k, params in enumerate(columns.rows()):
                assert params.warehouse == columns.warehouse[k]
                assert params.district == columns.district[k]
                assert params.by_name == selection.by_name[k]
                expected = next(names) if params.by_name else [next(singles)]
                assert params.customer_tuples == tuple(expected)
        for k, params in enumerate(payments.rows()):
            assert params.customer_warehouse == payments.customer_warehouse[k]
            assert params.customer_district == payments.customer_district[k]
        levels = generator.stock_level_columns(30)
        assert [(p.warehouse, p.district, p.threshold) for p in levels.rows()] == list(
            zip(*(column.tolist() for column in levels))
        )
        deliveries = generator.delivery_columns(30)
        assert [p.warehouse for p in deliveries.rows()] == deliveries.warehouse.tolist()
        assert all(
            type(value) is int
            for value in (*next(orders.rows()).item_ids, next(payments.rows()).warehouse)
        )


class TestScaledA:
    def test_full_scale_defaults(self):
        assert scaled_nurand_a(ITEMS, ITEMS, NURAND_A_ITEM) == NURAND_A_ITEM
        assert scaled_nurand_a(3000, 3000, NURAND_A_CUSTOMER) == NURAND_A_CUSTOMER
        assert scaled_nurand_a(1000, 1000, NURAND_A_NAME) == NURAND_A_NAME

    def test_scaled_keeps_ratio(self):
        # 1000 items at the item ratio (~12x) -> A around 63..127.
        a = scaled_nurand_a(1000, ITEMS, NURAND_A_ITEM)
        assert a in (63, 127)

    def test_result_is_power_of_two_minus_one(self):
        for span in (30, 90, 300, 5000):
            a = scaled_nurand_a(span, 3000, NURAND_A_CUSTOMER)
            assert (a + 1) & a == 0  # 2^k - 1 pattern

    def test_never_exceeds_span(self):
        assert scaled_nurand_a(4, 3000, NURAND_A_CUSTOMER) <= 3

    def test_invalid_span(self):
        with pytest.raises(ValueError, match="span"):
            scaled_nurand_a(0, 3000, 1023)


def in_range(column, lo, hi):
    return column.size > 0 and bool(((column >= lo) & (column <= hi)).all())


class TestUniformDraws:
    def test_warehouse_bounds(self, generator):
        payments = generator.payment_columns(100)
        for column in (
            generator.new_order_columns(100).warehouse,
            payments.warehouse,
            payments.customer_warehouse,
            generator.order_status_columns(100).warehouse,
            generator.delivery_columns(100).warehouse,
            generator.stock_level_columns(100).warehouse,
        ):
            assert in_range(column, 1, 5)

    def test_district_bounds(self, generator):
        payments = generator.payment_columns(100)
        for column in (
            generator.new_order_columns(100).district,
            payments.district,
            payments.customer_district,
            generator.order_status_columns(100).district,
            generator.stock_level_columns(100).district,
        ):
            assert in_range(column, 1, 10)

    def test_stock_level_threshold_bounds(self, generator):
        thresholds = set(generator.stock_level_columns(500).threshold.tolist())
        assert thresholds == set(range(10, 21))

    def test_remote_warehouse_never_home(self):
        generator = InputGenerator(
            warehouses=5,
            seed=3,
            remote_stock_probability=1.0,
            remote_payment_probability=1.0,
        )
        orders = generator.new_order_columns(50)
        assert (orders.supply_warehouse != orders.warehouse[:, None]).all()
        # Every (home, remote) pair of five warehouses shows up.
        homes = np.repeat(orders.warehouse, 10).tolist()
        assert len(set(zip(homes, orders.supply_warehouse.ravel().tolist()))) == 20
        payments = generator.payment_columns(50)
        assert (payments.customer_warehouse != payments.warehouse).all()

    def test_remote_warehouse_single_node(self):
        generator = InputGenerator(
            warehouses=1,
            seed=3,
            remote_stock_probability=1.0,
            remote_payment_probability=1.0,
        )
        assert set(generator.new_order_columns(1).supply_warehouse.ravel().tolist()) == {1}
        assert generator.payment_columns(1).customer_warehouse.tolist() == [1]
        # Peer traffic at one warehouse lands on that warehouse.
        warehouse, _ = generator.remote_stock_columns(20)
        assert set(warehouse.tolist()) == {1}


class TestCustomerTuples:
    def test_by_id_returns_one(self):
        generator = InputGenerator(warehouses=1, seed=4)
        for selection in selections(generator, 500):
            singles = selection.singles
            assert singles.size == np.count_nonzero(~selection.by_name) > 0
            assert in_range(singles, 1, 3000)
            assert all(
                len(ids) == 1
                for ids, by_name in zip(selection.lists()[1], selection.by_name)
                if not by_name
            )

    def test_by_name_returns_three_in_band(self):
        generator = InputGenerator(warehouses=1, seed=4)
        names = by_name_rows(generator, 500)
        assert names.shape[1] == 3
        band = (names - 1) // 1000
        assert (band == band[:, :1]).all()
        assert set(band[:, 0].tolist()) == {0, 1, 2}

    def test_by_name_share(self):
        generator = InputGenerator(warehouses=1, seed=4)
        payments, statuses = selections(generator, 4000)
        assert np.mean(payments.by_name) == pytest.approx(0.6, abs=0.04)
        assert np.mean(statuses.by_name) == pytest.approx(0.6, abs=0.04)
        # Peer Payments select the same way, off their own substreams.
        _, _, peers = generator.remote_payment_columns(4000)
        assert np.mean(peers.by_name) == pytest.approx(0.6, abs=0.04)


class TestNewOrder:
    def test_line_count(self, generator):
        orders = generator.new_order_columns(3)
        assert orders.items.shape == orders.supply_warehouse.shape == (3, 10)
        assert all(len(params.lines) == 10 for params in orders.rows())

    def test_ids_in_bounds(self, generator):
        orders = generator.new_order_columns(20)
        assert in_range(orders.warehouse, 1, 5)
        assert in_range(orders.district, 1, 10)
        assert in_range(orders.customer, 1, 3000)
        assert in_range(orders.items, 1, ITEMS)
        assert in_range(orders.supply_warehouse, 1, 5)
        _, item = generator.remote_stock_columns(200)
        assert in_range(item, 1, ITEMS)

    def test_remote_share_roughly_one_percent(self):
        generator = InputGenerator(warehouses=10, seed=5)
        orders = generator.new_order_columns(2000)
        remote = np.count_nonzero(orders.supply_warehouse != orders.warehouse[:, None])
        assert remote / 20_000 == pytest.approx(0.01, abs=0.005)

    def test_remote_probability_override(self):
        generator = InputGenerator(warehouses=10, seed=5, remote_stock_probability=1.0)
        (params,) = generator.new_order_columns(1).rows()
        assert params.remote_line_count == 10

    def test_custom_items_per_order(self):
        generator = InputGenerator(warehouses=2, seed=5, items_per_order=7)
        (params,) = generator.new_order_columns(1).rows()
        assert len(params.lines) == 7


class TestPayment:
    def test_remote_share(self):
        generator = InputGenerator(warehouses=10, seed=6)
        payments = generator.payment_columns(3000)
        remote = np.count_nonzero(payments.customer_warehouse != payments.warehouse)
        assert remote / 3000 == pytest.approx(0.15, abs=0.03)

    def test_local_payment_uses_home_district(self):
        generator = InputGenerator(warehouses=3, seed=6)
        payments = generator.payment_columns(200)
        local = payments.customer_warehouse == payments.warehouse
        assert local.any()
        assert (payments.customer_district[local] == payments.district[local]).all()

    def test_selected_customer_is_median(self):
        generator = InputGenerator(warehouses=1, seed=6)
        params = next(p for p in generator.payment_columns(20).rows() if p.by_name)
        assert params.selected_customer == sorted(params.customer_tuples)[1]


class TestScaledGenerator:
    def test_scaled_bounds(self):
        generator = InputGenerator(
            warehouses=2, seed=7, items=500, customers_per_district=90
        )
        orders = generator.new_order_columns(20)
        assert in_range(orders.items, 1, 500)
        assert in_range(orders.customer, 1, 90)

    def test_scaled_name_bands(self):
        generator = InputGenerator(warehouses=1, seed=7, customers_per_district=90)
        names = by_name_rows(generator, 300)
        assert in_range(names, 1, 90)
        band = (names - 1) // 30
        assert (band == band[:, :1]).all()

    def test_indivisible_customers_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            InputGenerator(warehouses=1, customers_per_district=100)


class TestValidation:
    def test_invalid_warehouses(self):
        with pytest.raises(ValueError, match="warehouses"):
            InputGenerator(warehouses=0)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="remote_stock"):
            InputGenerator(warehouses=1, remote_stock_probability=1.5)
        with pytest.raises(ValueError, match="remote_payment"):
            InputGenerator(warehouses=1, remote_payment_probability=-0.1)

    def test_invalid_items_per_order(self):
        with pytest.raises(ValueError, match="items_per_order"):
            InputGenerator(warehouses=1, items_per_order=0)

    def test_invalid_items(self):
        with pytest.raises(ValueError, match="items must be positive"):
            InputGenerator(warehouses=1, items=0)

    def test_counts_past_int32_rejected(self):
        # The samplers store int32 blocks; a larger id would wrap.
        with pytest.raises(ValueError, match="items must be at most 2147483647"):
            validate_inputs(1, items=2**31)
        with pytest.raises(ValueError, match="warehouses must be at most"):
            validate_inputs(2**31)
        validate_inputs(2**31 - 1, items=2**31 - 1)

    def test_validate_inputs_accepts_the_defaults(self):
        validate_inputs(1)
        validate_inputs(2, remote_stock_probability=1.0, remote_payment_probability=0.0)


class TestSamplerBlocks:
    """Blocks are stored compactly; draws come back at full width."""

    @staticmethod
    def child_rng(seed, name):
        children = np.random.SeedSequence(seed).spawn(len(SPLIT_STREAM_NAMES))
        return np.random.default_rng(children[SPLIT_STREAM_NAMES.index(name)])

    def test_stored_blocks(self, generator):
        generator.new_order_columns(3)
        for sampler, dtype in (
            (generator._no_item, np.int32),
            (generator._no_warehouse, np.int32),
            (generator._no_flags, np.float64),
        ):
            block = sampler._buffer
            assert block.dtype == dtype
            assert not block.flags.writeable

    # Crossing the 8 192-draw NURand and 4 096-draw uniform refills,
    # mid-block and exactly at a block's end.
    COUNTS = (1, 4_000, 95, 4_096, 8_192, 3, 12_000, 1)

    def test_nurand_draws_equal_an_int64_reference(self):
        generator = InputGenerator(warehouses=5, seed=7)
        rng = self.child_rng(7, "no_customer")
        nurand = NURand(NURAND_A_CUSTOMER, 1, CUSTOMERS_PER_DISTRICT)
        total = sum(self.COUNTS)
        reference = np.concatenate(
            [nurand.sample_array(rng, 8192) for _ in range(-(-total // 8192))]
        )
        got = [generator._no_customer.draw_many_np(count) for count in self.COUNTS]
        assert all(draw.dtype == np.int64 for draw in got)
        assert np.array_equal(np.concatenate(got), reference[:total])

    def test_uniform_and_float_draws_equal_64_bit_references(self):
        generator = InputGenerator(warehouses=5, seed=7)
        total = sum(self.COUNTS)
        blocks = -(-total // 4096)
        rng = self.child_rng(7, "no_warehouse")
        warehouses = np.concatenate([rng.integers(1, 6, size=4096) for _ in range(blocks)])
        rng = self.child_rng(7, "no_flags")
        flags = np.concatenate([rng.random(4096) for _ in range(blocks)])
        for sampler, reference, dtype in (
            (generator._no_warehouse, warehouses, np.int64),
            (generator._no_flags, flags, np.float64),
        ):
            got = [sampler.draw_many_np(count) for count in self.COUNTS]
            assert all(draw.dtype == dtype for draw in got)
            assert np.array_equal(np.concatenate(got), reference[:total])

"""Unit tests for repro.workload.generator."""

import numpy as np
import pytest

from repro.constants import ITEMS, NURAND_A_CUSTOMER, NURAND_A_ITEM, NURAND_A_NAME
from repro.workload.generator import InputGenerator, scaled_nurand_a


@pytest.fixture
def generator():
    return InputGenerator(warehouses=5, seed=12345)


def selections(generator, count):
    """``count`` Payment and ``count`` Order-Status customer selections."""
    for _ in range(count):
        yield generator.payment()
        yield generator.order_status()


class TestDefaultRngDeterminism:
    """Regression: the default seed must be fixed (reprolint REP001).

    An OS-entropy-seeded default generator made two InputGenerators
    constructed without an explicit rng produce different traces.
    """

    def test_default_rng_is_deterministic(self):
        first = InputGenerator(warehouses=3)
        second = InputGenerator(warehouses=3)
        draws_a = [first.new_order().item_ids for _ in range(5)]
        draws_b = [second.new_order().item_ids for _ in range(5)]
        assert draws_a == draws_b

    def test_seed_selects_the_stream(self):
        def draws(seed):
            generator = InputGenerator(warehouses=3, seed=seed)
            return [generator.new_order().item_ids for _ in range(5)]

        assert draws([0, 4]) == draws([0, 4])
        assert len({tuple(draws(seed)) for seed in (0, 1, [0, 4])}) == 3

    def test_types_draw_independently(self):
        """A type's k-th input does not depend on the other types' draws."""
        alone = InputGenerator(warehouses=3, seed=8)
        mixed = InputGenerator(warehouses=3, seed=8)
        expected = [alone.payment() for _ in range(20)]
        got = []
        for _ in range(20):
            mixed.new_order()
            mixed.stock_level()
            got.append(mixed.payment())
            mixed.order_status()
            mixed.delivery()
        assert got == expected


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


class TestUniformDraws:
    def test_warehouse_bounds(self, generator):
        for _ in range(100):
            assert 1 <= generator.new_order().warehouse <= 5
            payment = generator.payment()
            assert 1 <= payment.warehouse <= 5
            assert 1 <= payment.customer_warehouse <= 5
            assert 1 <= generator.order_status().warehouse <= 5
            assert 1 <= generator.delivery().warehouse <= 5
            assert 1 <= generator.stock_level().warehouse <= 5

    def test_district_bounds(self, generator):
        for _ in range(100):
            assert 1 <= generator.new_order().district <= 10
            payment = generator.payment()
            assert 1 <= payment.district <= 10
            assert 1 <= payment.customer_district <= 10
            assert 1 <= generator.order_status().district <= 10
            assert 1 <= generator.stock_level().district <= 10

    def test_stock_level_threshold_bounds(self, generator):
        thresholds = {generator.stock_level().threshold for _ in range(500)}
        assert thresholds == set(range(10, 21))

    def test_remote_warehouse_never_home(self):
        generator = InputGenerator(
            warehouses=5,
            seed=3,
            remote_stock_probability=1.0,
            remote_payment_probability=1.0,
        )
        supplies = set()
        for _ in range(50):
            order = generator.new_order()
            for line in order.lines:
                assert line.supply_warehouse != order.warehouse
                supplies.add((order.warehouse, line.supply_warehouse))
            payment = generator.payment()
            assert payment.customer_warehouse != payment.warehouse
        # Every (home, remote) pair of five warehouses shows up.
        assert len(supplies) == 20

    def test_remote_warehouse_single_node(self):
        generator = InputGenerator(
            warehouses=1,
            seed=3,
            remote_stock_probability=1.0,
            remote_payment_probability=1.0,
        )
        order = generator.new_order()
        assert {line.supply_warehouse for line in order.lines} == {1}
        assert generator.payment().customer_warehouse == 1


class TestCustomerTuples:
    def test_by_id_returns_one(self):
        generator = InputGenerator(warehouses=1, seed=4)
        singles = [p.customer_tuples for p in selections(generator, 500) if not p.by_name]
        assert singles and all(len(ids) == 1 for ids in singles)
        assert all(1 <= ids[0] <= 3000 for ids in singles)

    def test_by_name_returns_three_in_band(self):
        generator = InputGenerator(warehouses=1, seed=4)
        bands = set()
        for params in selections(generator, 500):
            if not params.by_name:
                continue
            ids = params.customer_tuples
            assert len(ids) == 3
            band = (min(ids) - 1) // 1000
            assert all((i - 1) // 1000 == band for i in ids)
            bands.add(band)
        assert bands == {0, 1, 2}

    def test_by_name_share(self):
        generator = InputGenerator(warehouses=1, seed=4)
        payments = [generator.payment().by_name for _ in range(4000)]
        statuses = [generator.order_status().by_name for _ in range(4000)]
        assert np.mean(payments) == pytest.approx(0.6, abs=0.04)
        assert np.mean(statuses) == pytest.approx(0.6, abs=0.04)


class TestNewOrder:
    def test_line_count(self, generator):
        params = generator.new_order()
        assert len(params.lines) == 10

    def test_ids_in_bounds(self, generator):
        params = generator.new_order()
        assert 1 <= params.warehouse <= 5
        assert 1 <= params.district <= 10
        assert 1 <= params.customer <= 3000
        for line in params.lines:
            assert 1 <= line.item_id <= ITEMS
            assert 1 <= line.supply_warehouse <= 5

    def test_remote_share_roughly_one_percent(self):
        generator = InputGenerator(warehouses=10, seed=5)
        remote = sum(generator.new_order().remote_line_count for _ in range(2000))
        assert remote / 20_000 == pytest.approx(0.01, abs=0.005)

    def test_remote_probability_override(self):
        generator = InputGenerator(warehouses=10, seed=5, remote_stock_probability=1.0)
        params = generator.new_order()
        assert params.remote_line_count == 10

    def test_custom_items_per_order(self):
        generator = InputGenerator(warehouses=2, seed=5, items_per_order=7)
        assert len(generator.new_order().lines) == 7


class TestPayment:
    def test_remote_share(self):
        generator = InputGenerator(warehouses=10, seed=6)
        remote = sum(generator.payment().is_remote for _ in range(3000))
        assert remote / 3000 == pytest.approx(0.15, abs=0.03)

    def test_local_payment_uses_home_district(self):
        generator = InputGenerator(warehouses=3, seed=6)
        for _ in range(200):
            params = generator.payment()
            if not params.is_remote:
                assert params.customer_district == params.district

    def test_selected_customer_is_median(self):
        generator = InputGenerator(warehouses=1, seed=6)
        while True:
            params = generator.payment()
            if params.by_name:
                assert params.selected_customer == sorted(params.customer_tuples)[1]
                break


class TestScaledGenerator:
    def test_scaled_bounds(self):
        generator = InputGenerator(
            warehouses=2, seed=7, items=500, customers_per_district=90
        )
        params = generator.new_order()
        assert all(1 <= line.item_id <= 500 for line in params.lines)
        assert 1 <= params.customer <= 90

    def test_scaled_name_bands(self):
        generator = InputGenerator(warehouses=1, seed=7, customers_per_district=90)
        for params in selections(generator, 300):
            if params.by_name:
                band = (min(params.customer_tuples) - 1) // 30
                assert all(
                    1 <= i <= 90 and (i - 1) // 30 == band
                    for i in params.customer_tuples
                )

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

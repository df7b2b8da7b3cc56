"""Unit tests for repro.throughput.pricing (Figure 10 machinery)."""

import pytest

from repro.throughput.params import MissRateInputs
from repro.throughput.pricing import (
    AnalyticMissRateProvider,
    InterpolatingMissRateProvider,
    PriceBook,
    optimal_point,
    price_performance_sweep,
)


@pytest.fixture(scope="module")
def provider():
    return AnalyticMissRateProvider(packing="sequential")


@pytest.fixture(scope="module")
def optimized_provider():
    return AnalyticMissRateProvider(packing="optimized")


class TestPriceBook:
    def test_defaults(self):
        book = PriceBook()
        assert book.disk_price == 5000
        assert book.cpu_price == 10_000
        assert book.memory_price_per_mb == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            PriceBook(disk_price=0)


class TestAnalyticProvider:
    def test_rates_in_range(self, provider):
        miss = provider(52.0)
        for value in (miss.customer, miss.item, miss.stock):
            assert 0.0 <= value <= 1.0

    def test_monotone_in_buffer_size(self, provider):
        small, large = provider(16.0), provider(128.0)
        assert large.stock < small.stock
        assert large.customer < small.customer
        assert large.item <= small.item

    def test_optimized_packing_lower_misses(self, provider, optimized_provider):
        seq, opt = provider(52.0), optimized_provider(52.0)
        assert opt.stock < seq.stock
        assert opt.item < seq.item

    def test_item_hotter_than_stock(self, provider):
        """Item is 50x smaller than 20 warehouses of stock."""
        miss = provider(52.0)
        assert miss.item < miss.stock

    def test_residual_rates_passed_through(self):
        residual = MissRateInputs(
            customer=0, item=0, stock=0, order=0.07, order_line=0.03
        )
        provider = AnalyticMissRateProvider(residual=residual)
        miss = provider(52.0)
        assert miss.order == 0.07
        assert miss.order_line == 0.03

    def test_invalid_packing(self):
        with pytest.raises(ValueError, match="packing"):
            AnalyticMissRateProvider(packing="diagonal")

    @pytest.mark.parametrize("megabytes", [0.0, -5.0, float("nan"), float("inf")])
    def test_invalid_buffer_size(self, provider, megabytes):
        with pytest.raises(ValueError, match="buffer_mb"):
            provider(megabytes)


#: ``(customer, stock, item)`` miss rates of the default provider, as
#: ``float.hex``: any change to the layouts, the block tiling or the Che
#: fold moves at least one of them.
PROVIDER_PINS = {
    ("sequential", 16.0): (
        "0x1.f967d2f6426f3p-1", "0x1.c8343b3a69f54p-1", "0x1.5c7e836de437dp-2"
    ),
    ("sequential", 52.0): (
        "0x1.e5c32a4b21448p-1", "0x1.6038d325152eep-1", "0x1.a6144422fb2b1p-4"
    ),
    ("sequential", 104.0): (
        "0x1.c38ca167cbf66p-1", "0x1.00068cfa6199bp-1", "0x1.1f7f90de6486bp-5"
    ),
    ("sequential", 256.0): (
        "0x1.4d33499dbe93ep-1", "0x1.d51bcf0c74621p-3", "0x1.135756957ceccp-8"
    ),
    ("optimized", 16.0): (
        "0x1.f18f81805eca8p-1", "0x1.8d484e61f7c12p-1", "0x1.b1f3d0348ed23p-3"
    ),
    ("optimized", 52.0): (
        "0x1.c6a64825a77a1p-1", "0x1.09ccd9d9ec9a2p-1", "0x1.11b880f7ec261p-4"
    ),
    ("optimized", 104.0): (
        "0x1.8464d35860511p-1", "0x1.5cd76cf9861aep-2", "0x1.a28cb864aa94fp-6"
    ),
    ("optimized", 256.0): (
        "0x1.c8642903e9dfep-2", "0x1.112a31eb3bdb4p-3", "0x1.0f62d9fc06b62p-8"
    ),
}


@pytest.mark.parametrize("packing, megabytes", sorted(PROVIDER_PINS))
def test_analytic_provider_is_pinned(provider, optimized_provider, packing, megabytes):
    chosen = provider if packing == "sequential" else optimized_provider
    miss = chosen(megabytes)
    assert (
        miss.customer.hex(), miss.stock.hex(), miss.item.hex()
    ) == PROVIDER_PINS[packing, megabytes]


class TestInterpolatingProvider:
    def _grid(self):
        return {
            10.0: MissRateInputs(customer=0.8, item=0.2, stock=0.6),
            50.0: MissRateInputs(customer=0.4, item=0.0, stock=0.2),
        }

    def test_exact_grid_points(self):
        provider = InterpolatingMissRateProvider(self._grid())
        assert provider(10.0).customer == pytest.approx(0.8)
        assert provider(50.0).stock == pytest.approx(0.2)

    def test_linear_between(self):
        provider = InterpolatingMissRateProvider(self._grid())
        assert provider(30.0).customer == pytest.approx(0.6)
        assert provider(30.0).stock == pytest.approx(0.4)

    def test_clamped_outside(self):
        provider = InterpolatingMissRateProvider(self._grid())
        assert provider(1.0).customer == pytest.approx(0.8)
        assert provider(500.0).customer == pytest.approx(0.4)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            InterpolatingMissRateProvider({})

    @pytest.mark.parametrize("megabytes", [0.0, -5.0, float("nan"), float("inf")])
    def test_invalid_buffer_size(self, megabytes):
        provider = InterpolatingMissRateProvider(self._grid())
        with pytest.raises(ValueError, match="buffer_mb"):
            provider(megabytes)


class TestSweep:
    SIZES = [16.0, 32.0, 64.0, 128.0, 192.0]

    def test_points_per_size(self, provider):
        points = price_performance_sweep(self.SIZES, provider)
        assert [point.buffer_mb for point in points] == self.SIZES

    def test_cost_components(self, provider):
        point = price_performance_sweep([64.0], provider)[0]
        assert point.memory_cost == pytest.approx(6400)
        assert point.cpu_cost == 10_000
        assert point.disk_cost == point.disks * 5000
        assert point.total_cost == pytest.approx(
            point.memory_cost + point.cpu_cost + point.disk_cost
        )

    def test_capacity_floor_with_growth(self, provider):
        with_growth = price_performance_sweep([128.0], provider, include_growth=True)[0]
        without = price_performance_sweep([128.0], provider, include_growth=False)[0]
        assert with_growth.disks >= without.disks
        assert with_growth.storage_bytes > without.storage_bytes

    def test_throughput_nondecreasing_in_memory(self, provider):
        points = price_performance_sweep(self.SIZES, provider)
        tpms = [point.throughput.new_order_tpm for point in points]
        assert tpms == sorted(tpms)

    def test_optimal_point(self, provider):
        points = price_performance_sweep(self.SIZES, provider)
        best = optimal_point(points)
        assert best.cost_per_tpm == min(point.cost_per_tpm for point in points)

    def test_optimal_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_point([])

    def test_optimized_packing_cheaper(self, provider, optimized_provider):
        """The paper's headline price/performance benefit."""
        seq = optimal_point(
            price_performance_sweep(self.SIZES, provider, include_growth=False)
        )
        opt = optimal_point(
            price_performance_sweep(
                self.SIZES, optimized_provider, include_growth=False
            )
        )
        assert opt.cost_per_tpm < seq.cost_per_tpm

    def test_as_row(self, provider):
        row = price_performance_sweep([64.0], provider)[0].as_row()
        assert set(row) == {"buffer MB", "new-order tpm", "disks", "cost $", "$/tpm"}

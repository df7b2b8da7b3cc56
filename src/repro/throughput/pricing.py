"""Price/performance analysis (paper Section 5.2, Figure 10).

For each candidate buffer size the system is costed as processor +
memory + disks, where the disk count is the larger of what disk-arm
bandwidth requires (at the 50% utilization cap) and what storage
capacity requires (optionally including 180 days of growth of the
Order / Order-Line / History relations).  Dividing by the New-Order
throughput yields the $/tpm curve whose minimum locates the optimal
memory configuration.

Dense sweeps need miss rates at many buffer sizes; the
:class:`AnalyticMissRateProvider` computes them with the Che LRU
approximation over the exact page-access distributions, while
simulation-backed providers can be built from Figure 8 sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.buffer.analytic import che_characteristic_time, che_hit_probabilities
from repro.buffer.kernels import require_megabytes
from repro.constants import (
    CPU_PRICE_DOLLARS,
    DEFAULT_PAGE_SIZE,
    DISK_CAPACITY_GB,
    DISK_PRICE_DOLLARS,
    MEMORY_PRICE_PER_MB,
    WAREHOUSES_PER_NODE,
)
from repro.core.mapping import page_access_distribution
from repro.throughput.capacity import growth_bytes, static_storage_bytes
from repro.throughput.model import ThroughputModel, ThroughputResult
from repro.throughput.params import CostParameters, MissRateInputs
from repro.workload.access import average_accesses
from repro.workload.mix import DEFAULT_MIX, TransactionMix
from repro.workload.trace import TraceConfig, skewed_layouts


@dataclass(frozen=True)
class PriceBook:
    """Hardware prices (paper Section 5.2 defaults)."""

    disk_price: float = DISK_PRICE_DOLLARS
    disk_capacity_gb: float = DISK_CAPACITY_GB
    cpu_price: float = CPU_PRICE_DOLLARS
    memory_price_per_mb: float = MEMORY_PRICE_PER_MB

    def __post_init__(self) -> None:
        for name in ("disk_price", "disk_capacity_gb", "cpu_price", "memory_price_per_mb"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class AnalyticMissRateProvider:
    """Miss rates as a function of buffer size, via the Che approximation.

    Models the shared LRU buffer over the Customer, Stock and Item
    page sets, weighting each relation's page-access distribution by
    its reference intensity (Table 3 averages).  The remaining
    relations have negligible miss rates (they are tiny, or appended
    and re-read while still hot), matching the paper's observation, so
    they default to zero; pass ``residual`` overrides to inject
    simulator-measured values for the P-type streams.
    """

    def __init__(
        self,
        warehouses: int = WAREHOUSES_PER_NODE,
        page_size: int = DEFAULT_PAGE_SIZE,
        packing: str = "sequential",
        mix: TransactionMix = DEFAULT_MIX,
        residual: MissRateInputs | None = None,
        reserved_pages: int = 256,
    ):
        if packing not in ("sequential", "optimized"):
            raise ValueError(
                f"packing must be 'sequential' or 'optimized', got {packing!r}"
            )
        self._page_size = page_size
        self._reserved_pages = reserved_pages
        self._residual = residual

        # The trace's own block layouts; each block's page PMF is weighted
        # by its relation's reference intensity (tuple accesses per
        # transaction), split evenly over the relation's identical blocks.
        layouts = skewed_layouts(
            TraceConfig(warehouses=warehouses, page_size=page_size, packing=packing)
        )
        segments = [
            np.tile(
                page_access_distribution(tuple_pmf, layout.packing).pmf
                / layout.n_blocks,
                layout.n_blocks,
            )
            * average_accesses(name, mix)
            for name, (layout, tuple_pmf) in layouts.items()
        ]
        self._names = list(layouts)
        self._sizes = [segment.size for segment in segments]
        self._pool_pmf = np.concatenate(segments)
        self._pool_pmf /= self._pool_pmf.sum()

    def __call__(self, buffer_mb: float) -> MissRateInputs:
        """Miss-rate inputs at a buffer size in megabytes."""
        require_megabytes(buffer_mb, "buffer_mb")
        capacity = int(buffer_mb * 1024 * 1024 // self._page_size)
        capacity = max(1, capacity - self._reserved_pages)
        t = che_characteristic_time(self._pool_pmf, capacity)
        hits = che_hit_probabilities(self._pool_pmf, t)

        rates = {}
        offset = 0
        for name, size in zip(self._names, self._sizes):
            segment = self._pool_pmf[offset : offset + size]
            weight = segment.sum()
            miss = float(((1.0 - hits[offset : offset + size]) * segment).sum() / weight)
            rates[name] = min(1.0, max(0.0, miss))
            offset += size

        residual = self._residual
        return MissRateInputs(
            customer=rates["customer"],
            item=rates["item"],
            stock=rates["stock"],
            order=residual.order if residual else 0.0,
            order_line=residual.order_line if residual else 0.0,
            delivery_customer=(residual.delivery_customer if residual else None),
            stock_level_stock=(residual.stock_level_stock if residual else None),
            stock_level_order_line=(
                residual.stock_level_order_line if residual else None
            ),
        )


class InterpolatingMissRateProvider:
    """Miss rates interpolated from buffer-simulation reports.

    This is the paper's own pipeline: run the Figure 8 simulation at a
    grid of buffer sizes, then feed the throughput model.  Between grid
    points each field of :class:`MissRateInputs` is interpolated
    linearly; outside the grid the nearest grid value is used.
    """

    _FIELDS = (
        "customer",
        "item",
        "stock",
        "order",
        "order_line",
        "delivery_customer",
        "stock_level_stock",
        "stock_level_order_line",
    )

    def __init__(self, grid: dict[float, MissRateInputs]):
        if not grid:
            raise ValueError("need at least one grid point")
        self._sizes = np.array(sorted(grid), dtype=np.float64)
        self._values = {
            name: np.array(
                [
                    _effective_field(grid[size], name)
                    for size in self._sizes
                ],
                dtype=np.float64,
            )
            for name in self._FIELDS
        }

    @classmethod
    def from_reports(cls, reports) -> "InterpolatingMissRateProvider":
        """Build from ``{buffer_mb: MissRateReport}`` (a Figure 8 sweep)."""
        return cls(
            {size: MissRateInputs.from_report(report) for size, report in reports.items()}
        )

    def __call__(self, buffer_mb: float) -> MissRateInputs:
        require_megabytes(buffer_mb, "buffer_mb")
        kwargs = {
            name: float(
                np.clip(np.interp(buffer_mb, self._sizes, self._values[name]), 0.0, 1.0)
            )
            for name in self._FIELDS
        }
        return MissRateInputs(**kwargs)


def _effective_field(miss: MissRateInputs, name: str) -> float:
    """Read a MissRateInputs field, resolving None overrides."""
    value = getattr(miss, name)
    if value is not None:
        return value
    return getattr(miss, f"effective_{name}")


@dataclass(frozen=True)
class PricePerformancePoint:
    """One point of the Figure 10 curve."""

    buffer_mb: float
    miss_rates: MissRateInputs
    throughput: ThroughputResult
    disk_arms_for_bandwidth: int
    disks_for_capacity: int
    disks: int
    memory_cost: float
    disk_cost: float
    cpu_cost: float
    storage_bytes: float

    @property
    def total_cost(self) -> float:
        return self.memory_cost + self.disk_cost + self.cpu_cost

    @property
    def cost_per_tpm(self) -> float:
        """Dollars per New-Order transaction per minute."""
        return self.total_cost / self.throughput.new_order_tpm

    def as_row(self) -> dict[str, object]:
        return {
            "buffer MB": self.buffer_mb,
            "new-order tpm": round(self.throughput.new_order_tpm, 1),
            "disks": self.disks,
            "cost $": round(self.total_cost),
            "$/tpm": round(self.cost_per_tpm, 2),
        }


def price_performance_sweep(
    buffer_sizes_mb: list[float],
    miss_rate_provider,
    params: CostParameters | None = None,
    mix: TransactionMix = DEFAULT_MIX,
    warehouses: int = WAREHOUSES_PER_NODE,
    prices: PriceBook | None = None,
    include_growth: bool = True,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> list[PricePerformancePoint]:
    """Evaluate the $/tpm curve over candidate buffer sizes.

    ``miss_rate_provider`` maps a buffer size in MB to
    :class:`MissRateInputs` — use :class:`AnalyticMissRateProvider` or a
    closure over simulation reports.  A point is utilisation arithmetic
    over Table 4 (about a millisecond), so the sweep is a plain loop.
    """
    prices = prices if prices is not None else PriceBook()
    static_storage = float(static_storage_bytes(warehouses, page_size))
    points = []
    for buffer_mb in buffer_sizes_mb:
        miss = miss_rate_provider(buffer_mb)
        result = ThroughputModel(params=params, mix=mix, miss_rates=miss).solve()
        storage = static_storage
        if include_growth:
            storage += growth_bytes(result.total_tpm, mix)
        disks_capacity = max(1, math.ceil(storage / (prices.disk_capacity_gb * 1e9)))
        disks = max(result.disk_arms_for_bandwidth, disks_capacity)
        points.append(
            PricePerformancePoint(
                buffer_mb=buffer_mb,
                miss_rates=miss,
                throughput=result,
                disk_arms_for_bandwidth=result.disk_arms_for_bandwidth,
                disks_for_capacity=disks_capacity,
                disks=disks,
                memory_cost=buffer_mb * prices.memory_price_per_mb,
                disk_cost=disks * prices.disk_price,
                cpu_cost=prices.cpu_price,
                storage_bytes=storage,
            )
        )
    return points


def optimal_point(points: list[PricePerformancePoint]) -> PricePerformancePoint:
    """The sweep point with the lowest $/tpm."""
    if not points:
        raise ValueError("no points to choose from")
    return min(points, key=lambda point: point.cost_per_tpm)

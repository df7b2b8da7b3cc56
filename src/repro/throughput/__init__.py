"""The analytic throughput and price/performance models (paper Section 5).

``params`` holds the CPU/disk cost parameters (Table 4's overhead
column) and the miss-rate inputs produced by the buffer model;
``visits`` builds the per-transaction visit-count matrices (Tables 4, 6
and 7); ``model`` turns them into utilizations and maximum throughput
(Figure 9); ``pricing`` adds the hardware price book and storage sizing
to produce $/tpm curves (Figure 10).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.throughput.capacity import growth_bytes as growth_bytes
    from repro.throughput.capacity import (
        growth_bytes_per_transaction as growth_bytes_per_transaction,
    )
    from repro.throughput.capacity import static_storage_bytes as static_storage_bytes
    from repro.throughput.model import ThroughputModel as ThroughputModel
    from repro.throughput.model import ThroughputResult as ThroughputResult
    from repro.throughput.mva import ClosedSystemModel as ClosedSystemModel
    from repro.throughput.mva import MvaPoint as MvaPoint
    from repro.throughput.mva import mva_curve as mva_curve
    from repro.throughput.params import CostParameters as CostParameters
    from repro.throughput.params import MissRateInputs as MissRateInputs
    from repro.throughput.pricing import AnalyticMissRateProvider as AnalyticMissRateProvider
    from repro.throughput.pricing import (
        InterpolatingMissRateProvider as InterpolatingMissRateProvider,
    )
    from repro.throughput.pricing import PriceBook as PriceBook
    from repro.throughput.pricing import PricePerformancePoint as PricePerformancePoint
    from repro.throughput.pricing import optimal_point as optimal_point
    from repro.throughput.pricing import price_performance_sweep as price_performance_sweep
    from repro.throughput.response import ResponseTimeModel as ResponseTimeModel
    from repro.throughput.response import ResponseTimes as ResponseTimes
    from repro.throughput.visits import Operation as Operation
    from repro.throughput.visits import single_node_visits as single_node_visits

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "growth_bytes": "repro.throughput.capacity",
        "growth_bytes_per_transaction": "repro.throughput.capacity",
        "static_storage_bytes": "repro.throughput.capacity",
        "ThroughputModel": "repro.throughput.model",
        "ThroughputResult": "repro.throughput.model",
        "ClosedSystemModel": "repro.throughput.mva",
        "MvaPoint": "repro.throughput.mva",
        "mva_curve": "repro.throughput.mva",
        "CostParameters": "repro.throughput.params",
        "MissRateInputs": "repro.throughput.params",
        "AnalyticMissRateProvider": "repro.throughput.pricing",
        "InterpolatingMissRateProvider": "repro.throughput.pricing",
        "PriceBook": "repro.throughput.pricing",
        "PricePerformancePoint": "repro.throughput.pricing",
        "optimal_point": "repro.throughput.pricing",
        "price_performance_sweep": "repro.throughput.pricing",
        "ResponseTimeModel": "repro.throughput.response",
        "ResponseTimes": "repro.throughput.response",
        "Operation": "repro.throughput.visits",
        "single_node_visits": "repro.throughput.visits",
    },
)

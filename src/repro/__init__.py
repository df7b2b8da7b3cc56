"""repro — a reproduction of Leutenegger & Dias, "A Modeling Study of
the TPC-C Benchmark" (SIGMOD 1993).

The library couples three models, exactly as the paper does, and adds
an executable storage engine underneath:

* :mod:`repro.core` — the NURand skew analysis (exact PMFs, cumulative
  access-vs-data curves, tuple-to-page packing strategies);
* :mod:`repro.workload` — the TPC-C schema, transaction mix, input
  generators and the stateful page-reference trace;
* :mod:`repro.buffer` — LRU (and friends) buffer-pool simulation with
  batch-means confidence intervals, plus an analytic Che approximation;
* :mod:`repro.throughput` — the CPU/disk throughput model (Table 4) and
  the price/performance configurator (Figure 10);
* :mod:`repro.distributed` — Appendix A remote-call expectations and
  the scale-up model (Figures 11-12);
* :mod:`repro.engine` / :mod:`repro.tpcc` — a real page-based storage
  engine (heap files, B+ trees, buffer manager, locks, WAL) running
  executable TPC-C transactions that cross-validate the models;
* :mod:`repro.driver` — a concurrent multi-terminal TPC-C driver over
  that engine (deterministic virtual time or real worker threads),
  validated against the exact MVA solution;
* :mod:`repro.experiments` — regenerates every table and figure.

Quickstart::

    from repro import item_id_distribution, SkewSummary
    print(SkewSummary.of(item_id_distribution()))   # 84% to hottest 20%

    from repro import BufferSimulation, SimulationConfig, TraceConfig
    report = BufferSimulation(SimulationConfig(
        trace=TraceConfig(warehouses=4, packing="optimized"),
        buffer_mb=16, batches=5, batch_size=20_000)).run()
    print(report.miss_rate("stock"))
"""

from repro.buffer import (
    BufferSimulation,
    MissRateReport,
    SimulationConfig,
    che_miss_rates,
)
from repro.core import (
    HottestFirstPacking,
    NURand,
    SequentialPacking,
    SkewSummary,
    customer_mixture_distribution,
    exact_pmf,
    item_id_distribution,
    lorenz_curve,
    nurand,
    page_access_distribution,
)
from repro.distributed import (
    DistributedThroughputModel,
    RemoteCallExpectations,
    scaleup_curve,
)
from repro.driver import (
    BenchmarkSpec,
    DriverReport,
    run_benchmark,
    validate_against_mva,
)
from repro.exec import (
    ExecutionEngine,
    RunContext,
    RunRequest,
    SweepSpec,
    WorkUnit,
    execute,
)
from repro.experiments import ExperimentResult, Preset, run_experiment
from repro.throughput import (
    AnalyticMissRateProvider,
    CostParameters,
    MissRateInputs,
    ThroughputModel,
    price_performance_sweep,
)
from repro.workload import (
    DEFAULT_MIX,
    InputGenerator,
    TraceConfig,
    TraceGenerator,
    TransactionMix,
    TransactionType,
)

__version__ = "1.6.0"

__all__ = [
    "AnalyticMissRateProvider",
    "BenchmarkSpec",
    "BufferSimulation",
    "CostParameters",
    "DEFAULT_MIX",
    "DistributedThroughputModel",
    "DriverReport",
    "ExecutionEngine",
    "ExperimentResult",
    "HottestFirstPacking",
    "InputGenerator",
    "MissRateInputs",
    "MissRateReport",
    "NURand",
    "Preset",
    "RemoteCallExpectations",
    "RunContext",
    "RunRequest",
    "SequentialPacking",
    "SimulationConfig",
    "SkewSummary",
    "SweepSpec",
    "ThroughputModel",
    "TraceConfig",
    "WorkUnit",
    "TraceGenerator",
    "TransactionMix",
    "TransactionType",
    "che_miss_rates",
    "customer_mixture_distribution",
    "exact_pmf",
    "execute",
    "item_id_distribution",
    "lorenz_curve",
    "nurand",
    "page_access_distribution",
    "price_performance_sweep",
    "run_benchmark",
    "run_experiment",
    "scaleup_curve",
    "validate_against_mva",
    "__version__",
]

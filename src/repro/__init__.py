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
  that engine in deterministic virtual time, validated against the
  exact MVA solution;
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

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.buffer.analytic import che_miss_rates as che_miss_rates
    from repro.buffer.simulator import BufferSimulation as BufferSimulation
    from repro.buffer.simulator import MissRateReport as MissRateReport
    from repro.buffer.simulator import SimulationConfig as SimulationConfig
    from repro.core.mapping import page_access_distribution as page_access_distribution
    from repro.core.nurand import NURand as NURand
    from repro.core.nurand import customer_mixture_distribution as customer_mixture_distribution
    from repro.core.nurand import exact_pmf as exact_pmf
    from repro.core.nurand import item_id_distribution as item_id_distribution
    from repro.core.nurand import nurand as nurand
    from repro.core.packing import HottestFirstPacking as HottestFirstPacking
    from repro.core.packing import SequentialPacking as SequentialPacking
    from repro.core.skew import SkewSummary as SkewSummary
    from repro.core.skew import lorenz_curve as lorenz_curve
    from repro.distributed.model import DistributedThroughputModel as DistributedThroughputModel
    from repro.distributed.remote import RemoteCallExpectations as RemoteCallExpectations
    from repro.distributed.scaleup import scaleup_curve as scaleup_curve
    from repro.driver.report import DriverReport as DriverReport
    from repro.driver.runner import run_benchmark as run_benchmark
    from repro.driver.spec import BenchmarkSpec as BenchmarkSpec
    from repro.driver.validate import validate_against_mva as validate_against_mva
    from repro.exec.engine import ExecutionEngine as ExecutionEngine
    from repro.exec.request import RunContext as RunContext
    from repro.exec.request import RunRequest as RunRequest
    from repro.exec.request import execute as execute
    from repro.exec.units import SweepSpec as SweepSpec
    from repro.exec.units import WorkUnit as WorkUnit
    from repro.experiments.runner import ExperimentResult as ExperimentResult
    from repro.experiments.runner import Preset as Preset
    from repro.experiments.runner import run_experiment as run_experiment
    from repro.throughput.model import ThroughputModel as ThroughputModel
    from repro.throughput.params import CostParameters as CostParameters
    from repro.throughput.params import MissRateInputs as MissRateInputs
    from repro.throughput.pricing import AnalyticMissRateProvider as AnalyticMissRateProvider
    from repro.throughput.pricing import price_performance_sweep as price_performance_sweep
    from repro.workload.generator import InputGenerator as InputGenerator
    from repro.workload.mix import DEFAULT_MIX as DEFAULT_MIX
    from repro.workload.mix import TransactionMix as TransactionMix
    from repro.workload.mix import TransactionType as TransactionType
    from repro.workload.trace import TraceConfig as TraceConfig
    from repro.workload.trace import TraceGenerator as TraceGenerator

__version__ = "1.8.0"

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "che_miss_rates": "repro.buffer.analytic",
        "BufferSimulation": "repro.buffer.simulator",
        "MissRateReport": "repro.buffer.simulator",
        "SimulationConfig": "repro.buffer.simulator",
        "page_access_distribution": "repro.core.mapping",
        "NURand": "repro.core.nurand",
        "customer_mixture_distribution": "repro.core.nurand",
        "exact_pmf": "repro.core.nurand",
        "item_id_distribution": "repro.core.nurand",
        "nurand": "repro.core.nurand",
        "HottestFirstPacking": "repro.core.packing",
        "SequentialPacking": "repro.core.packing",
        "SkewSummary": "repro.core.skew",
        "lorenz_curve": "repro.core.skew",
        "DistributedThroughputModel": "repro.distributed.model",
        "RemoteCallExpectations": "repro.distributed.remote",
        "scaleup_curve": "repro.distributed.scaleup",
        "DriverReport": "repro.driver.report",
        "run_benchmark": "repro.driver.runner",
        "BenchmarkSpec": "repro.driver.spec",
        "validate_against_mva": "repro.driver.validate",
        "ExecutionEngine": "repro.exec.engine",
        "RunContext": "repro.exec.request",
        "RunRequest": "repro.exec.request",
        "execute": "repro.exec.request",
        "SweepSpec": "repro.exec.units",
        "WorkUnit": "repro.exec.units",
        "ExperimentResult": "repro.experiments.runner",
        "Preset": "repro.experiments.runner",
        "run_experiment": "repro.experiments.runner",
        "ThroughputModel": "repro.throughput.model",
        "CostParameters": "repro.throughput.params",
        "MissRateInputs": "repro.throughput.params",
        "AnalyticMissRateProvider": "repro.throughput.pricing",
        "price_performance_sweep": "repro.throughput.pricing",
        "InputGenerator": "repro.workload.generator",
        "DEFAULT_MIX": "repro.workload.mix",
        "TransactionMix": "repro.workload.mix",
        "TransactionType": "repro.workload.mix",
        "TraceConfig": "repro.workload.trace",
        "TraceGenerator": "repro.workload.trace",
    },
)
__all__.append("__version__")

"""Reproduction of the paper's figures (3-12) plus Appendix A.3.

Figures are reproduced as data series (rows of the underlying plot).
Each experiment function receives a :class:`~repro.exec.request.
RunContext` whose preset selects the effort: QUICK uses scaled-down
workloads and the analytic miss-rate provider; PAPER runs the paper's
20-warehouse simulation under its 30 x 100k batch-means protocol.

Work units are for simulations: Figure 8's operating points and the
cluster cross-check of Figures 11-12 go through the context's engine
(``--jobs N`` fans them out, ``--cache-dir`` memoizes each on disk).
Figures 9-12 themselves are closed forms — utilisation arithmetic over
Table 4 and Appendix A, about a millisecond a point — and are plain
function calls over a miss-rate provider built once per engine.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from repro.buffer.simulator import (
    MissRateReport,
    SimulationConfig,
    run_simulation_config,
)
from repro.constants import (
    NURAND_A_ITEM,
    ITEMS,
    LARGE_PAGE_SIZE,
    WAREHOUSES_PER_NODE,
)
from repro.core.mapping import page_access_distribution
from repro.core.nurand import (
    closed_form_pmf,
    customer_mixture_distribution,
    exact_pmf,
    item_id_distribution,
    monte_carlo_pmf,
    period_count,
)
from repro.core.packing import HottestFirstPacking, SequentialPacking
from repro.core.skew import SkewSummary, access_share_of_hottest, gini_coefficient
from repro.distributed.scaleup import (
    remote_probability_sensitivity,
    scaleup_curve,
)
from repro.distributed.sharded import run_sharded
from repro.distributed.simulation import DistributedSimConfig
from repro.exec.engine import ExecutionEngine
from repro.exec.units import SweepSpec
from repro.experiments.runner import ExperimentResult, Preset, register
from repro.throughput.model import ThroughputModel
from repro.throughput.params import MissRateInputs
from repro.throughput.pricing import (
    AnalyticMissRateProvider,
    InterpolatingMissRateProvider,
    PriceBook,
    optimal_point,
    price_performance_sweep,
)
from repro.workload.schema import RELATIONS
from repro.workload.trace import TraceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.request import RunContext

# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _series_rows(x_label: str, xs, series: dict[str, np.ndarray | list]) -> list[dict]:
    rows = []
    for index, x in enumerate(xs):
        row: dict[str, object] = {x_label: x}
        for name, values in series.items():
            value = values[index]
            row[name] = round(float(value), 6)
        rows.append(row)
    return rows


def _fig8_settings(preset: Preset) -> dict:
    """Simulation scale per preset for the Figure 8 family."""
    if preset is Preset.QUICK:
        return {
            "warehouses": 4,
            "sizes_mb": [2.0, 4.0, 8.0, 12.0, 16.0, 24.0],
            "batches": 4,
            "batch_size": 15_000,
        }
    return {
        "warehouses": WAREHOUSES_PER_NODE,
        "sizes_mb": [float(mb) for mb in range(4, 260, 4)],
        "batches": 30,
        "batch_size": 100_000,
    }


def sweep_buffer_sizes(
    base: SimulationConfig,
    buffer_sizes_mb: list[float],
    engine: ExecutionEngine | None = None,
    experiment: str = "buffer-sweep",
) -> dict[float, MissRateReport]:
    """Run the same simulation at several buffer sizes (Figure 8 x-axis).

    Each size gets an independent trace (same seed), so curves differ
    only in buffer capacity — which also makes the points independent
    work units (one per size, named ``experiment/packing/<size>MB``):
    pass an :class:`~repro.exec.engine.ExecutionEngine` to fan them out
    over processes and hit its result cache; the default engine runs
    them serially in-process, bit-identical either way.
    """
    spec = SweepSpec.over(
        experiment,
        run_simulation_config,
        (
            (f"{experiment}/{base.trace.packing}/{megabytes:g}MB",
             base.replace(buffer_mb=megabytes))
            for megabytes in buffer_sizes_mb
        ),
    )
    results = (engine or ExecutionEngine()).run_sweep(spec)
    return {
        megabytes: results[unit.unit_id]
        for megabytes, unit in zip(buffer_sizes_mb, spec.units)
    }


def _fig8_sweep(ctx: RunContext, packing: str):
    """Miss-rate sweep for one packing, shared by figs 8, 9, 10.

    One simulation work unit per buffer size, executed through the
    context's engine; results are memoized on the engine so a
    ``run-all`` reuses them across the whole figure family.
    """
    seed = ctx.seed(11)
    memo_key = ("fig8-sweep", ctx.preset, packing, seed)
    cached = ctx.engine.scratch.get(memo_key)
    if cached is not None:
        return cached

    settings = _fig8_settings(ctx.preset)
    base = SimulationConfig(
        trace=TraceConfig(
            warehouses=settings["warehouses"], packing=packing, seed=seed
        ),
        buffer_mb=settings["sizes_mb"][0],
        batches=settings["batches"],
        batch_size=settings["batch_size"],
    )
    reports = sweep_buffer_sizes(
        base, settings["sizes_mb"], ctx.engine, experiment="fig8"
    )
    ctx.engine.scratch[memo_key] = reports
    return reports


def _miss_rate_provider(ctx: RunContext, packing: str):
    """Buffer-size -> MissRateInputs, analytic for QUICK, simulated for PAPER.

    Built once per (preset, packing, seed) per engine and evaluated at
    most once per buffer size: a QUICK point is a Che solve (tens of
    milliseconds) that Figures 9, 10 and 10b would otherwise repeat per
    curve.
    """
    memo_key = ("miss-rate-provider", ctx.preset, packing, ctx.seed(11))
    provider = ctx.engine.scratch.get(memo_key)
    if provider is None:
        if ctx.preset is Preset.QUICK:
            residual = MissRateInputs(
                customer=0.0, item=0.0, stock=0.0, order=0.02, order_line=0.01
            )
            provider = AnalyticMissRateProvider(packing=packing, residual=residual)
        else:
            provider = InterpolatingMissRateProvider.from_reports(
                _fig8_sweep(ctx, packing)
            )
        provider = ctx.engine.scratch[memo_key] = cache(provider)
    return provider


def _reference_miss(ctx: RunContext, packing: str = "optimized") -> MissRateInputs:
    """Miss rates at the paper's 102 MB distributed operating point."""
    return _miss_rate_provider(ctx, packing)(102.0)


# ---------------------------------------------------------------------------
# Figures 3-7: skew analysis.
# ---------------------------------------------------------------------------


@register("fig3")
def fig3(ctx: RunContext) -> ExperimentResult:
    """Figure 3: PMF of the stock/item distribution NU(8191, 1, 100000)."""
    distribution = item_id_distribution()
    pmf = distribution.pmf
    stride = 500
    ids = np.arange(1, ITEMS + 1)[::stride]
    rows = _series_rows("tuple id", ids, {"probability": pmf[::stride]})
    headline = {
        "cycles": float(period_count(NURAND_A_ITEM, 1, ITEMS)),
        "max/min probability ratio": float(pmf.max() / pmf.min()),
    }
    notes = "Exact PMF (the paper estimated it from 10^9 samples)."
    if ctx.preset is not Preset.QUICK:
        sampled = monte_carlo_pmf(
            NURAND_A_ITEM, 1, ITEMS, samples=20_000_000, rng=np.random.default_rng(3)
        )
        headline["monte-carlo TV distance"] = distribution.total_variation_distance(
            sampled
        )
        notes += "  Monte-Carlo cross-check included."
    return ExperimentResult(
        experiment="fig3",
        title="Stock Relation PMF",
        rows=rows,
        headline=headline,
        paper_reference={"cycles": 12},
        notes=notes,
    )


@register("fig4")
def fig4(ctx: RunContext) -> ExperimentResult:
    """Figure 4: the same PMF zoomed to tuples 1..10000 (cycle visible)."""
    pmf = item_id_distribution().pmf[:10_000]
    stride = 50
    ids = np.arange(1, 10_001)[::stride]
    rows = _series_rows("tuple id", ids, {"probability": pmf[::stride]})
    # The PMF is (nearly) periodic with period A + 1 = 8192: correlate
    # the first cycle with the second.
    full = item_id_distribution().pmf
    cycle = NURAND_A_ITEM + 1
    first, second = full[:cycle], full[cycle : 2 * cycle]
    correlation = float(np.corrcoef(first, second)[0, 1])
    return ExperimentResult(
        experiment="fig4",
        title="Stock Relation PMF, tuples 1-10000",
        rows=rows,
        headline={"cycle-to-cycle correlation": correlation},
        paper_reference={"cycle-to-cycle correlation": 1.0},
        notes="Adjacent 8192-tuple cycles are nearly identical.",
    )


@register("fig5")
def fig5(ctx: RunContext) -> ExperimentResult:
    """Figure 5: stock cumulative access vs cumulative data.

    Four curves: tuple level, 4K sequential pages, 8K sequential pages,
    and optimized (hottest-first) packing.
    """
    tuple_level = item_id_distribution()
    tpp_4k = RELATIONS["stock"].tuples_per_page(4096)
    tpp_8k = RELATIONS["stock"].tuples_per_page(LARGE_PAGE_SIZE)
    page_4k = page_access_distribution(
        tuple_level, SequentialPacking(ITEMS, tpp_4k)
    )
    page_8k = page_access_distribution(
        tuple_level, SequentialPacking(ITEMS, tpp_8k)
    )
    optimized = page_access_distribution(
        tuple_level, HottestFirstPacking(ITEMS, tpp_4k, tuple_level)
    )

    fractions = [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 0.80]
    series = {
        "tuple level": [access_share_of_hottest(tuple_level, f) for f in fractions],
        "4K sequential": [access_share_of_hottest(page_4k, f) for f in fractions],
        "8K sequential": [access_share_of_hottest(page_8k, f) for f in fractions],
        "4K optimized": [access_share_of_hottest(optimized, f) for f in fractions],
    }
    rows = _series_rows("hottest data fraction", fractions, series)
    tuple_summary = SkewSummary.of(tuple_level)
    page_summary = SkewSummary.of(page_4k)
    return ExperimentResult(
        experiment="fig5",
        title="Stock Relation cumulative access vs cumulative data",
        rows=rows,
        headline={
            "tuple: hottest 20%": tuple_summary.hottest_20pct,
            "tuple: hottest 10%": tuple_summary.hottest_10pct,
            "tuple: hottest 2%": tuple_summary.hottest_2pct,
            "4K page: hottest 20%": page_summary.hottest_20pct,
            "4K page: hottest 10%": page_summary.hottest_10pct,
            "4K page: hottest 2%": page_summary.hottest_2pct,
            "optimized vs tuple gap": abs(
                access_share_of_hottest(optimized, 0.2)
                - access_share_of_hottest(tuple_level, 0.2)
            ),
        },
        paper_reference={
            "tuple: hottest 20%": 0.84,
            "tuple: hottest 10%": 0.71,
            "tuple: hottest 2%": 0.39,
            "4K page: hottest 20%": 0.75,
            "4K page: hottest 10%": 0.59,
            "4K page: hottest 2%": 0.28,
            "optimized vs tuple gap": 0.0,
        },
        notes=(
            "Optimized packing reproduces the tuple-level curve at the "
            "page level, as the paper observes."
        ),
    )


@register("fig6")
def fig6(ctx: RunContext) -> ExperimentResult:
    """Figure 6: customer relation PMF (by-id / by-name mixture)."""
    distribution = customer_mixture_distribution()
    pmf = distribution.pmf
    stride = 15
    ids = np.arange(1, pmf.size + 1)[::stride]
    rows = _series_rows("customer id", ids, {"probability": pmf[::stride]})
    return ExperimentResult(
        experiment="fig6",
        title="Customer Relation PMF",
        rows=rows,
        headline={
            "by-id mixture weight": 0.4186,
            "max/min probability ratio": float(pmf.max() / pmf.min()),
        },
        paper_reference={"by-id mixture weight": 0.4186},
        notes=(
            "41.86% of customer accesses use NU(1023,1,3000); the rest "
            "split equally over three NU(255) name bands (paper Sec. 3)."
        ),
    )


@register("fig7")
def fig7(ctx: RunContext) -> ExperimentResult:
    """Figure 7: customer cumulative access vs cumulative data."""
    customer = customer_mixture_distribution()
    stock = item_id_distribution()
    tpp = RELATIONS["customer"].tuples_per_page(4096)
    page_seq = page_access_distribution(
        customer, SequentialPacking(customer.size, tpp)
    )
    page_opt = page_access_distribution(
        customer, HottestFirstPacking(customer.size, tpp, customer)
    )
    fractions = [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 0.80]
    series = {
        "tuple level": [access_share_of_hottest(customer, f) for f in fractions],
        "4K sequential": [access_share_of_hottest(page_seq, f) for f in fractions],
        "4K optimized": [access_share_of_hottest(page_opt, f) for f in fractions],
    }
    rows = _series_rows("hottest data fraction", fractions, series)
    return ExperimentResult(
        experiment="fig7",
        title="Customer Relation cumulative access vs cumulative data",
        rows=rows,
        headline={
            "customer gini": gini_coefficient(customer),
            "stock gini": gini_coefficient(stock),
        },
        notes=(
            "The customer relation is considerably less skewed than "
            "stock (paper Sec. 3), visible in the lower Gini."
        ),
    )


# ---------------------------------------------------------------------------
# Figure 8: LRU buffer simulation.
# ---------------------------------------------------------------------------


@register("fig8")
def fig8(ctx: RunContext) -> ExperimentResult:
    """Figure 8: miss rate vs buffer size, sequential vs optimized."""
    sequential = _fig8_sweep(ctx, "sequential")
    optimized = _fig8_sweep(ctx, "optimized")
    sizes = sorted(sequential)
    series: dict[str, list[float]] = {}
    for relation in ("customer", "stock", "item"):
        series[f"{relation} (seq)"] = [
            sequential[size].miss_rate(relation) for size in sizes
        ]
        series[f"{relation} (opt)"] = [
            optimized[size].miss_rate(relation) for size in sizes
        ]
    rows = _series_rows("buffer MB", sizes, series)

    # The headline is keyed by buffer size, never by grid position.
    stock = {size: sequential[size].miss_rate("stock") for size in sizes}
    gaps = {size: stock[size] - optimized[size].miss_rate("stock") for size in sizes}
    relative = {size: gaps[size] / stock[size] for size in sizes}
    widest = max(sizes, key=gaps.__getitem__)
    widest_relative = max(sizes, key=relative.__getitem__)
    at_52 = {"stock miss gap at 52 MB (abs)": gaps[52.0]} if 52.0 in gaps else {}
    ordered = all(
        report[size].miss_rate("customer")
        > report[size].miss_rate("stock")
        > report[size].miss_rate("item")
        for report in (sequential, optimized)
        for size in sizes
    )
    return ExperimentResult(
        experiment="fig8",
        title=(
            f"Customer, Stock, Item miss rates vs buffer size "
            f"({ctx.preset.value} preset, LRU)"
        ),
        rows=rows,
        headline={
            **at_52,
            "stock miss gap max (abs)": gaps[widest],
            "stock miss gap max (abs) at MB": widest,
            "stock miss gap max (rel)": relative[widest_relative],
            "stock miss gap max (rel) at MB": widest_relative,
            "stock miss gap averaged (abs)": float(np.mean(list(gaps.values()))),
            "ordering customer>stock>item at every size": float(ordered),
        },
        paper_reference={
            **dict.fromkeys(at_52, 0.30),
            "stock miss gap averaged (abs)": 0.13,
            "ordering customer>stock>item at every size": 1.0,
        },
        notes=(
            "The paper quotes its gaps for the 20-warehouse database, at "
            "52 MB and averaged over sizes; a grid without a 52 MB point "
            "(QUICK's scaled-down database) reports the maxima and the "
            "average only, which differ in magnitude but not in sign."
        ),
    )


# ---------------------------------------------------------------------------
# Figures 9-10: throughput and price/performance.
# ---------------------------------------------------------------------------


@register("fig9")
def fig9(ctx: RunContext) -> ExperimentResult:
    """Figure 9: maximum New-Order throughput vs buffer size."""
    sizes = [float(mb) for mb in (8, 16, 26, 39, 52, 78, 104, 130, 154, 180, 208)]
    sequential, optimized = (
        np.array(
            [
                ThroughputModel(miss_rates=_miss_rate_provider(ctx, packing)(size))
                .solve()
                .new_order_tpm
                for size in sizes
            ]
        )
        for packing in ("sequential", "optimized")
    )
    improvement = (optimized - sequential) / sequential
    rows = _series_rows(
        "buffer MB",
        sizes,
        {
            "new-order tpm (seq)": sequential,
            "new-order tpm (opt)": optimized,
            "improvement %": 100 * improvement,
        },
    )
    return ExperimentResult(
        experiment="fig9",
        title="Maximum throughput vs buffer size (10 MIPS, 80% CPU)",
        rows=rows,
        headline={
            "max improvement %": float(100 * improvement.max()),
            "mean improvement %": float(100 * improvement.mean()),
        },
        paper_reference={"max improvement %": 2.5, "mean improvement %": 1.0},
        notes=(
            "The paper finds optimized packing buys little raw "
            "throughput (<=2.5%) because the CPU, not the disk, is the "
            "bottleneck at the 80% utilization cap."
        ),
    )


@register("fig10")
def fig10(ctx: RunContext) -> ExperimentResult:
    """Figure 10: $/tpm vs buffer size, with and without storage growth."""
    sizes = [float(mb) for mb in range(8, 260, 8)]
    rows = []
    headline: dict[str, float] = {}
    curves = {}
    for packing in ("sequential", "optimized"):
        provider = _miss_rate_provider(ctx, packing)
        for include_growth in (False, True):
            label = f"{packing}{' +storage' if include_growth else ''}"
            points = price_performance_sweep(
                sizes, provider, include_growth=include_growth
            )
            curves[label] = points
            best = optimal_point(points)
            headline[f"optimum $/tpm ({label})"] = best.cost_per_tpm
            headline[f"optimum MB ({label})"] = best.buffer_mb
    for index, size in enumerate(sizes):
        row: dict[str, object] = {"buffer MB": size}
        for label, points in curves.items():
            row[f"$/tpm ({label})"] = round(points[index].cost_per_tpm, 2)
        rows.append(row)

    no_growth_gain = 1 - (
        headline["optimum $/tpm (optimized)"] / headline["optimum $/tpm (sequential)"]
    )
    growth_gain = 1 - (
        headline["optimum $/tpm (optimized +storage)"]
        / headline["optimum $/tpm (sequential +storage)"]
    )
    headline["opt. packing gain, no storage floor %"] = 100 * no_growth_gain
    headline["opt. packing gain, with storage %"] = 100 * growth_gain
    return ExperimentResult(
        experiment="fig10",
        title="Price/performance vs buffer size",
        rows=rows,
        headline=headline,
        paper_reference={
            "optimum $/tpm (sequential)": 139,
            "optimum $/tpm (optimized)": 107,
            "optimum MB (sequential)": 154,
            "optimum MB (optimized)": 84,
            "optimum $/tpm (sequential +storage)": 167,
            "optimum $/tpm (optimized +storage)": 154,
            "optimum MB (sequential +storage)": 52,
            "optimum MB (optimized +storage)": 26,
            "opt. packing gain, no storage floor %": 30,
            "opt. packing gain, with storage %": 8,
        },
        notes=(
            "$5000 3GB disks, $10000 CPU, $100/MB memory; storage "
            "includes 180 eight-hour days of Order/Order-Line/History "
            "growth when enabled."
        ),
    )


@register("fig10_disk_size")
def fig10_disk_size(ctx: RunContext) -> ExperimentResult:
    """Section 5.2's disk-capacity sensitivity (prose, after Figure 10).

    "Given the rate at which disk size is currently increasing the
    system will become disk bandwidth bound ... rather than storage
    capacity bound"; with a $5000 6 GB disk the paper quotes a 20%
    optimized-packing price/performance gain, and with 12 GB (the whole
    database on one disk) the full 30%.  We sweep the disk capacity and
    report the gain at each size.
    """
    sizes = [float(mb) for mb in range(8, 260, 8)]
    providers = {
        packing: _miss_rate_provider(ctx, packing)
        for packing in ("sequential", "optimized")
    }
    rows = []
    gains = {}
    for capacity_gb in (3.0, 6.0, 12.0, 24.0):
        optima = {}
        for packing, provider in providers.items():
            points = price_performance_sweep(
                sizes,
                provider,
                prices=PriceBook(disk_capacity_gb=capacity_gb),
                include_growth=True,
            )
            optima[packing] = optimal_point(points)
        gain = 1 - optima["optimized"].cost_per_tpm / optima["sequential"].cost_per_tpm
        gains[capacity_gb] = 100 * gain
        rows.append(
            {
                "disk GB": capacity_gb,
                "optimum $/tpm (seq)": round(optima["sequential"].cost_per_tpm, 2),
                "optimum $/tpm (opt)": round(optima["optimized"].cost_per_tpm, 2),
                "packing gain %": round(100 * gain, 2),
            }
        )
    return ExperimentResult(
        experiment="fig10_disk_size",
        title="Price/performance gain of optimized packing vs disk capacity",
        rows=rows,
        headline={
            "gain % at 3 GB": gains[3.0],
            "gain % at 6 GB": gains[6.0],
            "gain % at 12 GB": gains[12.0],
        },
        paper_reference={
            "gain % at 3 GB": 8,
            "gain % at 6 GB": 20,
            "gain % at 12 GB": 30,
        },
        notes=(
            "Bigger disks relax the storage-capacity floor, so the "
            "bandwidth savings of optimized packing translate into fewer "
            "disks and the gain grows — the paper's stated trend."
        ),
    )


# ---------------------------------------------------------------------------
# Figures 11-12: distributed scale-up.
# ---------------------------------------------------------------------------


def _cluster_validation(
    ctx: RunContext, experiment: str, remote_stock_probability: float
) -> dict[str, float]:
    """Sharded cluster-simulation cross-check for the scale-up figures.

    The PAPER preset backs the analytic curves with a real multi-node
    buffer simulation fanned out through the engine
    (:mod:`repro.distributed.sharded`): Theorem 1's unique-site count
    against the empirical one, and the per-node miss-rate-reuse
    assumption against a single-node run — at 128 nodes, past the
    scale the paper could extrapolate to.
    """
    nodes = 128
    config = DistributedSimConfig(
        nodes=nodes,
        trace=TraceConfig(
            warehouses=2,
            seed=ctx.seed(11),
            remote_stock_probability=remote_stock_probability,
        ),
    )
    report = run_sharded(config, ctx.engine, experiment=f"{experiment}-sim")
    single = run_sharded(
        config.replace(nodes=1), ctx.engine, experiment=f"{experiment}-sim"
    )
    return {
        f"sim U_stock @N={nodes}": report.remote.u_stock,
        f"Theorem 1 U_stock @N={nodes}": report.expectations.u_stock,
        f"sim mean stock miss @N={nodes}": report.mean_miss_rate("stock"),
        "single-node stock miss": single.mean_miss_rate("stock"),
    }


@register("fig11")
def fig11(ctx: RunContext) -> ExperimentResult:
    """Figure 11: scale-up with and without Item replication."""
    miss = _reference_miss(ctx)
    node_counts = [1, 2, 5, 10, 15, 20, 25, 30]
    points = scaleup_curve(node_counts, miss)
    rows = [point.as_row() for point in points]
    by_nodes = {point.nodes: point for point in points}
    headline = {
        "replicated efficiency @30": by_nodes[30].replicated_efficiency,
        "replication gain % @2": 100 * by_nodes[2].replication_gain,
        "replication gain % @10": 100 * by_nodes[10].replication_gain,
        "replication gain % @30": 100 * by_nodes[30].replication_gain,
    }
    notes = (
        "Replicated-Item scale-up stays within a few percent of "
        "linear; without replication every New-Order makes "
        "10(N-1)/N remote item calls."
    )
    if ctx.preset is not Preset.QUICK:
        headline.update(_cluster_validation(ctx, "fig11", 0.01))
        notes += (
            "  Headline includes a sharded cluster-simulation "
            "cross-check of Theorem 1 and per-node miss-rate reuse."
        )
    return ExperimentResult(
        experiment="fig11",
        title="Scale-up of TPC-C (102 MB buffer per node)",
        rows=rows,
        headline=headline,
        paper_reference={
            "replicated efficiency @30": 0.97,
            "replication gain % @2": 10,
            "replication gain % @10": 30,
            "replication gain % @30": 39,
        },
        notes=notes,
    )


@register("fig12")
def fig12(ctx: RunContext) -> ExperimentResult:
    """Figure 12: sensitivity to the remote-stock probability."""
    miss = _reference_miss(ctx)
    node_counts = [1, 2, 5, 10, 15, 20, 25, 30]
    probabilities = [0.01, 0.05, 0.10, 0.50, 1.00]
    curves = remote_probability_sensitivity(node_counts, probabilities, miss)
    rows = []
    for index, nodes in enumerate(node_counts):
        row: dict[str, object] = {"nodes": nodes}
        for probability in probabilities:
            row[f"p={probability}"] = round(curves[probability][index][1], 1)
        rows.append(row)
    base = curves[0.01][-1][1]
    worst = curves[1.00][-1][1]
    headline = {"scale-up drop % at p=1.0 (N=30)": 100 * (1 - worst / base)}
    notes = (
        "The benchmark's 1% remote order lines make it distribution-"
        "friendly; at 100% remote the scale-up drops sharply."
    )
    if ctx.preset is not Preset.QUICK:
        headline.update(_cluster_validation(ctx, "fig12", 0.10))
        notes += (
            "  Headline includes a sharded cluster-simulation "
            "cross-check at 10% remote stock."
        )
    return ExperimentResult(
        experiment="fig12",
        title="Scale-up sensitivity to percent remote stock",
        rows=rows,
        headline=headline,
        paper_reference={"scale-up drop % at p=1.0 (N=30)": 44},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Appendix A.3: closed-form PMF.
# ---------------------------------------------------------------------------


@register("appendix_a3")
def appendix_a3(ctx: RunContext) -> ExperimentResult:
    """Appendix A.3: exact periodicity for power-of-two NURand ranges."""
    a_bits, b_bits = 8, 12
    closed = closed_form_pmf(a_bits, b_bits)
    exact = exact_pmf((1 << a_bits) - 1, 0, (1 << b_bits) - 1)
    distance = closed.total_variation_distance(exact)

    pmf = closed.pmf
    period = 1 << a_bits
    periodic = all(
        np.allclose(pmf[:period], pmf[k * period : (k + 1) * period])
        for k in range(1, (1 << b_bits) // period)
    )
    rows = [
        {"check": "closed form == exact PMF (TV distance)", "value": distance},
        {"check": f"exact periodicity with period {period}", "value": periodic},
    ]
    return ExperimentResult(
        experiment="appendix_a3",
        title="Closed-form NURand PMF for power-of-two ranges",
        rows=rows,
        headline={"TV distance": distance, "periodic": float(periodic)},
        paper_reference={"TV distance": 0.0, "periodic": 1.0},
    )

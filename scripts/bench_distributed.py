#!/usr/bin/env python3
"""Benchmark the sharded distributed simulation against the monolithic path.

Usage::

    PYTHONPATH=src python scripts/bench_distributed.py                # paper scale
    PYTHONPATH=src python scripts/bench_distributed.py --scale smoke  # CI smoke
    PYTHONPATH=src python scripts/bench_distributed.py --jobs 8 -o BENCH_distributed.json

Models the cluster-sweep workflow the sharding exists for: a
remote-stock-probability sweep at cluster scale is run once, then
*extended* by one more sweep point — the iterative-research loop.  The
monolithic path (``DistributedBufferSimulation``) recomputes every node
of every point each time; the sharded path
(``repro.distributed.sharded``) fans per-node work units through the
``ExecutionEngine`` and its content-addressed cache, so extending the
sweep only computes the new point's node shards.

Three walls are measured (interleaved best-of-N):

* ``monolithic`` — the serial sweep, per point and summed.
* ``sharded_cold`` — the sharded sweep from an empty cache with
  ``--jobs`` workers.  Its ratio to monolithic is the process-pool
  speedup and depends on the machine's core count (recorded).
* ``sharded_extension`` — completing the extended sweep from the cold
  run's cache: only the new point's nodes execute.  Its ratio to the
  monolithic extended sweep is the headline ``speedup.sweep`` — it
  measures the per-node cache design, so it is stable across machines
  (and is what ``--min-speedup`` gates).

Every sharded report is checked bit-identical to its monolithic
counterpart, and the cluster-scale empirical remote-call statistics
(RC_stock, L_stock, Theorem 1's U_stock) are validated against the
Appendix A closed forms at every sweep point.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.distributed.sharded import run_sharded
from repro.distributed.simulation import (
    DistributedBufferSimulation,
    DistributedSimConfig,
)
from repro.exec.engine import ExecutionEngine
from repro.workload.trace import TraceConfig

#: Benchmark scales: a 128-node cluster at the trace generator's paper
#: reference volumes, and a reduced configuration for CI smoke runs.
SCALES = {
    "paper": dict(
        nodes=128,
        warehouses=2,
        transactions_per_node=2_000,
        warmup_transactions_per_node=400,
        probabilities=[0.01, 0.05, 0.10, 0.20, 0.50],
        extension=1.00,
        jobs=8,
        shards=8,
    ),
    "smoke": dict(
        nodes=16,
        warehouses=1,
        transactions_per_node=500,
        warmup_transactions_per_node=100,
        probabilities=[0.05, 0.10, 0.50],
        extension=1.00,
        jobs=1,
        shards=None,
    ),
}

#: Appendix-A agreement tolerances at cluster scale (the per-quantity
#: standard errors are well under these at every configured scale).
RC_STOCK_REL = 0.05
L_STOCK_ABS = 0.02
U_STOCK_REL = 0.05


def build_config(scale: str, probability: float) -> DistributedSimConfig:
    params = SCALES[scale]
    return DistributedSimConfig(
        nodes=params["nodes"],
        trace=TraceConfig(
            warehouses=params["warehouses"],
            seed=11,
            remote_stock_probability=probability,
        ),
        transactions_per_node=params["transactions_per_node"],
        warmup_transactions_per_node=params["warmup_transactions_per_node"],
        # Group nodes into jobs-sized shard units: per-unit dispatch
        # overhead amortizes over the group while the runner's back-fill
        # keeps the cache per-node (fingerprint-invariant to this knob).
        shards=params["shards"],
    )


def reports_match(a, b) -> bool:
    """Bit-identity modulo the layout config field (shards)."""
    return dataclasses.replace(a, config=b.config) == b


def timed_monolithic(config: DistributedSimConfig):
    gc.collect()
    start = time.perf_counter()
    report = DistributedBufferSimulation(config).run()
    return time.perf_counter() - start, report


def timed_sharded(configs, jobs: int, cache_dir: Path):
    """One sharded sweep over ``configs`` through a fresh engine."""
    gc.collect()
    start = time.perf_counter()
    engine = ExecutionEngine(jobs=jobs, cache_dir=cache_dir)
    try:
        reports = [run_sharded(config, engine) for config in configs]
    finally:
        engine.close()
    return time.perf_counter() - start, reports


def check_appendix_a(report) -> list[str]:
    """Deviations of the empirical remote statistics from Appendix A."""
    problems = []
    remote, expected = report.remote, report.expectations
    if expected.rc_stock > 0 and abs(
        remote.rc_stock - expected.rc_stock
    ) > RC_STOCK_REL * expected.rc_stock:
        problems.append(
            f"RC_stock {remote.rc_stock:.4f} vs {expected.rc_stock:.4f}"
        )
    if abs(remote.l_stock - expected.l_stock) > L_STOCK_ABS:
        problems.append(
            f"L_stock {remote.l_stock:.4f} vs {expected.l_stock:.4f}"
        )
    if expected.u_stock > 0 and abs(
        remote.u_stock - expected.u_stock
    ) > U_STOCK_REL * expected.u_stock:
        problems.append(
            f"U_stock {remote.u_stock:.4f} vs {expected.u_stock:.4f}"
        )
    return problems


def run_benchmark(scale: str, repeats: int, jobs: int, workdir: Path) -> dict:
    params = SCALES[scale]
    probabilities = list(params["probabilities"])
    extended = probabilities + [params["extension"]]
    base_configs = [build_config(scale, p) for p in probabilities]
    ext_configs = [build_config(scale, p) for p in extended]

    mono_best = {p: float("inf") for p in extended}
    mono_reports = {}
    cold_best = float("inf")
    ext_best = float("inf")
    sharded_reports = None
    base_cache = workdir / "cache-base"

    for round_index in range(repeats):
        for probability, config in zip(extended, ext_configs):
            seconds, report = timed_monolithic(config)
            mono_best[probability] = min(mono_best[probability], seconds)
            mono_reports[probability] = report
        mono_round = sum(mono_best[p] for p in extended)
        print(
            f"round {round_index + 1}/{repeats}: monolithic "
            f"{mono_round:7.2f}s ({len(extended)} sweep points)"
        )

        cold_cache = workdir / f"cache-cold-{round_index}"
        seconds, cold_reports = timed_sharded(base_configs, jobs, cold_cache)
        cold_best = min(cold_best, seconds)
        print(f"round {round_index + 1}/{repeats}: sharded cold   {seconds:7.2f}s")
        if round_index == 0:
            # Deterministic + content-addressed: every round's cache is
            # identical, so round 0's serves as the warm base.
            shutil.copytree(cold_cache, base_cache)
        shutil.rmtree(cold_cache)

        ext_cache = workdir / f"cache-ext-{round_index}"
        shutil.copytree(base_cache, ext_cache)
        seconds, sharded_reports = timed_sharded(ext_configs, jobs, ext_cache)
        ext_best = min(ext_best, seconds)
        print(f"round {round_index + 1}/{repeats}: sharded extend {seconds:7.2f}s")
        shutil.rmtree(ext_cache)

        for probability, sharded in zip(extended, sharded_reports):
            if not reports_match(sharded, mono_reports[probability]):
                raise SystemExit(
                    f"FATAL: sharded report at p={probability} differs "
                    "from the monolithic run — no bit-identity"
                )
        assert cold_reports is not None  # parity covered via ext_configs prefix

    theorem_rows = []
    for probability in extended:
        report = mono_reports[probability]
        problems = check_appendix_a(report)
        if problems:
            raise SystemExit(
                f"FATAL: Appendix A deviation at p={probability}: "
                + "; ".join(problems)
            )
        theorem_rows.append(
            {
                "remote_stock_probability": probability,
                "rc_stock": {
                    "simulated": round(report.remote.rc_stock, 5),
                    "analytic": round(report.expectations.rc_stock, 5),
                },
                "l_stock": {
                    "simulated": round(report.remote.l_stock, 5),
                    "analytic": round(report.expectations.l_stock, 5),
                },
                "u_stock_theorem1": {
                    "simulated": round(report.remote.u_stock, 5),
                    "analytic": round(report.expectations.u_stock, 5),
                },
                "mean_stock_miss": round(
                    report.mean_miss_rate("stock"), 5
                ),
                "max_node_spread_stock": round(
                    report.max_node_spread("stock"), 5
                ),
            }
        )

    cpus = os.cpu_count()
    mono_base = sum(mono_best[p] for p in probabilities)
    mono_ext = sum(mono_best[p] for p in extended)
    return {
        "benchmark": (
            "distributed buffer simulation: sharded engine sweep vs "
            "monolithic serial sweep"
        ),
        "scale": scale,
        "config": {
            "nodes": params["nodes"],
            "warehouses_per_node": params["warehouses"],
            "transactions_per_node": params["transactions_per_node"],
            "warmup_transactions_per_node": params[
                "warmup_transactions_per_node"
            ],
            "policy": base_configs[0].policy,
            "kernel": "array",
            "shards": params["shards"],
            "seed": base_configs[0].trace.seed,
            "sweep_probabilities": probabilities,
            "extension_probability": params["extension"],
        },
        "jobs": jobs,
        "repeats": repeats,
        "timing_method": "interleaved best-of-N wall clock",
        "parity": "sharded reports bit-identical to monolithic at every point",
        "walls": {
            "monolithic_per_point": {
                str(p): round(mono_best[p], 3) for p in extended
            },
            "monolithic_base_sweep": round(mono_base, 3),
            "monolithic_extended_sweep": round(mono_ext, 3),
            "sharded_cold_base_sweep": round(cold_best, 3),
            "sharded_extension": round(ext_best, 3),
        },
        "speedup": {
            # Headline: extending an already-run sweep by one point.
            # The monolithic path recomputes every node of every point;
            # the sharded path serves the cached node shards and only
            # computes the new point — machine-independent by design.
            "sweep": round(mono_ext / ext_best, 2),
            # Cold fan-out ratio; scales with the core count below.
            "parallel_cold": round(mono_base / cold_best, 2),
        },
        "appendix_a_validation": {
            "tolerances": {
                "rc_stock_rel": RC_STOCK_REL,
                "l_stock_abs": L_STOCK_ABS,
                "u_stock_rel": U_STOCK_REL,
            },
            "points": theorem_rows,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": cpus,
        },
        "notes": [
            f"speedup.parallel_cold: {jobs} workers on {cpus} cpus can gain "
            f"at most {min(jobs, cpus or 1)}x, and the cold sharded sweep "
            "also pays worker start-up, per-unit dispatch and one cache "
            "write per node that the monolithic sweep does not; on one "
            "core it is therefore below 1. speedup.sweep (cache reuse) is "
            "the machine-independent figure and the one that is gated."
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="paper",
        help="benchmark size (default: paper — 128 nodes, 2.4k tx/node)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="interleaved rounds; best wall time wins (default: 1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sharded runs "
        "(default: the scale's setting)",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_distributed.json",
        help="output JSON path (default: BENCH_distributed.json)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero when the sweep speedup falls below this",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    jobs = args.jobs if args.jobs is not None else SCALES[args.scale]["jobs"]
    if jobs < 1:
        parser.error("--jobs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="bench-distributed-") as workdir:
        document = run_benchmark(args.scale, args.repeats, jobs, Path(workdir))
    Path(args.output).write_text(json.dumps(document, indent=2) + "\n")

    walls = document["walls"]
    speedup = document["speedup"]
    print(
        f"\nmonolithic extended sweep {walls['monolithic_extended_sweep']}s, "
        f"sharded extension {walls['sharded_extension']}s -> "
        f"sweep speedup {speedup['sweep']}x "
        f"(cold parallel {speedup['parallel_cold']}x on "
        f"{document['environment']['cpus']} cpus)"
    )
    print(f"wrote {args.output}")
    if args.min_speedup is not None and speedup["sweep"] < args.min_speedup:
        print(
            f"FAIL: sweep speedup {speedup['sweep']}x "
            f"< required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Turning child-process samples into metrics, and comparing two result sets.

One *run* of a workload is several child processes that all execute the
same seeded inputs.  A metric's value is a median over them; its lower
and upper quartile and the number of samples are kept beside it.  The
regression bounds used by ``--selfcheck`` and ``--compare`` are the ones
``BENCHMARK.json`` declares, so there is one place to change them.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Percentiles a latency may be reported at, highest first.
PERCENTILES = (0.99, 0.95, 0.90, 0.75, 0.50)
#: Samples required beyond a percentile before it is reported.
BEYOND = 10


def declaration() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile, the rule ``repro.driver.report`` uses."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def supported_percentile(samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for fraction in PERCENTILES:
        if samples * (1.0 - fraction) >= BEYOND:
            return fraction
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, middle, upper = statistics.quantiles(values, n=4)
    return lower, middle, upper


def summarize(values: list[float], unit: str) -> dict:
    lower, _, upper = quartiles(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": lower,
        "q3": upper,
        "n": len(values),
    }


def end_to_end(children: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of one run, from its untraced children.

    Times are host seconds (see :mod:`hostspeed`).  Throughput takes the
    median time of each lap across children before summing: a stall of
    the shared box then spoils one sample of one lap, not a whole child.
    """
    laps = list(zip(*(child["laps"] for child in children)))
    work = sum(lap[0][1] for lap in laps)
    seconds = sum(statistics.median(sample[3] for sample in lap) for lap in laps)
    per_child = [
        sum(lap[1] for lap in child["laps"]) / sum(lap[3] for lap in child["laps"])
        for child in children
    ]
    throughput = summarize(per_child, "1/s")
    throughput["value"] = work / seconds
    throughput["raw"] = work / sum(
        statistics.median(sample[2] for sample in lap) for lap in laps
    )
    setup = summarize([child["setup_s"] for child in children], "s")
    setup["raw"] = statistics.median(child["setup_raw_s"] for child in children)
    return {
        "setup_s": setup,
        "work_per_s": throughput,
        "peak_rss_mb": summarize([child["rss_mb"] for child in children], "MB"),
    }


def timed_seconds(children: list[dict]) -> float:
    """Raw seconds of timed region measured so far."""
    return sum(lap[2] for child in children for lap in child["laps"])


def latency_metrics(children: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-type latency percentiles of engine-mix, pooled over children."""
    pooled: dict[str, list[float]] = {}
    for child in children:
        for name, values in child.get("latencies_ms", {}).items():
            pooled.setdefault(name, []).extend(values)
    metrics: dict[str, float] = {}
    notes = []
    for name, values in pooled.items():
        values.sort()
        tail = 0.99 if name in ("new_order", "payment") else 0.90
        metrics[f"tpcc.{name}_p50_ms"] = percentile(values, 0.50)
        metrics[f"tpcc.{name}_p{round(tail * 100)}_ms"] = percentile(values, tail)
        supported = supported_percentile(len(values))
        if supported is None or supported < tail:
            notes.append(
                f"{name}: {len(values)} samples do not support p{round(tail * 100)}"
            )
    if pooled:
        metrics["tpcc.latency_samples"] = min(len(v) for v in pooled.values())
    return metrics, notes


def environment(seed: int, repeats: int | None) -> dict:
    """Where and on what the numbers were taken."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "load_1min": os.getloadavg()[0],
        "commit": commit,
        "seed": seed,
        "repeats": repeats,
    }


# -- comparing two result sets -------------------------------------------------


def compare(first: dict, second: dict) -> tuple[list[str], bool]:
    """Rows comparing ``second`` against ``first``; and whether all is within bounds.

    A pair whose own inter-quartile range is wider than the bound cannot
    tell a regression from noise and is reported as ``unresolved``, never
    as unchanged.  Counts must repeat exactly.
    """
    metrics = {m["name"]: m for m in declaration()["end_to_end"]}
    rows = [
        f"{'workload':<17} {'metric':<12} {'first':>12} {'iqr':>7} "
        f"{'second':>12} {'iqr':>7} {'worse by':>9} {'bound':>6}  verdict"
    ]
    ok = True
    for workload, a in first["workloads"].items():
        b = second["workloads"].get(workload)
        if b is None:
            continue
        for name, metric in metrics.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (y["value"] - x["value"]) / x["value"]
            iqr_x = (x["q3"] - x["q1"]) / x["value"]
            iqr_y = (y["q3"] - y["q1"]) / y["value"]
            if worse > metric["bound"]:
                verdict = "WORSE"
                ok = False
            elif max(iqr_x, iqr_y) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            rows.append(
                f"{workload:<17} {name:<12} {x['value']:>12.4f} {iqr_x:>7.1%} "
                f"{y['value']:>12.4f} {iqr_y:>7.1%} {worse:>+9.1%} "
                f"{metric['bound']:>6.0%}  {verdict}"
            )
        if a.get("failed") != b.get("failed"):
            ok = False
            rows.append(f"{workload:<17} failed operations: {a['failed']} vs {b['failed']}")
        if a.get("counts") != b.get("counts"):
            if first["environment"]["seed"] == second["environment"]["seed"]:
                ok = False
                rows.append(f"{workload:<17} counts differ between the two sets")
        else:
            rows.append(f"{workload:<17} counts repeat exactly")
    return rows, ok

#!/usr/bin/env python3
"""Parallel, cached experiment execution through the run-request API.

A :class:`repro.RunRequest` carries everything needed to run one
experiment — id, preset, worker count, cache directory — and
:func:`repro.execute` runs it.  This example regenerates Figure 8 twice
with an on-disk cache: the first pass simulates every sweep point (in
parallel when ``--jobs > 1``), the second is served entirely from the
cache.

Usage::

    python examples/parallel_sweep.py
    python examples/parallel_sweep.py --jobs 4 --preset paper
"""

import argparse
import tempfile
import time
from pathlib import Path

from repro import RunRequest, execute
from repro.exec import build_engine


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="fig8")
    parser.add_argument("--preset", choices=["quick", "paper"], default="quick")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--cache-dir", default=None, help="default: a fresh temp directory"
    )
    return parser.parse_args()


def run_once(request: RunRequest) -> float:
    """Execute a request, print its manifest summary, return wall time."""
    engine = build_engine(request)
    started = time.perf_counter()
    try:
        result = execute(request, engine=engine)
    finally:
        elapsed = time.perf_counter() - started
        print(f"  {engine.manifest().summary()}")
        engine.close()
    print(f"  {len(result.rows)} result rows in {elapsed:.2f}s")
    return elapsed


def main() -> None:
    args = parse_args()
    cache_dir = Path(
        args.cache_dir or tempfile.mkdtemp(prefix="repro-cache-")
    )
    request = RunRequest(
        experiment=args.experiment,
        preset=args.preset,
        jobs=args.jobs,
        cache_dir=cache_dir,
    )
    print(f"cold run ({args.experiment}, {args.preset}, jobs={args.jobs}):")
    cold = run_once(request)
    print(f"warm run (cache at {cache_dir}):")
    warm = run_once(request)
    if warm:
        print(f"\ncache served the sweep {cold / warm:.0f}x faster")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads.

As ``BENCHMARK.json`` runs it (one workload, one JSON object on the last
line of standard output)::

    python3 perf/run.py --workload fig8-sweep --seed 11 --seconds 8 --trace 0
    python3 perf/run.py --workload fig8-sweep --seed 11 --seconds 8 --trace 1

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  Without ``--workload`` it runs all five, both ways, prints
every metric by name with its unit, and with ``--out DIR`` writes
``results.json``, ``layers.json`` and one ``trace-<workload>.jsonl``::

    python3 perf/run.py --out perf/out            # about three minutes
    python3 perf/run.py --quick                   # every check, 1/20 of the work
    python3 perf/run.py --selfcheck               # two sets of the same code
    python3 perf/run.py --compare A.json B.json   # two results.json files
    python3 perf/run.py --write-expected          # benchmark changes only

A run of a workload is a series of child processes, each of which sets
up from nothing, executes the same seeded inputs once, and checks its
outputs; see ``perf/README.md``.  The exit code is non-zero when any
operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402  (perf/ is not a package: run.py is the entry point)

WORKLOADS = ("fig8-sweep", "policy-matrix", "dist-cluster", "engine-mix", "driver-contended")
#: Children per run: at least this many, then until ``--seconds`` is measured.
MIN_CHILDREN = 3
#: Untraced children of a traced run: the reference the traced child is
#: compared with, and enough engine-mix samples for a p99.
REFERENCE_CHILDREN = 2
CHILD_TIMEOUT_S = 170
#: What a child does: the benchmark proper; the traced run (smaller where
#: a hot function is wrapped); the traced run's shape with tracing off.
UNTRACED, TRACED, REFERENCE = 0, 1, 2
QUICK_SCALE = 0.05


class ChildFailed(RuntimeError):
    """A child process ended without a result (it could not run at all)."""


# -- the child process ---------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Set up, run the timed region once, check, print one JSON object."""
    from hostspeed import (
        REFERENCE_S,
        HostClock,
        reference_seconds,
        settle_on_fastest_core,
    )

    settle_on_fastest_core()
    kernel_s = reference_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS as classes, finish_layers

    tracer = None
    if args.trace == TRACED:
        from layers import TARGETS
        from spans import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    workload = classes[args.workload](
        args.seed, args.scale, tracer, reduced=args.trace != UNTRACED
    )
    workload.setup()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    setup_raw_s = time.time() - args.spawned_at
    kernel_s = (kernel_s + reference_seconds()) / 2
    workload.clock = HostClock()
    workload.run()
    if tracer is not None:
        tracer.uninstall()
        finish_layers(workload)
    workload.check()
    if tracer is not None:
        workload.extras()
        if args.out:
            tracer.write_jsonl(Path(args.out) / f"trace-{args.workload}.jsonl")
    print(
        json.dumps(
            {
                "setup_s": setup_raw_s * REFERENCE_S / kernel_s,
                "setup_raw_s": setup_raw_s,
                "laps": workload.laps,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "errors": workload.errors,
                "checks": workload.checks,
                "check_failures": workload.check_failures,
                "counts": workload.counts,
                "latencies_ms": workload.latencies_ms,
                "layers": workload.layers,
                "absent": tracer.absent if tracer is not None else [],
                "notes": workload.notes,
                "work_unit": workload.work_unit,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    )
    return 0


# -- the parent: one run of one workload ---------------------------------------


def spawn(workload: str, seed: int, scale: float, mode: int, out: str | None = None) -> dict:
    """Run one child to completion and return what it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", str(mode), "--spawned-at", repr(time.time()),
    ]
    if out:
        command += ["--out", out]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def problems(children: list[dict]) -> list[str]:
    """Everything that makes a run incorrect, as messages."""
    found = []
    for child in children:
        found += child["check_failures"]
        found += [error.strip().splitlines()[-1] for error in child["errors"]]
    if any(child["counts"] != children[0]["counts"] for child in children):
        found.append("counts differ between children that ran the same inputs")
    return found


def measure(workloads, seed: int, scale: float, seconds: float, repeats: int | None):
    """Untraced children for each workload, interleaved round-robin.

    Interleaving makes a slow phase of the shared box cost one child of
    each workload, not every child of one.  Without ``repeats`` a
    workload keeps getting children until ``seconds`` of timed region
    have been measured for it.
    """
    children: dict[str, list[dict]] = {name: [] for name in workloads}

    def wanted(name: str) -> bool:
        if repeats is not None:
            return len(children[name]) < repeats
        return (
            len(children[name]) < MIN_CHILDREN
            or report.timed_seconds(children[name]) < seconds
        )

    while any(wanted(name) for name in workloads):
        for name in workloads:
            if wanted(name):
                children[name].append(spawn(name, seed, scale, UNTRACED))
    return children


def verdict(children: list[dict], found: list[str]) -> dict:
    """The part of a result that says whether the run can be trusted."""
    failed = sum(child["failed"] for child in children)
    return {
        "correct": not found and not failed,
        "attempted": sum(child["attempted"] for child in children),
        "failed": failed,
        "problems": found,
    }


def end_to_end_result(children: list[dict]) -> dict:
    return {
        **verdict(children, problems(children)),
        "end_to_end": report.end_to_end(children),
        "counts": children[0]["counts"],
        "work_unit": children[0]["work_unit"],
    }


def per_layer_result(
    workload: str, seed: int, scale: float, out: str | None, references: int = REFERENCE_CHILDREN
) -> dict:
    """The traced run: reference children with tracing off, then one traced."""
    reference = [spawn(workload, seed, scale, REFERENCE) for _ in range(references)]
    traced = spawn(workload, seed, scale, TRACED, out)
    latencies, notes = report.latency_metrics(reference)
    declared = [metric["name"] for metric in report.declaration()["per_layer"]]
    values = {name: 0.0 for name in declared}
    values.update({k: v for k, v in traced["layers"].items() if k in values})
    values.update(latencies)
    # Same inputs with and without wrappers: the ratio is their cost.
    untraced = report.end_to_end(reference)["work_per_s"]["value"]
    work = sum(lap[1] for lap in traced["laps"])
    if work:
        values["trace.overhead_ratio"] = report.timed_seconds([traced]) / (work / untraced)
    return {
        **verdict(reference + [traced], problems(reference) + problems([traced])),
        "per_layer": values,
        "absent": traced["absent"],
        "notes": notes + traced["notes"],
    }


def contract_line(result: dict, key: str, units: dict[str, str]) -> str:
    """The last line of standard output that ``BENCHMARK.json`` promises."""
    metrics = {
        name: {"value": value["value"] if isinstance(value, dict) else value,
               "unit": units[name]}
        for name, value in result[key].items()
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_one(args: argparse.Namespace) -> int:
    declared = report.declaration()
    if args.trace:
        result = per_layer_result(args.workload, args.seed, args.scale, args.out)
        key, section = "per_layer", declared["per_layer"]
    else:
        children = measure([args.workload], args.seed, args.scale, args.seconds, args.repeats)
        result = end_to_end_result(children[args.workload])
        key, section = "end_to_end", declared["end_to_end"]
    for message in result["problems"]:
        print(f"FAILED {args.workload}: {message}", file=sys.stderr)
    print(contract_line(result, key, {m["name"]: m["unit"] for m in section}))
    return 0 if result["correct"] else 1


# -- the parent: all five workloads --------------------------------------------


def run_suite(args: argparse.Namespace, traced: bool = True) -> tuple[dict, dict, bool]:
    """Every workload end to end, then (optionally) one traced run each."""
    repeats = 1 if args.quick and args.repeats is None else args.repeats
    children = measure(WORKLOADS, args.seed, args.scale, args.seconds, repeats)
    results = {
        "environment": report.environment(args.seed, repeats),
        "scale": args.scale,
        "workloads": {name: end_to_end_result(children[name]) for name in WORKLOADS},
    }
    layers = {"environment": results["environment"], "scale": args.scale, "workloads": {}}
    if traced:
        for name in WORKLOADS:
            layers["workloads"][name] = per_layer_result(
                name, args.seed, args.scale, args.out, 1 if args.quick else REFERENCE_CHILDREN
            )
    ok = all(
        entry["correct"]
        for document in (results, layers)
        for entry in document["workloads"].values()
    )
    return results, layers, ok


def print_suite(results: dict, layers: dict) -> None:
    declared = report.declaration()
    print(f"environment: {json.dumps(results['environment'])}")
    print(f"\n{'workload':<17} {'metric':<12} {'median':>14} {'unit':<5} "
          f"{'q1':>14} {'q3':>14} {'n':>3}")
    for name, entry in results["workloads"].items():
        for metric in declared["end_to_end"]:
            value = entry["end_to_end"][metric["name"]]
            print(f"{name:<17} {metric['name']:<12} {value['value']:>14.4f} "
                  f"{value['unit']:<5} {value['q1']:>14.4f} {value['q3']:>14.4f} "
                  f"{value['n']:>3}")
        print(f"{name:<17} {'failed':<12} {entry['failed']:>14} of {entry['attempted']} "
              f"operations; work is counted in {entry['work_unit']}")
    for name, entry in layers["workloads"].items():
        print(f"\nper-layer, {name} (traced run):")
        for note in entry["notes"]:
            print(f"  note: {note}")
        if entry["absent"]:
            print(f"  absent targets: {', '.join(entry['absent'])}")
        for metric in declared["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            if value:
                print(f"  {metric['name']:<36} {value:>16.6f} {metric['unit']}")
    for document in (results, layers):
        for name, entry in document["workloads"].items():
            for message in entry["problems"]:
                print(f"FAILED {name}: {message}")


def write_json(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11, help="feeds the generated inputs only")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="timed region to measure per workload and run")
    parser.add_argument("--trace", type=int, choices=(UNTRACED, TRACED, REFERENCE), default=0,
                        metavar="{0,1}",
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--repeats", type=int, help="children per workload, instead of --seconds")
    parser.add_argument("--out", help="directory for results.json, layers.json and traces")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="every workload and check at 1/20 of the work, one child each")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of runs of the same code must agree within the bounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate perf/expected/*.json (benchmark changes only)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = QUICK_SCALE
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)

    if args.child:
        return child_main(args)
    try:
        if args.compare:
            first, second = (json.loads(Path(p).read_text()) for p in args.compare)
            rows, ok = report.compare(first, second)
            print("\n".join(rows))
            return 0 if ok else 1
        if args.write_expected:
            for name in ("fig8-sweep", "policy-matrix"):
                child = spawn(name, 11, 1.0, UNTRACED)
                write_json(HERE / "expected" / f"{name}.seed11.json", child["counts"])
            return 0
        if args.selfcheck:
            first, _, ok_first = run_suite(args, traced=False)
            second, _, ok_second = run_suite(args, traced=False)
            rows, ok = report.compare(first, second)
            print(f"environment: {json.dumps(first['environment'])}")
            print("\n".join(rows))
            return 0 if ok and ok_first and ok_second else 1
        if args.workload:
            return run_one(args)
        results, layers, ok = run_suite(args)
        print_suite(results, layers)
        if args.out:
            write_json(Path(args.out) / "results.json", results)
            write_json(Path(args.out) / "layers.json", layers)
        return 0 if ok else 1
    except ChildFailed as failure:
        print(f"benchmark could not run: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

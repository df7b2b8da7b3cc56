"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro list                       # all experiment ids
    python -m repro run fig5                   # regenerate an artifact
    python -m repro run fig8 --preset paper    # the paper's protocol
    python -m repro run fig8 --jobs 4 --cache-dir ~/.repro-cache
    python -m repro run fig8 --metrics out.json --trace trace.jsonl
    python -m repro run-all --preset quick     # every table and figure
    python -m repro stats out.json             # pretty-print a snapshot
    python -m repro skew                       # Section 3 headline numbers
    python -m repro throughput --buffer-mb 52  # Section 5 at one point
    python -m repro bench --terminals 200      # concurrent TPC-C driver
    python -m repro bench --validate --terminal-counts 1,8,32,128
    python -m repro lint                       # reprolint over src/repro
    python -m repro lint --format json path/   # machine-readable findings

Simulation-backed experiments decompose into independent work units;
``--jobs N`` fans them out over N worker processes, ``--cache-dir``
memoizes unit results on disk (keyed by config + package version), and
``--manifest`` writes a JSON run manifest with per-unit timings and
cache-hit counts.

Observability is observe-only: ``--metrics`` collects a metrics
snapshot (written to a file, or printed with ``-``), ``--trace``
records a JSONL span/event trace, and ``--profile`` runs cProfile over
each work unit — none of them change experiment outputs or cache keys.

Every subcommand accepts ``--format {text,json}``; all output is
routed through one rendering helper so the JSON mode emits exactly one
document on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Leutenegger & Dias, 'A Modeling Study of the "
            "TPC-C Benchmark' (SIGMOD 1993)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_format_argument(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="output format (default: text)",
        )

    list_parser = commands.add_parser(
        "list", help="list every table/figure experiment id"
    )
    add_format_argument(list_parser)

    def add_engine_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--preset",
            choices=["quick", "paper"],
            default="quick",
            help="simulation effort (default: quick)",
        )
        subparser.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for sweep units (1 = in-process serial)",
        )
        subparser.add_argument(
            "--cache-dir",
            metavar="PATH",
            default=None,
            help="on-disk result cache for sweep units (keyed by config "
            "and package version)",
        )
        subparser.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the experiment's built-in trace seed",
        )
        subparser.add_argument(
            "--manifest",
            metavar="PATH",
            default=None,
            help="write a JSON run manifest (unit timings, cache hits)",
        )
        subparser.add_argument(
            "--quiet",
            action="store_true",
            help="suppress per-unit progress lines on stderr",
        )
        subparser.add_argument(
            "--metrics",
            metavar="PATH",
            default=None,
            help="collect a metrics snapshot and write it to PATH as JSON "
            "('-' prints it to stdout); observe-only, cache keys unchanged",
        )
        subparser.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="record a JSONL span/event trace of the run to PATH",
        )
        subparser.add_argument(
            "--profile",
            action="store_true",
            help="cProfile each work unit; top hotspots land in the manifest",
        )
        add_format_argument(subparser)

    run = commands.add_parser("run", help="regenerate one table or figure")
    run.add_argument("experiment", help="experiment id, e.g. table1 or fig8")
    add_engine_arguments(run)
    run.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also write the data rows as CSV for external plotting",
    )

    run_all = commands.add_parser(
        "run-all", help="regenerate every registered table and figure"
    )
    add_engine_arguments(run_all)
    run_all.add_argument(
        "--csv-dir",
        metavar="DIR",
        default=None,
        help="also write each experiment's rows as CSV into this directory",
    )

    stats = commands.add_parser(
        "stats",
        help="pretty-print a metrics snapshot (from --metrics, a result "
        "JSON, or a run manifest)",
    )
    stats.add_argument(
        "path",
        help="snapshot file, result/manifest JSON with embedded metrics, "
        "or '-' for stdin",
    )
    stats.add_argument(
        "--deterministic-only",
        action="store_true",
        help="drop series that are not seed-reproducible (wall-clock times)",
    )
    add_format_argument(stats)

    validate = commands.add_parser(
        "validate", help="check trace output against the exact PMFs"
    )
    validate.add_argument("--warehouses", type=int, default=2)
    validate.add_argument("--items", type=int, default=600)
    validate.add_argument("--customers", type=int, default=90)
    validate.add_argument("--transactions", type=int, default=5000)
    validate.add_argument(
        "--packing", choices=["sequential", "optimized", "random"], default="sequential"
    )
    add_format_argument(validate)

    trace = commands.add_parser(
        "trace", help="record a page-reference trace to an .npz file"
    )
    trace.add_argument("path", help="output file (e.g. tpcc-trace.npz)")
    trace.add_argument("--warehouses", type=int, default=2)
    trace.add_argument("--transactions", type=int, default=5000)
    trace.add_argument(
        "--packing", choices=["sequential", "optimized", "random"], default="sequential"
    )
    trace.add_argument("--seed", type=int, default=0)
    add_format_argument(trace)

    skew = commands.add_parser("skew", help="Section 3 skew summary")
    skew.add_argument(
        "--relation",
        choices=["stock", "customer"],
        default="stock",
        help="which relation's access distribution to summarize",
    )
    add_format_argument(skew)

    throughput = commands.add_parser(
        "throughput", help="Section 5 throughput model at one buffer size"
    )
    throughput.add_argument("--buffer-mb", type=float, default=52.0)
    throughput.add_argument(
        "--packing", choices=["sequential", "optimized"], default="sequential"
    )
    throughput.add_argument("--mips", type=float, default=10.0)
    add_format_argument(throughput)

    bench = commands.add_parser(
        "bench",
        help="run the concurrent multi-terminal TPC-C driver "
        "(virtual time; deterministic per seed)",
    )
    bench.add_argument(
        "--terminals", type=int, default=8, help="emulated terminals (default: 8)"
    )
    group = bench.add_mutually_exclusive_group()
    group.add_argument(
        "--transactions",
        type=int,
        default=None,
        metavar="N",
        help="stop after N transactions have started (default: 400)",
    )
    group.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run for a fixed virtual duration instead",
    )
    bench.add_argument(
        "--think",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="mean exponential think time per terminal (default: 1.0)",
    )
    bench.add_argument(
        "--keying",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="constant keying time per terminal (default: 0.0)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--warehouses",
        type=int,
        default=None,
        help="TPC-C scale (default: max(2, terminals // 20))",
    )
    bench.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry budget per transaction before giving up",
    )
    bench.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="admission cap on concurrently open transactions",
    )
    bench.add_argument(
        "--crash-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="crash and recover the database at this virtual instant",
    )
    bench.add_argument(
        "--lock-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="block on lock conflicts for up to this virtual budget "
        "instead of no-wait aborts (enables waits-for deadlock detection)",
    )
    bench.add_argument(
        "--victim-policy",
        choices=["youngest", "oldest", "fewest_locks"],
        default="youngest",
        help="which member of a waits-for cycle to abort (default: youngest)",
    )
    bench.add_argument(
        "--queue-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shed admission-queue arrivals older than this "
        "(requires --max-in-flight)",
    )
    bench.add_argument(
        "--breaker-failures",
        type=int,
        default=None,
        metavar="N",
        help="open the retry circuit breaker after N transient failures "
        "inside its window",
    )
    bench.add_argument(
        "--breaker-cooldown",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how long an open breaker short-circuits retries "
        "(default: 2.0; only with --breaker-failures)",
    )
    bench.add_argument(
        "--faults",
        metavar="KIND=PROB[,KIND=PROB...]",
        default=None,
        help="per-operation fault probabilities; kinds: wal_append, "
        "torn_write, eviction, lock_conflict, deadlock",
    )
    bench.add_argument(
        "--faults-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="fault-plan RNG seed (default: the benchmark --seed)",
    )
    bench.add_argument(
        "--validate",
        action="store_true",
        help="run at several terminal counts and compare against exact MVA",
    )
    bench.add_argument(
        "--terminal-counts",
        metavar="N,N,...",
        default="1,4,16,64",
        help="populations for --validate (default: 1,4,16,64)",
    )
    add_format_argument(bench)

    lint = commands.add_parser(
        "lint", help="run the reprolint static-analysis rules"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    add_format_argument(lint)
    lint.add_argument(
        "--rules",
        metavar="CODES",
        default=None,
        help="comma-separated subset of rule codes, e.g. REP001,REP004",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by inline suppressions "
        "(so CI can track the surviving count)",
    )
    return parser


def _emit(args, text: str, data: Any) -> None:
    """The single rendering seam every subcommand's output goes through.

    ``--format text`` prints the human-readable report; ``--format
    json`` prints one JSON document (and nothing else) to stdout.
    """
    if getattr(args, "format", "text") == "json":
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def _note(args, message: str) -> None:
    """A side-effect confirmation ('rows written to ...').

    Goes to stdout in text mode (historical behaviour) but to stderr in
    JSON mode so stdout stays a single parseable document.
    """
    stream = sys.stderr if getattr(args, "format", "text") == "json" else sys.stdout
    print(message, file=stream)


def _invalid_arguments(error: ValueError) -> int:
    """Report a configuration the arguments describe but the model rejects."""
    print(f"invalid arguments: {error}", file=sys.stderr)
    return 2


def _command_list(args) -> int:
    from repro.experiments.runner import EXPERIMENTS, list_experiments

    entries = []
    for experiment_id in list_experiments():
        function = EXPERIMENTS[experiment_id]
        summary = (function.__doc__ or "").strip().splitlines()[0]
        entries.append({"experiment": experiment_id, "summary": summary})
    text = "\n".join(f"{e['experiment']:<12} {e['summary']}" for e in entries)
    _emit(args, text, {"experiments": entries})
    return 0


def _request_from_args(args, experiment: str):
    from repro.exec.request import RunRequest

    return RunRequest(
        experiment=experiment,
        preset=args.preset,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        seed_override=args.seed,
        manifest_path=args.manifest,
        progress=not args.quiet,
        collect_metrics=args.metrics is not None,
        trace_path=args.trace,
        profile=args.profile,
    )


def _write_snapshot(args, snapshot) -> None:
    """Honor ``--metrics PATH|-`` for a collected snapshot."""
    if args.metrics is None or snapshot is None:
        return
    if args.metrics == "-":
        if getattr(args, "format", "text") == "json":
            return  # already embedded in the JSON document on stdout
        print(snapshot.to_json())
    else:
        from pathlib import Path

        Path(args.metrics).write_text(snapshot.to_json() + "\n")
        _note(args, f"metrics snapshot written to {args.metrics}")


def _run_experiments(args, experiment_ids: Sequence[str]) -> int:
    """Body of ``run`` and ``run-all``: one engine, one manifest, one exit block.

    ``run`` is the one-experiment case.  It differs only in what it
    prints (the bare result instead of the ``results``/``failed``
    envelope) and in exiting 2, not 3, when the experiment rejects its
    configuration.
    """
    from pathlib import Path

    from repro.exec.engine import ExecutionError
    from repro.exec.request import build_engine, execute

    single = args.command == "run"
    json_mode = args.format == "json"
    try:
        base = _request_from_args(args, experiment_ids[0])
        engine = build_engine(base)
    except ValueError as error:
        print(f"invalid run request: {error}", file=sys.stderr)
        return 2
    documents: list[dict[str, Any]] = []
    failures: list[str] = []
    exit_code = 0
    try:
        for experiment_id in experiment_ids:
            try:
                result = execute(
                    base.replace(experiment=experiment_id), engine=engine
                )
            except ValueError as error:
                failures.append(experiment_id)
                exit_code = 2 if single else 3
                print(
                    f"experiment {experiment_id!r} rejected its "
                    f"configuration: {error}",
                    file=sys.stderr,
                )
                continue
            except ExecutionError as error:
                failures.append(experiment_id)
                exit_code = 3
                print(
                    f"execution failed for {experiment_id!r}: {error}",
                    file=sys.stderr,
                )
                continue
            documents.append(result.to_dict())
            if not json_mode:
                print(result.render())
                if not single:
                    print()
            if single and args.csv:
                result.to_csv(args.csv)
                _note(args, f"\nrows written to {args.csv}")
            elif not single and args.csv_dir:
                directory = Path(args.csv_dir)
                directory.mkdir(parents=True, exist_ok=True)
                result.to_csv(directory / f"{experiment_id}.csv")
    except KeyboardInterrupt:
        print(
            "interrupted; partial manifest covers the finished units "
            "(rerun with the same --cache-dir to continue)",
            file=sys.stderr,
        )
        return 130
    finally:
        manifest = engine.manifest()
        if base.manifest_path is not None:
            manifest.write(base.manifest_path)
        if manifest.total_units and not args.quiet:
            print(f"[exec] manifest: {manifest.summary()}", file=sys.stderr)
        snapshot = engine.collected_metrics
        engine.close()
    if single and failures:
        return exit_code
    if json_mode:
        document = documents[0]
        if not single:
            document = {"results": documents, "failed": failures}
            if snapshot is not None and args.metrics == "-":
                document["metrics"] = snapshot.to_dict()
        print(json.dumps(document, indent=2, sort_keys=True, default=str))
    _write_snapshot(args, snapshot)
    if failures:
        print(f"failed experiments: {', '.join(failures)}", file=sys.stderr)
    return exit_code


def _command_run(args) -> int:
    from repro.experiments.runner import resolve

    try:
        resolve(args.experiment)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    return _run_experiments(args, [args.experiment])


def _command_run_all(args) -> int:
    from repro.experiments.runner import list_experiments

    return _run_experiments(args, list_experiments())


def _command_stats(args) -> int:
    from repro.experiments.report import render_table
    from repro.obs.metrics import MetricsSnapshot

    if args.path == "-":
        raw = sys.stdin.read()
    else:
        from pathlib import Path

        source = Path(args.path)
        if not source.exists():
            print(f"no such file: {args.path}", file=sys.stderr)
            return 2
        raw = source.read_text()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as error:
        print(f"not JSON: {error}", file=sys.stderr)
        return 2
    if isinstance(data, dict) and data.get("kind") != "MetricsSnapshot":
        # A result or manifest document with an embedded snapshot.
        data = data.get("metrics")
    if not isinstance(data, dict):
        print(
            "no metrics snapshot found (expected a snapshot document or a "
            "result/manifest with a 'metrics' field)",
            file=sys.stderr,
        )
        return 2
    try:
        snapshot = MetricsSnapshot.from_dict(data)
    except (ValueError, KeyError, TypeError) as error:
        print(f"malformed snapshot: {error}", file=sys.stderr)
        return 2
    if args.deterministic_only:
        snapshot = snapshot.deterministic_only()
    rows = snapshot.as_rows()
    text = (
        render_table(rows, title="metrics snapshot")
        if rows
        else "metrics snapshot: empty"
    )
    _emit(args, text, snapshot.to_dict())
    return 0


def _command_validate(args) -> int:
    from repro.experiments.report import render_table
    from repro.workload.trace import TraceConfig
    from repro.workload.validation import validate_trace

    try:
        config = TraceConfig(
            warehouses=args.warehouses,
            items=args.items,
            customers_per_district=args.customers,
            prime_orders=min(30, args.customers),
            prime_pending=min(10, args.customers),
            packing=args.packing,
        )
        checks = validate_trace(config, args.transactions)
    except ValueError as error:
        return _invalid_arguments(error)
    rows = [check.as_row() for check in checks.values()]
    consistent = all(check.consistent() for check in checks.values())
    text = render_table(
        rows, title="trace vs exact PMFs (NU-driven accesses)"
    ) + ("\n\nconsistent" if consistent else "\n\nINCONSISTENT")
    _emit(args, text, {"checks": rows, "consistent": consistent})
    return 0 if consistent else 1


def _command_trace(args) -> int:
    from repro.workload.trace import TraceConfig
    from repro.workload.tracefile import write_trace

    try:
        config = TraceConfig(
            warehouses=args.warehouses, packing=args.packing, seed=args.seed
        )
        written, references = write_trace(args.path, config, args.transactions)
    except ValueError as error:
        return _invalid_arguments(error)
    _emit(
        args,
        f"recorded {references} references over "
        f"{args.transactions} transactions to {written}",
        {
            "path": str(written),
            "references": references,
            "transactions": args.transactions,
        },
    )
    return 0


def _command_skew(args) -> int:
    from repro.core.nurand import customer_mixture_distribution, item_id_distribution
    from repro.core.skew import SkewSummary
    from repro.experiments.report import render_table

    distribution = (
        item_id_distribution()
        if args.relation == "stock"
        else customer_mixture_distribution()
    )
    summary = SkewSummary.of(distribution)
    rows = [{"metric": name, "value": value} for name, value in summary.as_row().items()]
    _emit(
        args,
        render_table(rows, title=f"{args.relation} relation access skew (tuple level)"),
        {"relation": args.relation, **summary.to_dict()},
    )
    return 0


def _command_throughput(args) -> int:
    from repro.experiments.report import render_table
    from repro.throughput.model import ThroughputModel
    from repro.throughput.params import CostParameters
    from repro.throughput.pricing import AnalyticMissRateProvider

    try:
        miss = AnalyticMissRateProvider(packing=args.packing)(args.buffer_mb)
        result = ThroughputModel(
            params=CostParameters(mips=args.mips), miss_rates=miss
        ).solve()
    except ValueError as error:
        return _invalid_arguments(error)
    rows = [
        {"metric": "buffer MB", "value": args.buffer_mb},
        {"metric": "packing", "value": args.packing},
        {"metric": "customer miss rate", "value": round(miss.customer, 4)},
        {"metric": "stock miss rate", "value": round(miss.stock, 4)},
        {"metric": "item miss rate", "value": round(miss.item, 4)},
        {"metric": "throughput (tx/s)", "value": round(result.throughput_tps, 2)},
        {"metric": "new-order tpm", "value": round(result.new_order_tpm, 1)},
        {"metric": "disk reads per tx", "value": round(result.disk_reads_per_tx, 2)},
        {"metric": "disk arms", "value": result.disk_arms_for_bandwidth},
    ]
    _emit(
        args,
        render_table(rows, title="throughput model (80% CPU utilization)"),
        {
            "buffer_mb": args.buffer_mb,
            "packing": args.packing,
            "miss_rates": {
                "customer": miss.customer,
                "stock": miss.stock,
                "item": miss.item,
            },
            "result": result.to_dict(),
        },
    )
    return 0


def _parse_fault_plan(text: str, seed: int):
    """``KIND=PROB,...`` -> FaultPlan via :meth:`FaultPlan.chaos` kwargs."""
    from repro.faults import FaultPlan

    kinds = {"wal_append", "torn_write", "eviction", "lock_conflict", "deadlock"}
    probabilities: dict[str, float] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, raw = token.partition("=")
        kind = kind.strip()
        if kind not in kinds:
            raise ValueError(
                f"unknown fault kind {kind!r} (expected one of "
                f"{', '.join(sorted(kinds))})"
            )
        probabilities[kind] = float(raw)
    if not probabilities:
        raise ValueError("empty --faults spec")
    return FaultPlan.chaos(seed, **probabilities)


def _command_bench(args) -> int:
    from repro.driver import BenchmarkSpec, run_benchmark, validate_against_mva
    from repro.tpcc.executor import BreakerPolicy, RetryPolicy
    from repro.tpcc.loader import TpccConfig

    warehouses = args.warehouses
    if warehouses is None:
        warehouses = max(2, args.terminals // 20)
    transactions = args.transactions
    if transactions is None and args.duration is None:
        transactions = 400
    retry = RetryPolicy()
    if args.max_attempts is not None:
        retry = RetryPolicy(max_attempts=args.max_attempts)
    faults = None
    if args.faults is not None:
        faults_seed = args.faults_seed if args.faults_seed is not None else args.seed
        try:
            faults = _parse_fault_plan(args.faults, faults_seed)
        except ValueError as error:
            print(f"bad --faults: {error}", file=sys.stderr)
            return 2
    breaker = None
    if args.breaker_failures is not None:
        breaker = BreakerPolicy(
            failure_threshold=args.breaker_failures,
            cooldown_seconds=args.breaker_cooldown,
        )
    try:
        spec = BenchmarkSpec(
            terminals=args.terminals,
            duration_seconds=args.duration,
            transactions=transactions,
            think_time_seconds=args.think,
            keying_time_seconds=args.keying,
            retry=retry,
            seed=args.seed,
            max_in_flight=args.max_in_flight,
            tpcc=TpccConfig(warehouses=warehouses),
            faults=faults,
            crash_at_seconds=args.crash_at,
            lock_timeout_seconds=args.lock_timeout,
            victim_policy=args.victim_policy,
            queue_deadline_seconds=args.queue_deadline,
            breaker=breaker,
        )
    except ValueError as error:
        print(f"invalid benchmark spec: {error}", file=sys.stderr)
        return 2
    if args.validate:
        try:
            counts = [
                int(token)
                for token in args.terminal_counts.split(",")
                if token.strip()
            ]
        except ValueError:
            print(
                f"bad --terminal-counts: {args.terminal_counts!r} "
                "(expected comma-separated integers)",
                file=sys.stderr,
            )
            return 2
        try:
            validation = validate_against_mva(spec, counts)
        except ValueError as error:
            print(f"validation rejected the spec: {error}", file=sys.stderr)
            return 2
        _emit(args, validation.render(), validation.to_dict())
        return 0
    report = run_benchmark(spec)
    _emit(args, report.render(), report.to_dict())
    return 0


def _command_lint(args) -> int:
    from repro.analysis.runner import describe_rules, lint_paths

    if args.list_rules:
        for code, summary in describe_rules():
            print(f"{code}  {summary}")
        return 0
    codes = None
    if args.rules:
        codes = [code.strip() for code in args.rules.split(",") if code.strip()]
    try:
        report = lint_paths(args.paths or None, codes=codes)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    data = report.as_dict()
    text = report.render_text()
    if args.show_suppressed:
        text = f"{text}\n{report.render_suppressed()}"
        data["suppressed_findings"] = [
            finding.as_dict() for finding in report.suppressed_findings
        ]
    _emit(args, text, data)
    return report.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": _command_list,
        "lint": _command_lint,
        "run": _command_run,
        "run-all": _command_run_all,
        "stats": _command_stats,
        "validate": _command_validate,
        "trace": _command_trace,
        "skew": _command_skew,
        "throughput": _command_throughput,
        "bench": _command_bench,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed stdout early; the
        # conventional exit status is 128 + SIGPIPE.  Detach stdout so the
        # interpreter's shutdown flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""The five workloads, as run inside one child process.

Every workload drives the system through the public entry points only
(``BufferSimulation(...).run()``, ``DistributedBufferSimulation(...).run()``,
``load_tpcc``, ``TpccExecutor.prepare/execute_prepared``,
``run_benchmark(BenchmarkSpec)``) and never selects an implementation
(``kernel=``, ``vectorized=``), so it keeps running while the code under
it is rewritten.  All loops are closed: the single client issues its next
call when the previous one returns.

A child does, in order: ``setup`` (imports, loading, warm-up — everything
before the timed region), ``run`` (the timed region, cut into *laps*
that are the same in every child of a run), ``check`` (correctness of
what the timed region produced).  The seed reaches the system only
through its configuration objects.  A lap is ``(label, work, raw seconds,
host seconds)``; see :mod:`hostspeed` for the last.

``scale`` shrinks the amount of work (reference and transaction counts),
never the shape: 1.0 is the benchmark, 0.05 is the smoke size the
self-tests use.
"""

from __future__ import annotations

import gc
import json
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HostClock
from layers import span_metrics
from spans import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED_SEED = 11

_TYPES = ("new_order", "payment", "order_status", "delivery", "stock_level")


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


class Workload:
    """Shared bookkeeping: laps, operations attempted/failed, checks."""

    name = ""
    #: What ``work`` counts in ``work_per_s``.
    work_unit = ""

    def __init__(
        self, seed: int, scale: float, tracer: Tracer | None = None, reduced: bool = False
    ):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        #: The shape of the traced run (smaller where every call of a hot
        #: function is a span); its untraced reference runs use it too.
        self.reduced = reduced
        self.laps: list[tuple[str, int, float, float]] = []
        #: Started by the caller when the timed region begins.
        self.clock: HostClock | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks = 0
        self.check_failures: list[str] = []
        #: Figures that must repeat exactly for one seed on one commit.
        self.counts: dict[str, object] = {}
        self.layers: dict[str, float] = {}
        #: Host milliseconds per committed transaction, by type (engine-mix).
        self.latencies_ms: dict[str, list[float]] = {}
        self.notes: list[str] = []

    # -- the three phases ---------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def extras(self) -> None:
        """Untimed per-layer measurements of the traced child."""

    def layer_counts(self, spans: dict[str, float], calls: dict[str, int]) -> None:
        """Per-layer figures that need the workload's own counts."""

    # -- helpers ------------------------------------------------------------

    def operation(self, label: str, call, work_of, attempts: int = 1) -> object:
        """One lap that is one call; if it raises, all its attempts failed."""
        self.attempted += attempts
        result = None
        # Collect outside the lap: otherwise whether a full collection of
        # the previous lap's garbage lands in this one is a coin toss
        # (fig8 points alternate between 160 and 220 ms without it).
        gc.collect()
        self.clock.restart()
        try:
            result = call()
            work = work_of(result)
        except Exception:  # a failed operation is a result, not a crash
            self.failed += attempts
            self.errors.append(traceback.format_exc())
            work = 0
        self.laps.append((label, work, *self.clock.lap()))
        return result

    def expect(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.check_failures.append(message)

    def span(self, name: str, layer: str):
        return self.tracer.span(name, layer) if self.tracer is not None else nullcontext()

    def check_expected(self) -> None:
        """Simulated statistics must not move between commits."""
        path = HERE / "expected" / f"{self.name}.seed{EXPECTED_SEED}.json"
        if self.seed != EXPECTED_SEED or self.scale != 1.0 or self.failed:
            return
        expected = json.loads(path.read_text()) if path.exists() else None
        self.expect(
            self.counts == expected,
            f"{self.name}: accesses/misses differ from {path.name}",
        )


# -- buffer simulation: fig8-sweep and policy-matrix --------------------------


class _SimulationSweep(Workload):
    """Runs ``BufferSimulation`` once per point; one lap per point."""

    work_unit = "page references"
    #: (label, packing, buffer MB, policy) per point.
    points: tuple[tuple[str, str, float, str], ...] = ()
    batches = 30

    def setup(self) -> None:
        from repro.buffer import BufferSimulation, SimulationConfig
        from repro.workload import TraceConfig

        self._simulation = BufferSimulation
        self.configs = {
            label: SimulationConfig(
                trace=TraceConfig(warehouses=20, packing=packing, seed=self.seed),
                buffer_mb=megabytes,
                policy=policy,
                batches=self.batches,
                batch_size=scaled(100_000, self.scale, floor=2_000),
            )
            for label, packing, megabytes, policy in self.points
        }
        # Page the code in, so the first lap costs what the others do.
        small = SimulationConfig(
            trace=TraceConfig(warehouses=1, seed=self.seed),
            buffer_mb=1.0,
            batches=2,
            batch_size=2_000,
        )
        for policy in sorted({point[3] for point in self.points}):
            BufferSimulation(small.replace(policy=policy)).run()
        self.reports: dict[str, object] = {}

    def run(self) -> None:
        for label, config in self.configs.items():
            report = self.operation(
                label,
                lambda: self._simulation(config).run(),
                # Warm-up references are simulated too.
                lambda report: report.total_references + config.effective_warmup,
            )
            if report is not None:
                self.reports[label] = report

    def check(self) -> None:
        for label, report in self.reports.items():
            self.counts[label] = {
                relation: [entry.accesses, entry.misses]
                for relation, entry in sorted(report.relations.items())
            }
            customer, stock, item = (
                report.miss_rate(name) for name in ("customer", "stock", "item")
            )
            # Customer pulls clear of stock only over a full-length run.
            ordered = customer > stock if self.scale >= 1.0 else customer > item
            self.expect(
                ordered and stock > item > 0,
                f"{label}: expected customer > stock > item miss rate, "
                f"got {customer:.3f}, {stock:.3f}, {item:.3f}",
            )
        self.check_shape()
        self.check_expected()

    def check_shape(self) -> None:
        raise NotImplementedError

    def simulated(self) -> tuple[int, int, int]:
        """(references incl. warm-up, measured accesses, measured misses)."""
        references = sum(lap[1] for lap in self.laps)
        accesses = misses = 0
        for report in self.reports.values():
            accesses += sum(entry.accesses for entry in report.relations.values())
            misses += sum(entry.misses for entry in report.relations.values())
        return references, accesses, misses

    def layer_counts(self, spans: dict[str, float], calls: dict[str, int]) -> None:
        references, accesses, misses = self.simulated()
        self.layers.update(
            {
                "workload.gen_refs": references,
                "workload.gen_ns_per_ref": _per(spans["workload.gen_s"], references),
                "buffer.kernels.refs": references,
                "buffer.kernels.ns_per_ref": _per(
                    spans["buffer.kernels.process_s"], references
                ),
                "buffer.kernels.misses": misses,
                "buffer.kernels.hit_ratio": 1.0 - misses / accesses if accesses else 0.0,
            }
        )


class Fig8Sweep(_SimulationSweep):
    name = "fig8-sweep"
    points = (
        ("seq-13", "sequential", 13.0, "lru"),
        ("seq-52", "sequential", 52.0, "lru"),
        ("seq-156", "sequential", 156.0, "lru"),
        ("opt-52", "optimized", 52.0, "lru"),
    )

    def check_shape(self) -> None:
        if len(self.reports) < len(self.points):
            return
        stock = {label: r.miss_rate("stock") for label, r in self.reports.items()}
        self.expect(
            stock["seq-13"] >= stock["seq-52"] >= stock["seq-156"],
            f"stock miss rate must not rise with buffer size: {stock}",
        )
        self.expect(
            stock["opt-52"] <= stock["seq-52"],
            f"optimized packing must not miss more than sequential: {stock}",
        )

    def extras(self) -> None:
        """Cost of enabled metrics on the seq-52 point, wrappers removed."""
        from repro.obs.metrics import default_registry

        config = self.configs["seq-52"]
        plain, enabled = [], []
        for _ in range(2):
            start = time.perf_counter()
            self._simulation(config).run()
            plain.append(time.perf_counter() - start)
            start = time.perf_counter()
            with default_registry().collecting():
                self._simulation(config).run()
            enabled.append(time.perf_counter() - start)
        self.layers["obs.metrics_enabled_ratio"] = min(enabled) / min(plain)


class PolicyMatrix(_SimulationSweep):
    name = "policy-matrix"
    points = tuple(
        (policy, "sequential", 52.0, policy) for policy in ("clock", "2q", "lfu", "lru2")
    )
    batches = 6

    def check_shape(self) -> None:
        totals = {
            label: sum(entry.accesses for entry in report.relations.values())
            for label, report in self.reports.items()
        }
        self.expect(
            len(set(totals.values())) == 1,
            f"every policy must see the same trace: accesses {totals}",
        )


# -- distributed simulation: dist-cluster -------------------------------------

RC_STOCK_REL = U_STOCK_REL = 0.05
L_STOCK_ABS = 0.02


class DistCluster(Workload):
    name = "dist-cluster"
    work_unit = "simulated transactions"
    nodes = 32
    #: The traced run simulates fewer nodes: every page reference of the
    #: node loop is a span.
    reduced_nodes = 8

    def setup(self) -> None:
        from repro.distributed.simulation import (
            DistributedBufferSimulation,
            DistributedSimConfig,
        )
        from repro.workload import TraceConfig

        self._simulation = DistributedBufferSimulation
        nodes = self.reduced_nodes if self.reduced else self.nodes
        if self.reduced:
            self.notes.append(f"traced run simulates {nodes} nodes, not {self.nodes}")
        self.config = DistributedSimConfig(
            nodes=nodes,
            trace=TraceConfig(
                warehouses=2, seed=self.seed, remote_stock_probability=0.1
            ),
            buffer_mb=4.0,
            transactions_per_node=scaled(1_000, self.scale, floor=100),
            warmup_transactions_per_node=scaled(200, self.scale, floor=20),
            seed=self.seed,
        )
        DistributedBufferSimulation(
            self.config.replace(
                nodes=2, transactions_per_node=20, warmup_transactions_per_node=5
            )
        ).run()
        self.report = None

    def run(self) -> None:
        config = self.config
        per_node = config.warmup_transactions_per_node + config.transactions_per_node
        self.report = self.operation(
            "cluster",
            lambda: self._simulation(config).run(),
            lambda report: config.nodes * per_node,
        )

    def errors_against_appendix_a(self) -> dict[str, float]:
        remote, expected = self.report.remote, self.report.expectations
        return {
            "distributed.rc_stock_rel_err": abs(remote.rc_stock / expected.rc_stock - 1),
            "distributed.u_stock_rel_err": abs(remote.u_stock / expected.u_stock - 1),
            "distributed.l_stock_abs_err": abs(remote.l_stock - expected.l_stock),
        }

    def check(self) -> None:
        if self.report is None:
            return
        errors = self.errors_against_appendix_a()
        # The tolerances are sized for the full transaction count.
        slack = 1.0 if self.scale >= 1.0 else self.scale**-0.5
        for key, limit in (
            ("distributed.rc_stock_rel_err", RC_STOCK_REL),
            ("distributed.u_stock_rel_err", U_STOCK_REL),
            ("distributed.l_stock_abs_err", L_STOCK_ABS),
        ):
            self.expect(
                errors[key] <= limit * slack,
                f"{key} = {errors[key]:.4f} exceeds {limit * slack:.4f}",
            )
        stock = self.report.mean_miss_rate("stock")
        self.expect(0.0 < stock < 1.0, f"mean stock miss rate {stock} is degenerate")
        remote = self.report.remote
        self.counts = {
            "new_orders": remote.new_orders,
            "remote_stock_calls": remote.remote_stock_calls,
            "payments": remote.payments,
            "remote_payments": remote.remote_payments,
            "stock_miss_mean": stock,
        }

    def extras(self) -> None:
        """The same cluster through the sharded runner, cold then warm."""
        from repro.distributed.sharded import run_sharded
        from repro.exec import ExecutionEngine

        if self.report is None:
            return
        self.layers.update(self.errors_against_appendix_a())
        self.layers["distributed.stock_miss_mean"] = self.report.mean_miss_rate("stock")
        start = time.perf_counter()
        serial = self._simulation(self.config).run()
        self.layers["exec.serial_s"] = time.perf_counter() - start
        scratch = Path(tempfile.mkdtemp(prefix="cache-", dir=HERE))
        try:
            for phase in ("cold", "warm"):
                start = time.perf_counter()
                with ExecutionEngine(jobs=1, cache_dir=scratch) as engine:
                    sharded = run_sharded(self.config, engine)
                    dispatched = engine.manifest().total_units
                self.layers[f"exec.sharded_{phase}_s"] = time.perf_counter() - start
                self.expect(
                    sharded == serial,
                    f"{phase} sharded report differs from the serial one",
                )
            self.layers["exec.cache_hits"] = self.config.nodes - dispatched
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

# -- the executable engine: engine-mix and driver-contended -------------------


def _ytd_gaps(db, warehouses: int) -> list[float]:
    """TPC-C consistency condition 1: W_YTD - sum(D_YTD) per warehouse."""
    txn = db.begin("ytd-audit")
    try:
        return [
            txn.select("warehouse", (w,))["w_ytd"]
            - sum(txn.select("district", (w, d))["d_ytd"] for d in range(1, 11))
            for w in range(1, warehouses + 1)
        ]
    finally:
        txn.commit()


class _EngineWorkload(Workload):
    """Loads a TPC-C database; reads the engine's own counters around the run."""

    work_unit = "committed transactions"
    warehouses = 0
    buffer_pages = 2_000

    def load(self) -> None:
        from repro.tpcc.loader import TpccConfig, load_tpcc

        self.tpcc = TpccConfig(
            warehouses=self.warehouses, buffer_pages=self.buffer_pages, seed=self.seed
        )
        start = time.perf_counter()
        self.db = load_tpcc(self.tpcc)
        self.layers["tpcc.loader.load_s"] = time.perf_counter() - start

    def engine_counters(self) -> dict[str, float]:
        db = self.db
        stats = db.buffers.stats
        locks = db.locks.contention()
        hits, misses = sum(stats.hits.values()), sum(stats.misses.values())
        return {
            "requests": hits + misses,
            "hits": hits,
            "evictions": sum(stats.evictions.values()),
            "reads": db.store.reads,
            "writes": db.store.writes,
            "acquires": locks["acquisitions"],
            "conflicts": locks["conflicts"],
            "wal_records": len(db.wal),
            "wal_bytes": db.wal.bytes_written,
            # SQL calls of committed transactions (the paper's Table 2 unit).
            "sql_calls": sum(db.census(name).total() for name in _TYPES),
        }

    def check_database(self) -> None:
        from repro.faults import check_recovery_invariants

        report = check_recovery_invariants(self.db)
        self.expect(report.ok, f"recovery invariants violated: {report}")
        gaps = _ytd_gaps(self.db, self.warehouses)
        self.expect(
            all(abs(gap) < 1e-3 for gap in gaps),
            f"W_YTD != sum(D_YTD): gaps {gaps}",
        )

    def layer_rates(self, calls: dict[str, int], delta: dict, committed: int) -> None:
        if not committed:
            return
        self.layers.update(
            {
                "engine.database.statements_per_tx": calls.get("engine.database", 0) / committed,
                "engine.catalog.codec_calls_per_tx": calls.get("engine.catalog", 0) / committed,
                "engine.index.ops_per_tx": calls.get("engine.index", 0) / committed,
                "engine.bufferpool.requests_per_tx": delta["requests"] / committed,
                "engine.bufferpool.hit_ratio": (
                    delta["hits"] / delta["requests"] if delta["requests"] else 0.0
                ),
                "engine.bufferpool.evictions_per_tx": delta["evictions"] / committed,
                "engine.store.reads_per_tx": delta["reads"] / committed,
                "engine.store.writes_per_tx": delta["writes"] / committed,
                "engine.locks.acquires_per_tx": delta["acquires"] / committed,
                "engine.locks.conflicts": delta["conflicts"],
                "engine.wal.records_per_tx": delta["wal_records"] / committed,
                "engine.wal.bytes_per_tx": delta["wal_bytes"] / committed,
            }
        )


class EngineMix(_EngineWorkload):
    name = "engine-mix"
    warehouses = 4
    #: 1 103 data pages at load: the buffer holds about 27 % of the data,
    #: so the miss and write-back paths are live.
    buffer_pages = 300
    #: Short laps, so that the host-speed kernel runs every 80 ms or so.
    lap_transactions = 50

    def setup(self) -> None:
        from repro.tpcc.executor import TpccExecutor
        from repro.workload import DEFAULT_MIX

        self.load()
        self.executor = TpccExecutor(db=self.db, config=self.tpcc, seed=self.seed)
        # Inputs are drawn before the clock starts; the timed region
        # touches only the engine.
        for _ in range(scaled(250, self.scale, floor=20)):
            self.executor.execute_prepared(self.executor.prepare())
        self.prepared = self.deal(DEFAULT_MIX.as_dict(), scaled(1_750, self.scale, floor=50))
        self.timed = len(self.prepared)
        self.latencies_ms = {name: [] for name in _TYPES}
        self.before = self.engine_counters()
        self.committed_before = self.executor.summary.total

    def deal(self, shares: dict[str, float], count: int) -> list:
        """``count`` prepared inputs holding exactly the mix's share of each type.

        Inputs come off the executor's seeded stream in order; one whose
        type is already dealt out is dropped.  A Delivery costs thirty
        times an Order-Status, so leaving the type counts to chance would
        move throughput by several percent from seed to seed (TPC-C
        terminals deal from a deck of cards for the same reason).
        """
        quota = {name: round(count * share) for name, share in shares.items()}
        hand = []
        while any(quota.values()):
            item = self.executor.prepare()
            if quota[item.tx.value]:
                quota[item.tx.value] -= 1
                hand.append(item)
        return hand

    def run(self) -> None:
        execute = self.executor.execute_prepared
        clock = time.perf_counter
        for first in range(0, self.timed, self.lap_transactions):
            latencies = []
            for item in self.prepared[first : first + self.lap_transactions]:
                self.attempted += 1
                start = clock()
                try:
                    execute(item)
                except Exception:  # gave up, or raised: a failed transaction
                    self.failed += 1
                    self.errors.append(traceback.format_exc())
                    continue
                latencies.append((item.tx.value, clock() - start))
            raw, host = self.clock.lap()
            self.laps.append((f"tx-{first}", len(latencies), raw, host))
            for name, seconds in latencies:
                self.latencies_ms[name].append(seconds * host / raw * 1e3)
        self.delta = _delta(self.before, self.engine_counters())

    def check(self) -> None:
        self.check_database()
        summary = self.executor.summary
        committed = summary.total - self.committed_before
        self.expect(
            committed + self.failed == self.attempted,
            f"{committed} committed + {self.failed} failed != {self.attempted} attempted",
        )
        self.counts = {
            "committed": {name: len(v) for name, v in self.latencies_ms.items()},
            "retries": summary.retries,
            **self.delta,
        }

    def layer_counts(self, spans: dict[str, float], calls: dict[str, int]) -> None:
        self.layer_rates(calls, self.delta, self.attempted - self.failed)
        self.layers["tpcc.executor.retries"] = self.executor.summary.retries


class DriverContended(_EngineWorkload):
    """``run_benchmark`` once per child, on a freshly loaded database.

    Work is counted in SQL calls of committed transactions (the unit of
    the paper's Table 2), not in transactions: which of 360 transactions
    are Deliveries (130 calls) and which Payments (4) is up to the seed,
    and with it a quarter of the transactions-per-second figure.
    """

    name = "driver-contended"
    work_unit = "SQL calls of committed transactions"
    warehouses = 8

    def setup(self) -> None:
        from repro.driver import BenchmarkSpec, run_benchmark
        from repro.tpcc.executor import RetryPolicy

        self.load()
        self._run_benchmark = run_benchmark
        self.spec = BenchmarkSpec(
            terminals=16,
            transactions=scaled(360, self.scale, floor=32),
            think_time_seconds=1.0,
            scheduler="virtual",
            seed=self.seed,
            tpcc=self.tpcc,
            # Sixteen terminals on eight warehouses conflict on the
            # warehouse and district pages all the time.  The workload is
            # there to measure those conflicts, not to lose transactions
            # to them, so a terminal keeps retrying until it commits.
            retry=RetryPolicy(max_attempts=200, max_delay=1.0),
        )
        self.report = None
        self.before = self.engine_counters()

    def run(self) -> None:
        def call():
            with self.span("run_benchmark", "driver"):
                return self._run_benchmark(self.spec, db=self.db)

        def sql_calls(report) -> int:
            self.delta = _delta(self.before, self.engine_counters())
            return self.delta["sql_calls"]

        self.delta = {}
        self.report = self.operation(
            "driver", call, sql_calls, attempts=self.spec.transactions
        )
        if self.report is not None:
            self.failed += self.report.gave_up

    def check(self) -> None:
        self.check_database()
        report = self.report
        if report is None:
            return
        self.expect(
            report.committed + report.gave_up == self.spec.transactions,
            f"{report.committed} committed + {report.gave_up} gave up "
            f"!= {self.spec.transactions} attempted",
        )
        self.expect(report.aborts > 0, "the contended workload saw no conflict")
        self.counts = {
            "committed": report.committed,
            "aborts": report.aborts,
            "gave_up": report.gave_up,
            "virt_tpmc": report.tpmc,
            "virt_elapsed_s": report.elapsed_seconds,
            **self.delta,
        }

    def layer_counts(self, spans: dict[str, float], calls: dict[str, int]) -> None:
        from repro.driver import validate_reports

        report = self.report
        if report is None:
            return
        self.layer_rates(calls, self.delta, report.committed)
        attempts = report.committed + report.aborts
        new_order = report.per_tx.get("new_order")
        self.layers.update(
            {
                "tpcc.executor.retries": report.retries,
                "driver.host_ms_per_attempt": self.laps[0][2] * 1e3 / attempts,
                "driver.virt_tpmc": report.tpmc,
                "driver.virt_elapsed_s": report.elapsed_seconds,
                "driver.aborts": report.aborts,
                "driver.gave_up": report.gave_up,
                "driver.useful_attempt_ratio": report.committed / attempts,
                "driver.cpu_utilization": report.cpu_utilization,
                "driver.disk_utilization": report.disk_utilization,
                "driver.new_order_virt_p95_ms": new_order.p95_ms if new_order else 0.0,
                "driver.mva_ratio": validate_reports([report]).points[0].throughput_ratio,
            }
        )


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _per(seconds: float, count: float) -> float:
    return seconds / count * 1e9 if count else 0.0


WORKLOADS = {
    cls.name: cls
    for cls in (Fig8Sweep, PolicyMatrix, DistCluster, EngineMix, DriverContended)
}


def finish_layers(workload: Workload) -> None:
    """Fill ``workload.layers`` from the tracer once the timed region is over."""
    # The timed region proper: the reference kernel runs between laps.
    wall_s = sum(lap[2] for lap in workload.laps)
    spans, calls = span_metrics(workload.tracer, wall_s)
    workload.layer_counts(spans, calls)
    for key, value in spans.items():
        workload.layers.setdefault(key, value)

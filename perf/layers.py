"""Per-layer metrics: which public calls are wrapped, and what is reported.

Layers are the repo's modules.  ``TARGETS`` lists, per layer, the public
functions and methods whose calls become spans in a traced run;
``PER_LAYER`` lists every per-layer metric with its unit, in the order
``BENCHMARK.json`` carries them.  A metric of a layer that a workload
does not reach is reported as 0.
"""

from __future__ import annotations

from spans import Target, Totals, Tracer

_ENGINE = "repro.engine"

TARGETS = [
    Target("workload", "repro.workload.trace:TraceGenerator.__init__"),
    Target("workload", "repro.workload.trace:TraceGenerator.encoded_batch"),
    Target("workload", "repro.workload.trace:TraceGenerator.stream"),
    Target("buffer.kernels", "repro.buffer.kernels:*.process_batch"),
    Target("buffer.simulator", "repro.buffer.simulator:BufferSimulation.run"),
    Target("stats", "repro.stats.batch_means:BatchMeans.add_batch"),
    Target("stats", "repro.stats.batch_means:BatchMeans.summary"),
    Target("buffer.pool", "repro.buffer.pool:SimulatedBufferPool.access"),
    Target("distributed", "repro.distributed.simulation:simulate_node"),
    Target("distributed.fold", "repro.distributed.simulation:fold_report"),
    Target("tpcc.executor", "repro.tpcc.executor:TpccExecutor.execute_prepared"),
    Target("tpcc.executor", "repro.tpcc.executor:TpccExecutor.prepare"),
    *[
        Target("engine.database", f"{_ENGINE}.database:Transaction.{method}")
        for method in (
            "select", "select_by_index", "select_min", "select_max",
            "range_select", "insert", "update", "delete", "commit", "abort",
        )
    ],
    Target("engine.catalog", f"{_ENGINE}.catalog:TableSchema.pack"),
    Target("engine.catalog", f"{_ENGINE}.catalog:TableSchema.unpack"),
    *[
        Target("engine.heap", f"{_ENGINE}.heap:HeapFile.{method}")
        for method in ("read", "insert", "update", "delete")
    ],
    *[
        Target("engine.index", f"{_ENGINE}.btree:BPlusTree.{method}")
        for method in ("search", "insert", "delete", "range_scan")
    ],
    *[
        Target("engine.index", f"{_ENGINE}.hashindex:*.{method}")
        for method in ("search", "insert", "delete")
    ],
    *[
        Target("engine.bufferpool", f"{_ENGINE}.bufferpool:BufferManager.{method}")
        for method in ("get_page", "new_page", "flush_page")
    ],
    Target("engine.locks", f"{_ENGINE}.locks:LockManager.acquire"),
    Target("engine.locks", f"{_ENGINE}.locks:LockManager.release_all"),
    *[
        Target("engine.wal", f"{_ENGINE}.wal:WriteAheadLog.{method}")
        for method in ("log_begin", "log_change", "log_commit", "log_abort")
    ],
    Target("driver.scheduler", "repro.driver.scheduler:VirtualScheduler.run"),
    # A task thread parks here while the scheduler runs another one.
    Target("driver.scheduler", "repro.driver.scheduler:VirtualScheduler.pause", wait=True),
]

#: (name, unit) of every per-layer metric.  Times are host seconds of the
#: traced run unless the name says otherwise.
PER_LAYER = [
    ("workload.init_s", "s"),
    ("workload.gen_s", "s"),
    ("workload.gen_refs", "count"),
    ("workload.gen_ns_per_ref", "ns"),
    ("workload.share", "ratio"),
    ("buffer.kernels.process_s", "s"),
    ("buffer.kernels.refs", "count"),
    ("buffer.kernels.ns_per_ref", "ns"),
    ("buffer.kernels.misses", "count"),
    ("buffer.kernels.hit_ratio", "ratio"),
    ("buffer.kernels.share", "ratio"),
    ("buffer.simulator.fold_s", "s"),
    ("stats.batch_means_s", "s"),
    ("buffer.pool.access_s", "s"),
    ("buffer.pool.accesses", "count"),
    ("buffer.pool.ns_per_access", "ns"),
    ("buffer.pool.share", "ratio"),
    ("distributed.node_s", "s"),
    ("distributed.node_max_s", "s"),
    ("distributed.route_inbound_s", "s"),
    ("distributed.fold_s", "s"),
    ("distributed.rc_stock_rel_err", "ratio"),
    ("distributed.u_stock_rel_err", "ratio"),
    ("distributed.l_stock_abs_err", "ratio"),
    ("distributed.stock_miss_mean", "ratio"),
    ("exec.serial_s", "s"),
    ("exec.sharded_cold_s", "s"),
    ("exec.sharded_warm_s", "s"),
    ("exec.cache_hits", "count"),
    ("tpcc.loader.load_s", "s"),
    ("tpcc.executor.self_s", "s"),
    ("tpcc.executor.share", "ratio"),
    ("tpcc.executor.retries", "count"),
    ("tpcc.new_order_p50_ms", "ms"),
    ("tpcc.payment_p50_ms", "ms"),
    ("tpcc.order_status_p50_ms", "ms"),
    ("tpcc.delivery_p50_ms", "ms"),
    ("tpcc.stock_level_p50_ms", "ms"),
    ("tpcc.new_order_p99_ms", "ms"),
    ("tpcc.payment_p99_ms", "ms"),
    ("tpcc.order_status_p90_ms", "ms"),
    ("tpcc.delivery_p90_ms", "ms"),
    ("tpcc.stock_level_p90_ms", "ms"),
    ("tpcc.latency_samples", "count"),
    ("engine.database.stmt_s", "s"),
    ("engine.database.statements_per_tx", "1/tx"),
    ("engine.catalog.codec_s", "s"),
    ("engine.catalog.codec_calls_per_tx", "1/tx"),
    ("engine.heap.s", "s"),
    ("engine.index.s", "s"),
    ("engine.index.ops_per_tx", "1/tx"),
    ("engine.bufferpool.get_page_s", "s"),
    ("engine.bufferpool.requests_per_tx", "1/tx"),
    ("engine.bufferpool.hit_ratio", "ratio"),
    ("engine.bufferpool.evictions_per_tx", "1/tx"),
    ("engine.store.reads_per_tx", "1/tx"),
    ("engine.store.writes_per_tx", "1/tx"),
    ("engine.locks.acquire_s", "s"),
    ("engine.locks.acquires_per_tx", "1/tx"),
    ("engine.locks.conflicts", "count"),
    ("engine.wal.append_s", "s"),
    ("engine.wal.records_per_tx", "1/tx"),
    ("engine.wal.bytes_per_tx", "B/tx"),
    ("driver.scheduler.self_s", "s"),
    ("driver.scheduler.share", "ratio"),
    ("driver.host_ms_per_attempt", "ms"),
    ("driver.virt_tpmc", "1/min"),
    ("driver.virt_elapsed_s", "s"),
    ("driver.aborts", "count"),
    ("driver.gave_up", "count"),
    ("driver.useful_attempt_ratio", "ratio"),
    ("driver.cpu_utilization", "ratio"),
    ("driver.disk_utilization", "ratio"),
    ("driver.new_order_virt_p95_ms", "ms"),
    ("driver.mva_ratio", "ratio"),
    ("obs.metrics_enabled_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent_targets", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_share", "ratio"),
]


def span_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], dict[str, int]]:
    """The per-layer metrics that come from spans alone, and calls per layer.

    A layer's time is the self time of its spans, wrapper cost taken
    out; ``trace.busy_s`` is their sum over all layers, and a share is a
    layer's part of that sum.  ``trace.attributed_share`` is the part of
    the traced wall ``wall_s`` that lies inside some root span — it falls
    when a refactor removes a root target and the trace goes blind.
    """
    by_name, busy, waiting = tracer.summary()

    def name(label: str) -> Totals:
        return by_name.get(label, Totals())

    seconds = {layer: totals.self_s for layer, totals in busy.items()}
    scheduler_run = name("VirtualScheduler.run")
    executed = name("TpccExecutor.execute_prepared")
    if scheduler_run.count:
        # While the scheduler waits, exactly one task thread is busy, so
        # what is left of its run after their busy time (and the inputs
        # it draws itself) is hand-off and event handling.
        parked = waiting.get("driver.scheduler", Totals()).total_s
        seconds["driver.scheduler"] = max(
            0.0,
            scheduler_run.total_s
            - (executed.total_s - parked)
            - name("TpccExecutor.prepare").total_s,
        )
    busy_s = sum(seconds.values())

    def layer(label: str) -> float:
        return seconds.get(label, 0.0)

    def share(label: str) -> float:
        return layer(label) / busy_s if busy_s > 0 else 0.0

    pool = busy.get("buffer.pool", Totals())
    node = name("repro.distributed.simulation.simulate_node")
    calls = {label: totals.count for label, totals in busy.items()}
    return {
        "workload.init_s": name("TraceGenerator.__init__").self_s,
        "workload.gen_s": name("TraceGenerator.encoded_batch").self_s
        + name("TraceGenerator.stream").self_s,
        "workload.share": share("workload"),
        "buffer.kernels.process_s": layer("buffer.kernels"),
        "buffer.kernels.share": share("buffer.kernels"),
        "buffer.simulator.fold_s": layer("buffer.simulator"),
        "stats.batch_means_s": layer("stats"),
        "buffer.pool.access_s": pool.self_s,
        "buffer.pool.accesses": pool.count,
        "buffer.pool.ns_per_access": pool.self_s / pool.count * 1e9 if pool.count else 0.0,
        "buffer.pool.share": share("buffer.pool"),
        "distributed.node_s": node.total_s,
        "distributed.node_max_s": node.max_s,
        "distributed.route_inbound_s": node.self_s,
        "distributed.fold_s": layer("distributed.fold"),
        "tpcc.executor.self_s": layer("tpcc.executor"),
        "tpcc.executor.share": share("tpcc.executor"),
        "engine.database.stmt_s": layer("engine.database"),
        "engine.catalog.codec_s": layer("engine.catalog"),
        "engine.heap.s": layer("engine.heap"),
        "engine.index.s": layer("engine.index"),
        "engine.bufferpool.get_page_s": layer("engine.bufferpool"),
        "engine.locks.acquire_s": layer("engine.locks"),
        "engine.wal.append_s": layer("engine.wal"),
        "driver.scheduler.self_s": layer("driver.scheduler"),
        "driver.scheduler.share": share("driver.scheduler"),
        "trace.wall_s": wall_s,
        "trace.busy_s": busy_s,
        "trace.spans": len(tracer),
        "trace.absent_targets": len(tracer.absent),
        "trace.attributed_share": min(1.0, tracer.root_seconds() / wall_s) if wall_s else 0.0,
    }, calls

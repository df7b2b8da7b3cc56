"""The named instruments the repo's hot seams record into.

One module owns every metric name so the JSON schema, the docs table in
``docs/paper_notes.md`` and the instrumented call sites cannot drift
apart.  All instruments live on the process-wide
:func:`~repro.obs.metrics.default_registry` (:data:`REGISTRY` here),
which starts disabled.  Until a run turns collection on, a record call
costs its label kwargs, the call and one flag check; the three seams
the engine crosses dozens of times per transaction
(``BufferManager.get_page``, ``LockManager._try_acquire``,
``WriteAheadLog._append``) guard with ``if instruments.REGISTRY.enabled:``
first, so there it costs the flag check alone.

Naming: ``<seam>.<noun>`` with a ``_total`` suffix for counters.
``deterministic=False`` marks wall-time-derived series, which the
byte-identical-snapshot tests exclude.
"""

from __future__ import annotations

from repro.obs.metrics import DURATION_BUCKETS, OP_COUNT_BUCKETS, default_registry

REGISTRY = default_registry()

# -- trace-driven buffer simulation (paper Fig. 8) ---------------------------

SIM_BUFFER_ACCESSES = REGISTRY.counter(
    "sim.buffer.accesses_total",
    help="measured page references in the trace-driven simulation",
)
SIM_BUFFER_MISSES = REGISTRY.counter(
    "sim.buffer.misses_total",
    help="measured buffer misses in the trace-driven simulation",
)
SIM_BUFFER_EVICTIONS = REGISTRY.counter(
    "sim.buffer.evictions_total",
    help="pages evicted by the simulated pool's replacement policy",
)
SIM_TRANSACTIONS = REGISTRY.counter(
    "sim.transactions_total",
    help="trace transactions generated during measurement",
)
SIM_TX_REFS = REGISTRY.histogram(
    "sim.tx.page_refs",
    help="page references per trace transaction, by transaction type",
    buckets=OP_COUNT_BUCKETS,
)

# -- executable engine: buffer manager ---------------------------------------

ENGINE_BUFFER_REQUESTS = REGISTRY.counter(
    "engine.buffer.requests_total",
    help="page requests against the engine buffer manager (outcome=hit|miss)",
)
ENGINE_BUFFER_EVICTIONS = REGISTRY.counter(
    "engine.buffer.evictions_total",
    help="frames evicted by the engine buffer manager (outcome=evicted|deferred)",
)

# -- executable engine: lock manager -----------------------------------------

LOCK_ACQUISITIONS = REGISTRY.counter(
    "engine.locks.acquisitions_total",
    help="locks granted, by mode",
)
LOCK_CONFLICTS = REGISTRY.counter(
    "engine.locks.conflicts_total",
    help="lock requests denied by a conflicting holder",
)
LOCK_TIMEOUTS = REGISTRY.counter(
    "engine.locks.timeouts_total",
    help="lock waits abandoned at the timeout deadline",
)
LOCK_WAIT_DEPTH = REGISTRY.gauge(
    "engine.locks.wait_depth",
    help="concurrent lock waiters (peak survives snapshot merges)",
)
LOCK_DEADLOCKS = REGISTRY.counter(
    "engine.locks.deadlocks_total",
    help="waits-for cycles resolved, by kind=detected|injected",
)
LOCK_VICTIMS = REGISTRY.counter(
    "engine.locks.victims_total",
    help="transactions doomed as deadlock victims, by victim policy",
)
LOCK_WAIT_CHAIN = REGISTRY.histogram(
    "engine.locks.wait_chain",
    help="members per resolved waits-for cycle",
    buckets=OP_COUNT_BUCKETS,
)

# -- executable engine: write-ahead log --------------------------------------

WAL_APPENDS = REGISTRY.counter(
    "engine.wal.appends_total",
    help="records appended to the write-ahead log, by record type",
)
WAL_BYTES = REGISTRY.counter(
    "engine.wal.bytes_total",
    help="bytes appended to the write-ahead log",
)
WAL_REPLAYS = REGISTRY.counter(
    "engine.wal.replays_total",
    help="change records replayed during crash recovery",
)

# -- TPC-C executor -----------------------------------------------------------

TX_COMMITS = REGISTRY.counter(
    "tpcc.tx.commits_total",
    help="committed transactions, by transaction type",
)
TX_ABORTS = REGISTRY.counter(
    "tpcc.tx.aborts_total",
    help="transactions aborted by transient errors, by transaction type",
)
TX_RETRIES = REGISTRY.counter(
    "tpcc.tx.retries_total",
    help="retry attempts after transient aborts",
)
TX_OPS = REGISTRY.histogram(
    "tpcc.tx.ops",
    help="SQL calls per committed transaction, by transaction type",
    buckets=OP_COUNT_BUCKETS,
)
TX_SECONDS = REGISTRY.histogram(
    "tpcc.tx.seconds",
    help="wall-clock latency per committed transaction (non-deterministic)",
    deterministic=False,
    buckets=DURATION_BUCKETS,
)

# -- concurrent benchmark driver ----------------------------------------------

DRIVER_TX_COMPLETIONS = REGISTRY.counter(
    "driver.tx.completions_total",
    help="terminal requests finished by the driver, by tx and outcome",
)
DRIVER_TX_VIRTUAL_SECONDS = REGISTRY.histogram(
    "driver.tx.virtual_seconds",
    help="virtual-time latency per committed transaction, by transaction type",
    buckets=DURATION_BUCKETS,
)
DRIVER_STATEMENTS = REGISTRY.counter(
    "driver.statements_total",
    help="statements serialized through the virtual scheduler, by kind",
)
DRIVER_SHED = REGISTRY.counter(
    "driver.shed_total",
    help="terminal requests shed under overload, by reason=admission|retry",
)
DRIVER_RECOVERIES = REGISTRY.counter(
    "driver.recoveries_total",
    help="mid-benchmark crash/recover cycles completed by the driver",
)

# -- distributed multi-node buffer simulation (Appendix A) --------------------

DIST_NODES = REGISTRY.counter(
    "dist.nodes_total",
    help="node simulations folded into a distributed report",
)
DIST_REMOTE_STOCK_CALLS = REGISTRY.counter(
    "dist.remote.stock_calls_total",
    help="outbound remote stock lines measured, summed over nodes",
)
DIST_REMOTE_PAYMENTS = REGISTRY.counter(
    "dist.remote.payments_total",
    help="outbound remote Payments measured, summed over nodes",
)

# -- execution engine (process fan-out) ---------------------------------------

EXEC_CACHE_LOOKUPS = REGISTRY.counter(
    "exec.cache.lookups_total",
    help="result-cache lookups, by outcome=hit|miss",
)
EXEC_UNIT_SECONDS = REGISTRY.histogram(
    "exec.unit.seconds",
    help="wall-clock duration per executed work unit (non-deterministic)",
    deterministic=False,
    buckets=DURATION_BUCKETS,
)

__all__ = [
    "DIST_NODES",
    "DIST_REMOTE_PAYMENTS",
    "DIST_REMOTE_STOCK_CALLS",
    "DRIVER_RECOVERIES",
    "DRIVER_SHED",
    "DRIVER_STATEMENTS",
    "DRIVER_TX_COMPLETIONS",
    "DRIVER_TX_VIRTUAL_SECONDS",
    "ENGINE_BUFFER_EVICTIONS",
    "ENGINE_BUFFER_REQUESTS",
    "EXEC_CACHE_LOOKUPS",
    "EXEC_UNIT_SECONDS",
    "LOCK_ACQUISITIONS",
    "LOCK_CONFLICTS",
    "LOCK_DEADLOCKS",
    "LOCK_TIMEOUTS",
    "LOCK_VICTIMS",
    "LOCK_WAIT_CHAIN",
    "LOCK_WAIT_DEPTH",
    "REGISTRY",
    "SIM_BUFFER_ACCESSES",
    "SIM_BUFFER_EVICTIONS",
    "SIM_BUFFER_MISSES",
    "SIM_TRANSACTIONS",
    "SIM_TX_REFS",
    "TX_ABORTS",
    "TX_COMMITS",
    "TX_OPS",
    "TX_RETRIES",
    "TX_SECONDS",
    "WAL_APPENDS",
    "WAL_BYTES",
    "WAL_REPLAYS",
]

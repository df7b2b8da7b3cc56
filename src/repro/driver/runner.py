"""Run a :class:`BenchmarkSpec` end to end and build the report.

``run_benchmark`` is the public entry point behind ``python -m repro
bench``.

Chaos wiring: when the spec carries a :class:`FaultPlan` it is armed
*after* loading (the initial population is never faulted) with a clock
matching the scheduler — virtual time under the deterministic
scheduler, wall time under the worker pool — so time-scoped rules and
the circuit breaker behave identically across replays of a seeded
virtual run.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.driver.pool import WorkerPool
from repro.driver.report import DeadlockStats, DriverReport, ShedStats, TxStats
from repro.driver.scheduler import RunOutcome, VirtualScheduler
from repro.driver.spec import BenchmarkSpec
from repro.engine.database import Database
from repro.faults import FaultInjector, FaultKind
from repro.tpcc.executor import CircuitBreaker, ExecutionSummary, TpccExecutor
from repro.tpcc.loader import load_tpcc


def build_executors(
    db: Database,
    spec: BenchmarkSpec,
    sleep: Any,
    breaker: CircuitBreaker | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> list[TpccExecutor]:
    """One executor per terminal with collision-free seeds and h_ids."""
    return [
        TpccExecutor(
            db=db,
            config=spec.tpcc,
            seed=[spec.seed, 1, terminal],
            retry_policy=spec.retry,
            sleep=sleep,
            history_offset=terminal,
            history_stride=spec.terminals,
            terminal=terminal,
            breaker=breaker,
            clock=clock,
        )
        for terminal in range(spec.terminals)
    ]


def run_benchmark(spec: BenchmarkSpec, db: Database | None = None) -> DriverReport:
    """Load (unless given), drive, and summarize one benchmark run."""
    if db is None:
        db = load_tpcc(spec.tpcc)
    db.locks.default_timeout = spec.lock_timeout_seconds
    db.locks.victim_policy = spec.victim_policy
    locks_before = db.locks.contention()

    injector: FaultInjector | None = None
    if spec.faults is not None:
        injector = FaultInjector(spec.faults)
    breaker = CircuitBreaker(spec.breaker) if spec.breaker is not None else None

    outcome: RunOutcome
    if spec.scheduler == "virtual":
        scheduler = VirtualScheduler(db, spec)

        def virtual_clock() -> float:
            return scheduler.now

        clock: Callable[[], float] = virtual_clock
        if injector is not None:
            injector.set_clock(clock)
            db.attach_injector(injector)
        executors = build_executors(
            db, spec, sleep=scheduler.gate.sleep, breaker=breaker, clock=clock
        )
        outcome = scheduler.run(executors)
    else:
        started_at = time.monotonic()

        def wall_clock() -> float:
            return time.monotonic() - started_at

        clock = wall_clock
        if injector is not None:
            injector.set_clock(clock)
            db.attach_injector(injector)
        executors = build_executors(
            db, spec, sleep=time.sleep, breaker=breaker, clock=clock
        )
        outcome = WorkerPool(db, spec).run(executors)
    if injector is not None:
        db.attach_injector(None)

    merged = ExecutionSummary()
    for executor in executors:
        merged = merged.merge(executor.summary)

    locks_after = db.locks.contention()
    conflicts = locks_after["conflicts"] - locks_before["conflicts"]
    timeouts = locks_after["timeouts"] - locks_before["timeouts"]
    waits = locks_after["waits"] - locks_before["waits"]
    injected = injector.fired(FaultKind.DEADLOCK) if injector is not None else 0
    deadlocks = DeadlockStats(
        detected=locks_after["deadlocks"] - locks_before["deadlocks"] - injected,
        injected=injected,
        victims=locks_after["victims"] - locks_before["victims"],
        wait_chain_max=locks_after["wait_chain_max"],
        policy=spec.victim_policy,
    )
    shed = ShedStats(
        admission=outcome.shed_admission,
        max_queue_depth=outcome.max_queue_depth,
        retry_short_circuits=breaker.short_circuits if breaker is not None else 0,
        breaker_opens=breaker.opens if breaker is not None else 0,
    )

    committed = merged.total
    elapsed = outcome.elapsed_seconds
    per_tx = {
        tx: TxStats.from_latencies(
            outcome.latencies.get(tx, []), aborted=merged.aborted.get(tx, 0)
        )
        for tx in sorted(set(outcome.latencies) | set(merged.executed))
    }
    new_orders = merged.executed.get("new_order", 0)
    cpu_demand = outcome.cpu_busy_seconds / committed if committed else 0.0
    disk_demand = outcome.disk_busy_seconds / committed if committed else 0.0
    return DriverReport(
        spec=spec,
        elapsed_seconds=elapsed,
        committed=committed,
        tpmc=new_orders / elapsed * 60.0 if elapsed > 0 else 0.0,
        throughput_tps=committed / elapsed if elapsed > 0 else 0.0,
        per_tx=per_tx,
        aborts=merged.total_aborted,
        retries=merged.retries,
        gave_up=merged.gave_up,
        lock_conflicts=conflicts,
        lock_timeouts=timeouts,
        lock_waits=waits,
        cpu_busy_seconds=outcome.cpu_busy_seconds,
        disk_busy_seconds=outcome.disk_busy_seconds,
        cpu_utilization=outcome.cpu_busy_seconds / elapsed if elapsed > 0 else 0.0,
        disk_utilization=outcome.disk_busy_seconds / elapsed if elapsed > 0 else 0.0,
        cpu_demand_seconds=cpu_demand,
        disk_demand_seconds=disk_demand,
        deterministic=spec.scheduler == "virtual",
        summary=merged,
        deadlocks=deadlocks,
        recovery=outcome.recovery,
        shed=shed,
        faults_fired=injector.fired() if injector is not None else 0,
    )

"""The driver's result shape: tpmC, latency percentiles, contention.

:class:`DriverReport` is the eighth member of the repo's unified
:class:`~repro.results.Report` family — ``to_dict`` writes the tagged
JSON document, a ``metrics`` field carries an optional observability
snapshot, and ``render()`` produces the text table the CLI emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.driver.spec import BenchmarkSpec
from repro.obs.metrics import MetricsSnapshot
from repro.results import ReportMixin
from repro.tpcc.executor import ExecutionSummary
from repro.workload.mix import TRANSACTION_ORDER


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class TxStats(ReportMixin):
    """Latency and outcome statistics of one transaction type."""

    committed: int = 0
    aborted: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0

    @classmethod
    def from_latencies(
        cls, latencies_seconds: list[float], aborted: int = 0
    ) -> "TxStats":
        """Summarize a sample of per-transaction latencies (seconds)."""
        ordered = sorted(latencies_seconds)
        mean = sum(ordered) / len(ordered) if ordered else 0.0
        return cls(
            committed=len(ordered),
            aborted=aborted,
            p50_ms=percentile(ordered, 0.50) * 1000.0,
            p95_ms=percentile(ordered, 0.95) * 1000.0,
            p99_ms=percentile(ordered, 0.99) * 1000.0,
            mean_ms=mean * 1000.0,
        )


@dataclass(frozen=True)
class DeadlockStats(ReportMixin):
    """Waits-for deadlock activity of one run."""

    #: Cycles found by the waits-for detector.
    detected: int = 0
    #: Deadlock faults fired by the injector (virtual-mode chaos).
    injected: int = 0
    #: Transactions aborted as victims.
    victims: int = 0
    #: Longest waits-for cycle resolved (members).
    wait_chain_max: int = 0
    #: Victim policy the run used.
    policy: str = "youngest"


@dataclass(frozen=True)
class RecoveryWindow(ReportMixin):
    """One mid-benchmark crash()/recover() cycle as the driver saw it."""

    #: Virtual instant the crash fired.
    at_seconds: float = 0.0
    #: Modeled outage: WAL replay served sequentially by the disk arms.
    duration_seconds: float = 0.0
    #: Change records replayed by recovery.
    replayed_records: int = 0
    #: Transactions in flight at the crash (all rolled back).
    in_flight_aborted: int = 0


@dataclass(frozen=True)
class ShedStats(ReportMixin):
    """Load shed under overload instead of queued into livelock."""

    #: Requests dropped at the admission gate's queue deadline.
    admission: int = 0
    #: Peak admission-queue depth behind the max_in_flight gate.
    max_queue_depth: int = 0
    #: Retries short-circuited by the open circuit breaker.
    retry_short_circuits: int = 0
    #: Times the circuit breaker opened.
    breaker_opens: int = 0


@dataclass(frozen=True)
class DriverReport(ReportMixin):
    """Measured outcome of one :class:`BenchmarkSpec` run.

    Schema version 2 added the chaos blocks: ``deadlocks``,
    ``recovery``, ``shed`` and ``faults_fired``.
    """

    schema_version = 2

    spec: BenchmarkSpec
    elapsed_seconds: float
    committed: int
    tpmc: float
    throughput_tps: float
    per_tx: dict[str, TxStats]
    aborts: int
    retries: int
    gave_up: int
    lock_conflicts: int
    lock_timeouts: int
    lock_waits: int
    cpu_busy_seconds: float
    disk_busy_seconds: float
    cpu_utilization: float
    disk_utilization: float
    cpu_demand_seconds: float
    disk_demand_seconds: float
    deterministic: bool
    summary: ExecutionSummary
    deadlocks: DeadlockStats = field(default_factory=DeadlockStats)
    recovery: RecoveryWindow | None = field(default=None)
    shed: ShedStats = field(default_factory=ShedStats)
    faults_fired: int = 0
    metrics: MetricsSnapshot | None = field(default=None)

    @property
    def response_seconds(self) -> float:
        """Committed-transaction mean residence time (all types pooled)."""
        total = sum(
            stats.mean_ms * stats.committed for stats in self.per_tx.values()
        )
        return (total / self.committed / 1000.0) if self.committed else 0.0

    def as_rows(self) -> list[dict[str, object]]:
        """Per-transaction-type rows for the text table."""
        rows = []
        for tx in TRANSACTION_ORDER:
            stats = self.per_tx.get(tx.value)
            if stats is None:
                continue
            rows.append(
                {
                    "tx": tx.value,
                    "committed": stats.committed,
                    "aborted": stats.aborted,
                    "p50 ms": round(stats.p50_ms, 3),
                    "p95 ms": round(stats.p95_ms, 3),
                    "p99 ms": round(stats.p99_ms, 3),
                    "mean ms": round(stats.mean_ms, 3),
                }
            )
        return rows

    def render(self) -> str:
        """The CLI's text form: headline figures plus the per-tx table."""
        from repro.experiments.report import render_table

        lines = [
            f"terminals={self.spec.terminals} scheduler={self.spec.scheduler} "
            "(virtual time)",
            f"elapsed {self.elapsed_seconds:.3f} s, "
            f"{self.committed} committed, "
            f"tpmC {self.tpmc:.1f}, throughput {self.throughput_tps:.2f} tx/s",
            f"aborts {self.aborts}, retries {self.retries}, "
            f"gave up {self.gave_up}; lock conflicts {self.lock_conflicts}, "
            f"timeouts {self.lock_timeouts}, waits {self.lock_waits}",
            f"cpu util {self.cpu_utilization:.3f}, "
            f"disk util {self.disk_utilization:.3f}",
        ]
        if (
            self.deadlocks.detected
            or self.deadlocks.injected
            or self.deadlocks.victims
        ):
            lines.append(
                f"deadlocks {self.deadlocks.detected} detected "
                f"+ {self.deadlocks.injected} injected, "
                f"{self.deadlocks.victims} victims "
                f"(policy {self.deadlocks.policy}, "
                f"longest chain {self.deadlocks.wait_chain_max})"
            )
        if self.recovery is not None:
            lines.append(
                f"crash at {self.recovery.at_seconds:.3f} s: replayed "
                f"{self.recovery.replayed_records} records in "
                f"{self.recovery.duration_seconds:.3f} s, aborted "
                f"{self.recovery.in_flight_aborted} in-flight"
            )
        if (
            self.shed.admission
            or self.shed.retry_short_circuits
            or self.shed.breaker_opens
        ):
            lines.append(
                f"shed {self.shed.admission} at admission "
                f"(peak queue {self.shed.max_queue_depth}), "
                f"{self.shed.retry_short_circuits} retries short-circuited "
                f"({self.shed.breaker_opens} breaker opens)"
            )
        if self.faults_fired:
            lines.append(f"faults fired {self.faults_fired}")
        lines += [
            "",
            render_table(self.as_rows(), title="per-transaction latency"),
        ]
        return "\n".join(lines)

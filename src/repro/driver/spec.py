"""The benchmark specification: one kw-only dataclass describing a run.

A :class:`BenchmarkSpec` captures everything the concurrent driver
needs — terminal population, stop condition (virtual duration *or* a
transaction count), transaction mix, think/keying times, retry policy,
lock-conflict policy and seed — so a run is reproducible from the spec
alone and specs compose with ``.replace()`` like the repo's other
``*Config`` dataclasses (REP003).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace

from repro.engine.deadlock import VICTIM_POLICIES
from repro.faults.plan import FaultPlan
from repro.throughput.params import CostParameters
from repro.tpcc.executor import BreakerPolicy, RetryPolicy
from repro.tpcc.loader import TpccConfig
from repro.workload.mix import DEFAULT_MIX, TransactionMix

@dataclass(frozen=True, kw_only=True)
class BenchmarkSpec:
    """Parameters of one concurrent TPC-C benchmark run (keyword-only).

    Exactly one of ``duration_seconds`` (virtual time) and
    ``transactions`` (a total transaction count split across
    terminals) must be set.  ``scheduler`` names the one scheduler
    there is, the deterministic virtual-time event loop.
    """

    terminals: int = 8
    duration_seconds: float | None = None
    transactions: int | None = 400
    mix: TransactionMix = DEFAULT_MIX
    think_time_seconds: float = 1.0
    keying_time_seconds: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    scheduler: str = "virtual"
    max_in_flight: int | None = None
    tpcc: TpccConfig = field(default_factory=TpccConfig)
    params: CostParameters = field(default_factory=CostParameters)
    disk_arms: int = 8
    #: Seeded fault schedule armed after loading (None = no chaos).
    faults: FaultPlan | None = None
    #: Virtual instant of a mid-benchmark crash()/recover() cycle.
    crash_at_seconds: float | None = None
    #: Lock-conflict policy: 0 keeps no-wait; > 0 parks a blocked
    #: statement for up to this many virtual seconds, with waits-for
    #: deadlock detection at park time.
    lock_timeout_seconds: float = 0.0
    #: Deadlock victim policy: youngest | oldest | fewest_locks.
    victim_policy: str = "youngest"
    #: Admission gate: longest a terminal may queue behind
    #: ``max_in_flight`` before being shed (None = wait forever).
    queue_deadline_seconds: float | None = None
    #: Retry-storm circuit breaker (None = retries never short-circuit).
    breaker: BreakerPolicy | None = None

    def __post_init__(self) -> None:
        if self.terminals < 1:
            raise ValueError(f"terminals must be >= 1, got {self.terminals}")
        if (self.duration_seconds is None) == (self.transactions is None):
            raise ValueError(
                "exactly one of duration_seconds and transactions must be set"
            )
        if self.duration_seconds is not None and self.duration_seconds <= 0:
            raise ValueError(
                f"duration_seconds must be positive, got {self.duration_seconds}"
            )
        if self.transactions is not None and self.transactions < 1:
            raise ValueError(
                f"transactions must be >= 1, got {self.transactions}"
            )
        if self.think_time_seconds < 0 or self.keying_time_seconds < 0:
            raise ValueError("think/keying times must be non-negative")
        if self.scheduler != "virtual":
            raise ValueError(
                f"scheduler must be 'virtual', got {self.scheduler!r}: the "
                "threads scheduler was removed (blocking lock waits run in "
                "virtual time with lock_timeout_seconds > 0)"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.disk_arms < 1:
            raise ValueError(f"disk_arms must be >= 1, got {self.disk_arms}")
        if self.crash_at_seconds is not None and self.crash_at_seconds <= 0:
            raise ValueError(
                f"crash_at_seconds must be positive, got {self.crash_at_seconds}"
            )
        if self.lock_timeout_seconds < 0:
            raise ValueError(
                f"lock_timeout_seconds must be >= 0, got {self.lock_timeout_seconds}"
            )
        if self.victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"victim_policy must be one of {VICTIM_POLICIES}, "
                f"got {self.victim_policy!r}"
            )
        if self.queue_deadline_seconds is not None:
            if self.max_in_flight is None:
                raise ValueError(
                    "queue_deadline_seconds requires max_in_flight "
                    "(there is no admission queue without a gate)"
                )
            if self.queue_deadline_seconds <= 0:
                raise ValueError(
                    "queue_deadline_seconds must be positive, "
                    f"got {self.queue_deadline_seconds}"
                )
        self.mix.validate()

    def replace(self, **overrides: object) -> "BenchmarkSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclass_replace(self, **overrides)

    @property
    def cycle_delay_seconds(self) -> float:
        """The delay-station demand: think plus keying time."""
        return self.think_time_seconds + self.keying_time_seconds

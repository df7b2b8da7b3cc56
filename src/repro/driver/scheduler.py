"""Deterministic virtual-time scheduling of concurrent terminals.

The paper's closed model (Figures 9–10) is a queueing network: N
terminals cycle through a think delay, a CPU station and a disk
station.  :class:`VirtualScheduler` is that network made executable
with the *real* engine in the loop: every transaction runs the actual
``TpccExecutor`` code — real tuple locks, real WAL, real buffer pool —
but time is virtual and costs come from the paper's Table 4 parameters,
so runs are deterministic, byte-identical per seed, and directly
comparable with exact MVA.

How it works: a discrete-event simulation, one thread popping one heap.
Each in-flight transaction is a *statement sequence* — the generator
``TpccExecutor.prepared_steps`` returns — that executes one SQL call
and suspends.  A *statement gate* (installed via
:meth:`Database.set_statement_gate`) meters each call — CPU
K-instructions from the transaction's call census, disk demand from
buffer misses — and records the cost; the loop serves it through FCFS
CPU and disk stations and pushes a ``resume`` event at the completion
time.  Popping that event resumes the sequence for its next statement,
so statements of different transactions interleave at statement
granularity and locks conflict across in-flight transactions exactly
as they would under a real concurrent driver.  Determinism needs no
argument beyond the loop itself: one thread, one heap, ties broken by
push order.

Lock conflicts follow the spec's policy.  Under no-wait
(``lock_timeout_seconds == 0``) a conflict aborts the transaction,
which retries under its :class:`~repro.tpcc.executor.RetryPolicy`.
Under the blocking policy (``> 0``) the blocked statement comes back as
a :class:`~repro.engine.locks.LockWait` and its task *parks*: no
station serves it while it waits.  The waits-for cycle check runs once,
at park time, and a deadlock victim gets a ``DeadlockError`` thrown
into its sequence.  The holder's commit or abort wakes the waiters at
the current virtual instant, in park order, and each re-runs its
statement from the start; a ``timeout`` event at park time plus the
budget throws ``LockConflictError`` into a waiter still parked.
"""

from __future__ import annotations

import contextvars
import heapq
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager

import numpy as np

from repro.driver.report import RecoveryWindow
from repro.driver.spec import BenchmarkSpec
from repro.engine.database import Database, Transaction
from repro.engine.locks import LockWait
from repro.obs import instruments
from repro.throughput.params import CostParameters
from repro.tpcc.executor import TRANSIENT_ERRORS, PreparedTransaction, Steps, TpccExecutor


@dataclass
class RunOutcome:
    """What a scheduler run measured."""

    elapsed_seconds: float
    latencies: dict[str, list[float]]
    started: int
    completed: int
    cpu_busy_seconds: float = 0.0
    disk_busy_seconds: float = 0.0
    shed_admission: int = 0
    max_queue_depth: int = 0
    recovery: RecoveryWindow | None = None


class _Station:
    """One FCFS queueing station in virtual time.

    ``VirtualScheduler._step`` serves a request inline: it starts at
    ``max(arrival, free_at)``, ends ``demand`` later, and moves
    ``free_at`` there and ``busy_seconds`` on by ``demand``.
    """

    __slots__ = ("free_at", "busy_seconds")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_seconds = 0.0


class _Task:
    """One in-flight transaction bound to a terminal."""

    __slots__ = (
        "terminal",
        "prepared",
        "start_time",
        "steps",
        "context",
        "value",
        "error",
        "last_txn_id",
        "outcome",
    )

    def __init__(
        self, terminal: int, prepared: PreparedTransaction, start_time: float, steps: Steps
    ):
        self.terminal = terminal
        self.prepared = prepared
        self.start_time = start_time
        self.steps = steps
        #: Every resume runs inside it, so context-local state a
        #: sequence sets (the fault injector's scope) stays its own.
        self.context = contextvars.copy_context()
        #: What the sequence last yielded; sent back in on resume (a
        #: ``LockWait`` is re-run instead: the task is parked on it).
        self.value: Any = None
        #: An error to throw into the sequence on resume (deadlock
        #: victim, lock-wait timeout).
        self.error: BaseException | None = None
        self.last_txn_id = -1
        self.outcome = "running"


class StatementGate:
    """Where a sequence's statements are priced for the scheduler.

    Installed on the database for the duration of a virtual run; every
    statement body passes through :meth:`statement`, which meters the
    statement's Table 4 cost and leaves it in :attr:`request`.  The
    sequence then suspends, and the scheduler takes the request and
    serves it through the stations.  ``sleep`` gives the executor's
    retry backoff the same treatment (virtual, not real, delay).

    The gate is itself the context manager :meth:`statement` returns,
    which is safe because statements never nest and a parked statement
    re-runs from its start in a later step.  On entry it snapshots the
    call census and the buffer misses, and the held locks only for
    ``commit`` and ``abort``, the two kinds priced per lock.  The buffer
    and lock managers are read through the database at each use, since
    ``Database.crash`` replaces both.
    """

    txn: Transaction
    kind: str
    selects: int
    updates: int
    inserts: int
    deletes: int
    non_unique_selects: int
    joins: int
    misses: int
    locks_held: int

    def __init__(self, db: Database, params: CostParameters):
        self.db = db
        self._params = params
        #: The task whose sequence the scheduler is resuming right now.
        self.task: _Task | None = None
        #: ``("stmt", (cpu_k, misses))`` or ``("sleep", seconds)``
        #: recorded by the current step and not yet served.
        self.request: tuple[str, Any] | None = None

    def check_served(self, kind: str) -> None:
        """One request per suspension: a forgotten ``yield`` must not merge two."""
        if self.request is not None:
            raise RuntimeError(
                f"{kind} started while the previous {self.request[0]} request "
                "was unserved: the sequence must yield after every statement"
            )

    def take(self) -> tuple[str, Any] | None:
        """Hand the recorded request (if any) to the scheduler."""
        request, self.request = self.request, None
        return request

    def statement(self, txn: Transaction, kind: str) -> ContextManager[None]:
        if self.task is None:  # not a sequence step (e.g. an abort on close)
            return nullcontext()
        self.txn = txn
        self.kind = kind
        return self

    def __enter__(self) -> None:
        if self.request is not None:
            self.check_served(self.kind)
        txn = self.txn
        calls = txn.calls
        self.selects = calls.selects
        self.updates = calls.updates
        self.inserts = calls.inserts
        self.deletes = calls.deletes
        self.non_unique_selects = calls.non_unique_selects
        self.joins = calls.joins
        db = self.db
        self.misses = db.buffers.stats.total_misses
        if self.kind in ("commit", "abort"):
            self.locks_held = db.locks.locks_held(txn.txn_id)

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        txn = self.txn
        calls = txn.calls
        if exc_type is LockWait:
            # Parked: the statement re-runs from its start when woken,
            # so this pass is neither counted nor priced.
            calls.selects = self.selects
            calls.updates = self.updates
            calls.inserts = self.inserts
            calls.deletes = self.deletes
            calls.non_unique_selects = self.non_unique_selects
            calls.joins = self.joins
            return
        # Also on failure: the statement ran, so it is priced and served:
        # Table 4 K-instructions for the CPU, buffer misses for the disk.
        p = self._params
        misses = self.db.buffers.stats.total_misses - self.misses
        cpu_k = (
            (calls.selects - self.selects) * p.select_k
            + (calls.updates - self.updates) * p.update_k
            + (calls.inserts - self.inserts) * p.insert_k
            + (calls.deletes - self.deletes) * p.delete_k
            + (calls.non_unique_selects - self.non_unique_selects)
            * p.non_unique_select_k
            + (calls.joins - self.joins) * p.join_k
            + p.application_k  # application code between SQL calls
            + misses * p.init_io_k  # I/O initiation per buffer miss
        )
        # statement() hands the gate out only while a task is being resumed.
        task: _Task = self.task  # type: ignore[assignment]
        if task.last_txn_id != txn.txn_id:
            task.last_txn_id = txn.txn_id
            cpu_k += p.init_transaction_k + p.application_k
        kind = self.kind
        if kind == "commit":
            # Commit log write plus one lock release per held lock.
            cpu_k += p.commit_k + p.init_io_k
            cpu_k += self.locks_held * p.release_lock_k
        elif kind == "abort":
            cpu_k += self.locks_held * p.release_lock_k
        self.request = ("stmt", (cpu_k, misses))
        if instruments.REGISTRY.enabled:
            instruments.DRIVER_STATEMENTS.inc(kind=kind)

    def sleep(self, seconds: float) -> None:
        """Virtual sleep (retry backoff) of the sequence being resumed."""
        if self.task is None:
            return
        self.check_served("sleep")
        self.request = ("sleep", seconds)


class VirtualScheduler:
    """Discrete-event execution of a :class:`BenchmarkSpec`.

    Events are ``(time, seq, kind, payload)`` on a heap: ``start``
    launches a terminal's next transaction, ``resume`` continues a task
    whose statement or backoff completed (or whose lock wait ended),
    ``timeout`` ends a lock wait that outlived its budget.  A resumed
    sequence runs until it has executed one statement (or recorded one
    sleep) and suspended again, or until it parks on a lock.
    """

    def __init__(self, db: Database, spec: BenchmarkSpec):
        self._db = db
        self.spec = spec
        self.gate = StatementGate(db, spec.params)
        self._cpu = _Station()
        self._disk = _Station()
        self._events: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self._now = 0.0
        self._started = 0
        self._completed = 0
        #: Tasks whose sequence is suspended or running, in spawn order
        #: (a dict, not a set: ``run`` closes leftovers in this order).
        self._in_flight: dict[_Task, None] = {}
        #: Parked tasks by transaction id, in park order.
        self._parked: dict[int, _Task] = {}
        #: Admission queue: (terminal, arrival time) FIFO behind the
        #: max_in_flight gate.
        self._waiting: list[tuple[int, float]] = []
        self._shed_admission = 0
        self._max_queue_depth = 0
        self._recovery: RecoveryWindow | None = None
        self._latencies: dict[str, list[float]] = {}
        self._errors: list[Exception] = []
        self._terminal_rngs = [
            np.random.default_rng([spec.seed, 7, terminal])
            for terminal in range(spec.terminals)
        ]
        self._executors: list[TpccExecutor] = []
        self._deadline = spec.duration_seconds
        self._quota = spec.transactions

    @property
    def now(self) -> float:
        """The current virtual time (the injector/breaker clock seam)."""
        return self._now

    # -- scheduling primitives -------------------------------------------------

    def _push(self, time_: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (time_, self._seq, kind, payload))
        self._seq += 1

    def _cycle_delay(self, terminal: int) -> float:
        """Think (exponential) plus keying (constant) time for a terminal."""
        rng = self._terminal_rngs[terminal]
        think = 0.0
        if self.spec.think_time_seconds > 0:
            think = float(rng.exponential(self.spec.think_time_seconds))
        return think + self.spec.keying_time_seconds

    # -- run loop ---------------------------------------------------------------

    def run(self, executors: list[TpccExecutor]) -> RunOutcome:
        """Execute the spec to completion; returns the measurements."""
        self._executors = executors
        self._db.set_statement_gate(self.gate)
        try:
            for terminal in range(self.spec.terminals):
                self._push(self._cycle_delay(terminal), "start", terminal)
            if self.spec.crash_at_seconds is not None:
                self._push(self.spec.crash_at_seconds, "crash", None)
            events = self._events
            pop = heapq.heappop
            step = self._step
            while events:
                time_, _, kind, payload = pop(events)
                if time_ > self._now:
                    self._now = time_
                if kind == "resume":
                    step(payload)  # type: ignore[arg-type]
                elif kind == "start":
                    self._handle_start(int(payload))  # type: ignore[arg-type]
                elif kind == "timeout":
                    self._handle_timeout(payload)  # type: ignore[arg-type]
                elif kind == "crash":
                    self._handle_crash()
                else:
                    self._handle_shed(payload)  # type: ignore[arg-type]
        finally:
            self._db.set_statement_gate(None)
            # Only an exception out of the loop leaves sequences behind;
            # closing them, oldest spawn first, aborts their transactions
            # (ungated by now).
            for task in self._in_flight:
                task.context.run(task.steps.close)
            # The executors hold this scheduler's clock and gate, so
            # keeping them would make a cycle that holds every
            # terminal's input blocks until a full collection.
            self._executors = []
        if self._errors:
            raise self._errors[0]
        return RunOutcome(
            elapsed_seconds=self._now,
            latencies=self._latencies,
            started=self._started,
            completed=self._completed,
            cpu_busy_seconds=self._cpu.busy_seconds,
            disk_busy_seconds=self._disk.busy_seconds,
            shed_admission=self._shed_admission,
            max_queue_depth=self._max_queue_depth,
            recovery=self._recovery,
        )

    def _step(self, task: _Task) -> None:
        """Resume ``task`` until it has a request to serve, has parked, or has ended.

        A suspension without a request (the statement raised before it
        reached the gate, or was the post-crash no-op abort) costs no
        virtual time: the sequence is resumed again at once.
        """
        gate = self.gate
        gate.task = task
        try:
            request = None
            while request is None:
                if task.error is None and type(task.value) is not LockWait:
                    task.value = task.context.run(task.steps.send, task.value)
                else:
                    task.value = self._resume_blocked(task)
                request = gate.request
                if request is not None:
                    gate.request = None
                elif type(task.value) is LockWait and self._park(task):
                    break
        except StopIteration:
            task.outcome = "committed"
        except TRANSIENT_ERRORS:
            task.outcome = "gave_up"
        except Exception as error:  # fatal: surfaced after the run
            task.outcome = "error"
            self._errors.append(error)
        finally:
            gate.task = None
        if self._db.locks.woken:
            self._wake()
        if task.outcome != "running":
            if gate.take() is not None:
                self._errors.append(
                    RuntimeError(
                        f"terminal {task.terminal}: sequence ended with an "
                        "unserved request (no yield after its last statement)"
                    )
                )
            self._complete(task)
            return
        if request is None:
            return  # parked
        if request[0] == "stmt":
            # The CPU station, then the disk station: FCFS, each starting
            # at max(arrival, free_at).
            cpu_k, misses = request[1]
            params = self.spec.params
            demand = cpu_k / params.k_instructions_per_second
            station = self._cpu
            end = max(self._now, station.free_at) + demand
            station.free_at = end
            station.busy_seconds += demand
            demand = misses * params.disk_service_ms / 1000.0 / self.spec.disk_arms
            station = self._disk
            end = max(end, station.free_at) + demand
            station.free_at = end
            station.busy_seconds += demand
        else:  # sleep
            end = self._now + float(request[1])
        heapq.heappush(self._events, (end, self._seq, "resume", task))
        self._seq += 1

    # -- lock waits ----------------------------------------------------------------

    @staticmethod
    def _resume_blocked(task: _Task) -> Any:
        """Throw the task's pending error in, or re-run its parked statement.

        An error the re-run raises (the crash epoch moved, an injected
        fault) goes into the sequence, where the statement would have
        raised it.
        """
        error, task.error = task.error, None
        if error is None:
            try:
                return task.context.run(task.value.retry)
            except Exception as raised:
                error = raised
        return task.context.run(task.steps.throw, error)

    def _park(self, task: _Task) -> bool:
        """Park a task on its ``LockWait``; False if it is the deadlock victim.

        A victim other than the parking task was itself parked: it is
        unparked and resumed at once, with the ``DeadlockError`` to
        throw.  A parked task waits for a release (:meth:`_wake`) or its
        ``timeout`` event.
        """
        wait: LockWait = task.value
        resolved = self._db.locks.park(wait.txn_id, wait.resource)
        if resolved is not None:
            victim, error = resolved
            if victim == wait.txn_id:
                task.error = error
                return False
            doomed = self._parked.pop(victim)
            doomed.error = error
            self._push(self._now, "resume", doomed)
        self._parked[wait.txn_id] = task
        self._push(self._now + wait.timeout, "timeout", wait)
        return True

    def _wake(self) -> None:
        """Resume, at the current instant and in park order, the waiters a release woke."""
        locks = self._db.locks
        for txn_id in locks.woken:
            self._push(self._now, "resume", self._parked.pop(txn_id))
        locks.woken.clear()

    def _handle_timeout(self, wait: LockWait) -> None:
        """A lock wait's budget ran out: unless woken meanwhile, it fails."""
        task = self._parked.get(wait.txn_id)
        if task is None or task.value is not wait:
            return  # woken, or chosen as a deadlock victim, before its budget ran out
        del self._parked[wait.txn_id]
        task.error = self._db.locks.time_out(wait)
        self._step(task)

    def _handle_start(self, terminal: int) -> None:
        if self._deadline is not None and self._now >= self._deadline:
            return  # terminal retires; in-flight work drains
        if self._quota is not None and self._started >= self._quota:
            return
        if (
            self.spec.max_in_flight is not None
            and len(self._in_flight) >= self.spec.max_in_flight
        ):
            entry = (terminal, self._now)
            self._waiting.append(entry)
            self._max_queue_depth = max(self._max_queue_depth, len(self._waiting))
            if self.spec.queue_deadline_seconds is not None:
                self._push(
                    self._now + self.spec.queue_deadline_seconds, "shed", entry
                )
            return
        self._spawn(terminal)

    def _handle_shed(self, entry: tuple[int, float]) -> None:
        """Admission deadline passed: shed the request if still queued.

        A stale shed event (its terminal was admitted meanwhile) is a
        no-op — the (terminal, arrival) pair identifies the exact
        queued request.  The shed terminal keys in a *new* request
        after a fresh think cycle, as a human would after an error
        screen.
        """
        if entry not in self._waiting:
            return
        self._waiting.remove(entry)
        terminal, _arrival = entry
        self._shed_admission += 1
        instruments.DRIVER_SHED.inc(reason="admission")
        self._push(self._now + self._cycle_delay(terminal), "start", terminal)

    def _handle_crash(self) -> None:
        """Mid-benchmark crash()/recover() with in-flight terminals.

        The event fires between steps, so every sequence is suspended
        at a statement boundary.  Recovery's WAL replay is charged to
        both stations as a service outage (sequential log reads on
        every disk arm), and every in-flight transaction's next
        statement aborts transiently via the database epoch bump —
        parked ones are resumed at once, since the lock they wait for
        was lost with the old lock manager.
        """
        replayed = sum(1 for _ in self._db.wal.change_records())
        in_flight = len(self._in_flight)
        self._db.crash()
        self._db.recover()
        for task in self._parked.values():
            self._push(self._now, "resume", task)
        self._parked.clear()
        duration = (
            replayed * self.spec.params.disk_service_ms / 1000.0 / self.spec.disk_arms
        )
        outage_end = self._now + duration
        self._cpu.free_at = max(self._cpu.free_at, outage_end)
        self._disk.free_at = max(self._disk.free_at, outage_end)
        self._recovery = RecoveryWindow(
            at_seconds=self._now,
            duration_seconds=duration,
            replayed_records=replayed,
            in_flight_aborted=in_flight,
        )
        instruments.DRIVER_RECOVERIES.inc()

    def _spawn(self, terminal: int, start_time: float | None = None) -> None:
        self._started += 1
        executor = self._executors[terminal]
        prepared = executor.prepare(mix=self.spec.mix)
        task = _Task(
            terminal,
            prepared,
            self._now if start_time is None else start_time,
            executor.prepared_steps(prepared),
        )
        self._in_flight[task] = None
        self._step(task)

    def _complete(self, task: _Task) -> None:
        del self._in_flight[task]
        self._completed += 1
        tx = task.prepared.tx.value
        instruments.DRIVER_TX_COMPLETIONS.inc(tx=tx, outcome=task.outcome)
        if task.outcome == "committed":
            latency = self._now - task.start_time
            self._latencies.setdefault(tx, []).append(latency)
            instruments.DRIVER_TX_VIRTUAL_SECONDS.observe(latency, tx=tx)
        self._push(
            self._now + self._cycle_delay(task.terminal), "start", task.terminal
        )
        if self._waiting:
            # Admit the longest-queued request; its latency clock has
            # been running since it arrived at the gate.
            terminal, arrival = self._waiting.pop(0)
            over = self._deadline is not None and self._now >= self._deadline
            exhausted = self._quota is not None and self._started >= self._quota
            if not over and not exhausted:
                self._spawn(terminal, start_time=arrival)

"""Parallel execution of experiment work units.

The :class:`ExecutionEngine` runs the units of a :class:`~repro.exec.
units.SweepSpec` with

* a configurable worker count (``jobs=1`` runs synchronously in-process,
  so results are bit-identical with the pre-engine serial code path),
* an optional on-disk result cache (see :mod:`repro.exec.cache`),
* per-unit retry-on-failure and, for ``jobs > 1``, a per-unit timeout
  (a timed-out round tears the worker pool down so stragglers cannot
  occupy slots forever),
* structured progress on stderr plus a :class:`RunManifest` recording
  per-unit status, attempts, cache hits and wall/CPU time, and
* checkpoint/resume: results are written to the cache per unit as they
  finish, an interrupt (SIGINT) records the unfinished units as
  ``"interrupted"`` so a partial manifest can still be written, and a
  re-invocation passing ``resume_from=<manifest path>`` skips units the
  previous run completed, serving their results from the cache.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, NoReturn, TextIO

from repro.exec.cache import MISSING, ResultCache, cache_key
from repro.exec.units import SupportsSweep, WorkUnit
from repro.obs import instruments
from repro.obs.metrics import MetricsSnapshot, default_registry
from repro.obs.profiling import profile_call
from repro.results import ReportMixin


class ExecutionError(RuntimeError):
    """A unit exhausted its retry budget (or the pool died repeatedly)."""


@dataclass
class UnitRecord(ReportMixin):
    """Execution record of one work unit (one manifest row).

    ``profile`` holds the unit's top-N cProfile hotspot rows when the
    run requested profiling (see :mod:`repro.obs.profiling`).
    """

    experiment: str
    unit_id: str
    status: str  # "done" | "cached" | "skipped" | "interrupted" | "failed"
    attempts: int
    wall_seconds: float
    cpu_seconds: float
    error: str | None = None
    profile: list[dict[str, Any]] | None = None

    @property
    def cached(self) -> bool:
        return self.status == "cached"

    @property
    def skipped(self) -> bool:
        """Completed by a previous (resumed-from) run, served from cache."""
        return self.status == "skipped"

    def as_dict(self) -> dict[str, Any]:
        data = {
            "experiment": self.experiment,
            "unit": self.unit_id,
            "status": self.status,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "error": self.error,
        }
        if self.profile is not None:
            data["profile"] = self.profile
        return data


@dataclass
class RunManifest:
    """Aggregate statistics of one engine run (JSON-serializable)."""

    jobs: int
    cache_dir: str | None
    units: list[UnitRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    metrics: MetricsSnapshot | None = None

    @property
    def total_units(self) -> int:
        return len(self.units)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.units if record.cached)

    @property
    def skipped(self) -> int:
        """Units a resumed run did not re-execute."""
        return sum(1 for record in self.units if record.skipped)

    @property
    def interrupted(self) -> int:
        """Units left unfinished by an interrupt (SIGINT)."""
        return sum(1 for record in self.units if record.status == "interrupted")

    @property
    def failures(self) -> int:
        return sum(1 for record in self.units if record.status == "failed")

    @property
    def cpu_seconds(self) -> float:
        return sum(record.cpu_seconds for record in self.units)

    @property
    def all_cached(self) -> bool:
        return self.total_units > 0 and self.cache_hits == self.total_units

    def as_dict(self) -> dict[str, Any]:
        data = {
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "units_total": self.total_units,
            "cache_hits": self.cache_hits,
            "skipped": self.skipped,
            "interrupted": self.interrupted,
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "units": [record.as_dict() for record in self.units],
        }
        if self.metrics is not None:
            data["metrics"] = self.metrics.to_dict()
        return data

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def summary(self) -> str:
        extra = ""
        if self.skipped:
            extra += f", {self.skipped} resumed-skipped"
        if self.interrupted:
            extra += f", {self.interrupted} interrupted"
        return (
            f"{self.total_units} units, {self.cache_hits} cache hits, "
            f"{self.failures} failures{extra}, wall {self.wall_seconds:.2f}s, "
            f"cpu {self.cpu_seconds:.2f}s"
        )


#: Manifest statuses that mean "this unit's result is good" for resume.
_COMPLETED_STATUSES = frozenset({"done", "cached", "skipped"})


def load_completed_units(manifest_path: str | Path) -> set[tuple[str, str]]:
    """(experiment, unit) pairs a previous run's manifest completed.

    A missing or unparsable manifest yields an empty set with a
    :class:`RuntimeWarning` — resuming from nothing is a full run, not
    an error.
    """
    path = Path(manifest_path)
    try:
        data = json.loads(path.read_text())
        return {
            (row["experiment"], row["unit"])
            for row in data.get("units", ())
            if row.get("status") in _COMPLETED_STATUSES
        }
    except Exception as error:  # noqa: BLE001 - degrade to a full run
        warnings.warn(
            f"cannot resume from manifest {path}: "
            f"{type(error).__name__}: {error}; running all units",
            RuntimeWarning,
            stacklevel=2,
        )
        return set()


class _Outcome(NamedTuple):
    """What :func:`_invoke` ships back from a (possibly remote) unit run."""

    result: Any
    wall_seconds: float
    cpu_seconds: float
    snapshot: MetricsSnapshot | None
    hotspots: list[dict[str, Any]] | None


def _invoke(
    unit: WorkUnit,
    collect_metrics: bool = False,
    profile: bool = False,
    profile_top_n: int = 10,
) -> _Outcome:
    """Run one unit, measuring wall and CPU time (worker-side).

    Observability options arrive as extra call arguments — never inside
    the unit payload — so enabling them cannot change the unit's cache
    key.  ``collect_metrics`` resets and enables the worker process's
    registry around the unit and ships the resulting snapshot back for
    the parent to merge; the in-process (serial) path passes False and
    records straight into the live registry instead.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    registry = None
    if collect_metrics:
        registry = default_registry()
        registry.reset()
        registry.enable()
    try:
        hotspots = None
        if profile:
            result, hotspots = profile_call(
                unit.function, unit.payload, top_n=profile_top_n
            )
        else:
            result = unit.function(unit.payload)
        snapshot = registry.snapshot() if registry is not None else None
    finally:
        if registry is not None:
            registry.disable()
    return _Outcome(
        result,
        time.perf_counter() - wall_start,
        time.process_time() - cpu_start,
        snapshot,
        hotspots,
    )


class ExecutionEngine:
    """Runs sweeps; owns the worker pool, cache and manifest.

    One engine is created per run request (or shared across experiments
    by ``run-all``); ``scratch`` is a per-engine memo dict experiments
    may use to share intermediate results within a run.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        unit_timeout: float | None = None,
        retries: int = 1,
        progress: bool = False,
        stream: TextIO | None = None,
        resume_from: str | Path | None = None,
        collect_metrics: bool = False,
        profile: bool = False,
        profile_top_n: int = 10,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be positive, got {unit_timeout}")
        if profile_top_n < 1:
            raise ValueError(f"profile_top_n must be >= 1, got {profile_top_n}")
        self.jobs = jobs
        self.unit_timeout = unit_timeout
        self.retries = retries
        self.collect_metrics = collect_metrics
        self.profile = profile
        self.profile_top_n = profile_top_n
        #: Snapshot of the last collected run, set by
        #: :func:`repro.exec.request.execute`; embedded into manifests.
        self.collected_metrics: MetricsSnapshot | None = None
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self._completed: set[tuple[str, str]] = (
            load_completed_units(resume_from) if resume_from is not None else set()
        )
        if self._completed and self.cache is None:
            warnings.warn(
                "resume_from given without a cache directory; completed "
                "units have no stored results and will be re-run",
                RuntimeWarning,
                stacklevel=2,
            )
            self._completed = set()
        self.scratch: dict[Any, Any] = {}
        self._progress = progress
        self._stream = stream if stream is not None else sys.stderr
        self._records: list[UnitRecord] = []
        self._wall = 0.0
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down without waiting (after a timeout/breakage)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        # Workers stuck inside a timed-out unit would otherwise keep a
        # CPU busy (and, via the executor's atexit hook, stall process
        # shutdown); terminating them is safe because their results are
        # discarded anyway.  ``_processes`` is private but stable.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already dead
                pass

    # -- manifest ------------------------------------------------------------

    def manifest(self) -> RunManifest:
        return RunManifest(
            jobs=self.jobs,
            cache_dir=str(self.cache.root) if self.cache else None,
            units=list(self._records),
            wall_seconds=self._wall,
            metrics=self.collected_metrics,
        )

    def _record(self, record: UnitRecord) -> None:
        self._records.append(record)

    def _log(self, message: str) -> None:
        if self._progress:
            print(f"[exec] {message}", file=self._stream, flush=True)

    # -- execution -----------------------------------------------------------

    def run_sweep(self, spec: SupportsSweep) -> dict[str, Any]:
        """Run every unit of a sweep; returns ``{unit_id: result}``.

        Cached units are served from disk without executing; a resumed
        run (``resume_from``) additionally skips units its predecessor
        completed.  Fresh results are written back to the cache as each
        unit finishes, so an interrupt loses at most in-flight work:
        on ``KeyboardInterrupt`` the unfinished units are recorded as
        ``"interrupted"`` and the exception propagates, leaving the
        manifest ready to be written and resumed from.  Raises
        :class:`ExecutionError` when a unit keeps failing past the
        retry budget.
        """
        started = time.perf_counter()
        results: dict[str, Any] = {}
        remaining: list[WorkUnit] = []
        keys: dict[str, str] = {}
        for unit in spec.units:
            if self.cache is not None:
                key = cache_key(unit.function, unit.payload)
                keys[unit.unit_id] = key
                value = self.cache.get(key)
                instruments.EXEC_CACHE_LOOKUPS.inc(
                    outcome="miss" if value is MISSING else "hit",
                    experiment=spec.experiment,
                )
                if value is not MISSING:
                    resumed = (spec.experiment, unit.unit_id) in self._completed
                    status = "skipped" if resumed else "cached"
                    results[unit.unit_id] = value
                    self._record(
                        UnitRecord(
                            experiment=spec.experiment,
                            unit_id=unit.unit_id,
                            status=status,
                            attempts=0,
                            wall_seconds=0.0,
                            cpu_seconds=0.0,
                        )
                    )
                    self._log(
                        f"{spec.experiment} {unit.unit_id} "
                        + ("resumed (skipped)" if resumed else "cache hit")
                    )
                    continue
            remaining.append(unit)

        registry = default_registry()
        force_enabled = self.collect_metrics and not registry.enabled
        if force_enabled:
            # Direct engine use (no surrounding collecting() session):
            # honor collect_metrics by enabling for the sweep's duration.
            registry.enable()
        try:
            if remaining:
                if self.jobs == 1:
                    self._run_serial(spec.experiment, remaining, results, keys)
                else:
                    self._run_parallel(spec.experiment, remaining, results, keys)
        except KeyboardInterrupt:
            self._discard_pool()
            self._record_interrupted(spec.experiment, spec.units)
            self._wall += time.perf_counter() - started
            self._log(f"{spec.experiment} sweep interrupted")
            raise
        finally:
            if force_enabled:
                registry.disable()

        self._wall += time.perf_counter() - started
        self._log(
            f"{spec.experiment} sweep done: {len(spec.units)} units "
            f"({len(spec.units) - len(remaining)} cached)"
        )
        return results

    def _finish(
        self,
        experiment: str,
        unit: WorkUnit,
        outcome: _Outcome,
        attempts: int,
        progress: str,
        results: dict[str, Any],
        keys: dict[str, str],
    ) -> None:
        """One unit completed: checkpoint to the cache, observe, record, log."""
        wall, cpu = outcome.wall_seconds, outcome.cpu_seconds
        results[unit.unit_id] = outcome.result
        if self.cache is not None:
            key = keys.get(unit.unit_id) or cache_key(unit.function, unit.payload)
            self.cache.put(key, outcome.result)
        instruments.EXEC_UNIT_SECONDS.observe(wall, experiment=experiment)
        self._record(
            UnitRecord(
                experiment=experiment,
                unit_id=unit.unit_id,
                status="done",
                attempts=attempts,
                wall_seconds=wall,
                cpu_seconds=cpu,
                profile=outcome.hotspots,
            )
        )
        self._log(
            f"{experiment} {progress} {unit.unit_id} "
            f"wall={wall:.2f}s cpu={cpu:.2f}s"
        )

    def _exhausted(self, experiment: str, errors: dict[str, str | None]) -> NoReturn:
        """Units out of retry budget: record each as failed, then raise."""
        attempts = self.retries + 1
        for unit_id, error in errors.items():
            self._record(
                UnitRecord(
                    experiment=experiment,
                    unit_id=unit_id,
                    status="failed",
                    attempts=attempts,
                    wall_seconds=0.0,
                    cpu_seconds=0.0,
                    error=error,
                )
            )
        details = "; ".join(f"{unit_id}: {error}" for unit_id, error in errors.items())
        raise ExecutionError(
            f"{len(errors)} unit(s) of {experiment} failed after "
            f"{attempts} attempts — {details}"
        )

    def _record_interrupted(self, experiment: str, units: list[WorkUnit]) -> None:
        """Mark every unit without a record yet as interrupted."""
        recorded = {
            record.unit_id
            for record in self._records
            if record.experiment == experiment
        }
        for unit in units:
            if unit.unit_id not in recorded:
                self._record(
                    UnitRecord(
                        experiment=experiment,
                        unit_id=unit.unit_id,
                        status="interrupted",
                        attempts=0,
                        wall_seconds=0.0,
                        cpu_seconds=0.0,
                        error="KeyboardInterrupt",
                    )
                )

    def _run_serial(
        self,
        experiment: str,
        units: list[WorkUnit],
        results: dict[str, Any],
        keys: dict[str, str],
    ) -> None:
        """In-process execution (``jobs=1``); timeouts are not enforced."""
        total = len(units)
        for index, unit in enumerate(units, start=1):
            error_text = None
            for attempt in range(1, self.retries + 2):
                if attempt > 1:
                    instruments.EXEC_UNIT_RETRIES.inc(experiment=experiment)
                try:
                    # In-process run: metrics (when enabled) record into
                    # the live registry directly — no snapshot to merge.
                    outcome = _invoke(unit, False, self.profile, self.profile_top_n)
                except KeyboardInterrupt:
                    raise
                except Exception as error:  # noqa: BLE001 - recorded + retried
                    error_text = f"{type(error).__name__}: {error}"
                    self._log(
                        f"{experiment} {unit.unit_id} attempt {attempt} "
                        f"failed: {error_text}"
                    )
                    continue
                self._finish(
                    experiment, unit, outcome, attempt, f"{index}/{total}", results, keys
                )
                break
            else:
                self._exhausted(experiment, {unit.unit_id: error_text})

    def _run_parallel(
        self,
        experiment: str,
        units: list[WorkUnit],
        results: dict[str, Any],
        keys: dict[str, str],
    ) -> None:
        """Fan units out over the process pool, with retry and timeout."""
        pending: dict[str, WorkUnit] = {unit.unit_id: unit for unit in units}
        attempts: dict[str, int] = {unit.unit_id: 0 for unit in units}
        errors: dict[str, str] = {}
        total = len(units)
        done = 0

        while pending:
            pool = self._ensure_pool()
            futures: dict[str, Future] = {
                unit_id: pool.submit(
                    _invoke,
                    unit,
                    self.collect_metrics,
                    self.profile,
                    self.profile_top_n,
                )
                for unit_id, unit in pending.items()
            }
            pool_broken = False
            for unit_id, future in futures.items():
                attempts[unit_id] += 1
                if attempts[unit_id] > 1:
                    instruments.EXEC_UNIT_RETRIES.inc(experiment=experiment)
                try:
                    outcome = future.result(timeout=self.unit_timeout)
                except FutureTimeoutError:
                    errors[unit_id] = (
                        f"timed out after {self.unit_timeout}s"
                    )
                    pool_broken = True
                    self._log(f"{experiment} {unit_id} {errors[unit_id]}")
                except (CancelledError, BrokenProcessPool) as error:
                    # Collateral damage from a timed-out sibling (the pool
                    # was torn down under it): retry without charging the
                    # unit's own budget.
                    errors[unit_id] = f"{type(error).__name__}: {error}"
                    attempts[unit_id] -= 1
                    pool_broken = True
                except Exception as error:  # noqa: BLE001 - recorded + retried
                    errors[unit_id] = f"{type(error).__name__}: {error}"
                    self._log(
                        f"{experiment} {unit_id} attempt {attempts[unit_id]} "
                        f"failed: {errors[unit_id]}"
                    )
                else:
                    done += 1
                    errors.pop(unit_id, None)
                    if outcome.snapshot is not None:
                        # Fold the worker's per-unit metrics into the
                        # parent registry, where the surrounding
                        # collecting() session picks them up.
                        default_registry().merge_snapshot(outcome.snapshot)
                    self._finish(
                        experiment,
                        pending.pop(unit_id),
                        outcome,
                        attempts[unit_id],
                        f"{done}/{total}",
                        results,
                        keys,
                    )
            if pool_broken:
                self._discard_pool()

            exhausted = {
                unit_id: errors.get(unit_id)
                for unit_id in pending
                if attempts[unit_id] >= self.retries + 1
            }
            if exhausted:
                self._exhausted(experiment, exhausted)

"""Parallel execution of experiment work units.

The :class:`ExecutionEngine` runs each unit of a :class:`~repro.exec.
units.SweepSpec` once, with

* a configurable worker count (``jobs=1`` runs synchronously in-process,
  so results are bit-identical with the pre-engine serial code path),
* an optional on-disk result cache (see :mod:`repro.exec.cache`), which
  is also the checkpoint: each result is stored as its unit finishes, so
  rerunning an interrupted or failed sweep with the same cache directory
  executes only the units that have no result yet, and
* structured progress on stderr plus a :class:`RunManifest` recording
  per-unit status, cache hits and wall/CPU time.

A unit is a deterministic function of its payload, so one that raises
would raise again: the first failure stops the sweep.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.exec.cache import MISSING, ResultCache, cache_key
from repro.exec.units import SweepSpec, WorkUnit
from repro.obs import instruments
from repro.obs.metrics import MetricsSnapshot, default_registry
from repro.obs.profiling import profile_call
from repro.results import ReportMixin


class ExecutionError(RuntimeError):
    """A work unit raised; its sweep stopped there."""


@dataclass
class UnitRecord(ReportMixin):
    """Execution record of one work unit (one manifest row).

    ``profile`` holds the unit's top-10 cProfile hotspot rows when the
    run requested profiling (see :mod:`repro.obs.profiling`).
    """

    experiment: str
    unit_id: str
    status: str  # "done" | "cached" | "failed"
    wall_seconds: float
    cpu_seconds: float
    error: str | None = None
    profile: list[dict[str, Any]] | None = None

    @property
    def cached(self) -> bool:
        return self.status == "cached"

    def as_dict(self) -> dict[str, Any]:
        data = {
            "experiment": self.experiment,
            "unit": self.unit_id,
            "status": self.status,
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
        return (
            f"{self.total_units} units, {self.cache_hits} cache hits, "
            f"{self.failures} failures, wall {self.wall_seconds:.2f}s, "
            f"cpu {self.cpu_seconds:.2f}s"
        )


class _Outcome(NamedTuple):
    """What :func:`_invoke` ships back from a (possibly remote) unit run."""

    result: Any
    wall_seconds: float
    cpu_seconds: float
    snapshot: MetricsSnapshot | None
    hotspots: list[dict[str, Any]] | None


def _invoke(
    unit: WorkUnit, collect_metrics: bool = False, profile: bool = False
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
            result, hotspots = profile_call(unit.function, unit.payload)
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
        progress: bool = False,
        profile: bool = False,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.profile = profile
        #: Snapshot of the last collected run, set by
        #: :func:`repro.exec.request.execute`; embedded into manifests.
        self.collected_metrics: MetricsSnapshot | None = None
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.scratch: dict[Any, Any] = {}
        self._progress = progress
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

    # -- manifest ------------------------------------------------------------

    def manifest(self) -> RunManifest:
        return RunManifest(
            jobs=self.jobs,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            units=list(self._records),
            wall_seconds=self._wall,
            metrics=self.collected_metrics,
        )

    def _log(self, message: str) -> None:
        if self._progress:
            print(f"[exec] {message}", file=sys.stderr, flush=True)

    # -- execution -----------------------------------------------------------

    def run_sweep(self, spec: SweepSpec) -> dict[str, Any]:
        """Run every unit of a sweep; returns ``{unit_id: result}``.

        Cached units are served from disk without executing.  Fresh
        results are written to the cache as each unit finishes, so an
        interrupt (``KeyboardInterrupt`` propagates) or a failure loses
        only the units not yet finished.  The first unit that raises is
        recorded as ``"failed"``, the rest are cancelled, and
        :class:`ExecutionError` names it.
        """
        started = time.perf_counter()
        results: dict[str, Any] = {}
        remaining: list[WorkUnit] = []
        keys: dict[str, str] = {}
        for unit in spec.units:
            if self.cache is not None:
                key = keys[unit.unit_id] = cache_key(unit.function, unit.payload)
                value = self.cache.get(key)
                instruments.EXEC_CACHE_LOOKUPS.inc(
                    outcome="miss" if value is MISSING else "hit",
                    experiment=spec.experiment,
                )
                if value is not MISSING:
                    results[unit.unit_id] = value
                    self._records.append(
                        UnitRecord(spec.experiment, unit.unit_id, "cached", 0.0, 0.0)
                    )
                    self._log(f"{spec.experiment} {unit.unit_id} cache hit")
                    continue
            remaining.append(unit)
        try:
            self._run_units(spec.experiment, remaining, results, keys)
        finally:
            self._wall += time.perf_counter() - started
        self._log(
            f"{spec.experiment} sweep done: {len(spec.units)} units "
            f"({len(spec.units) - len(remaining)} cached)"
        )
        return results

    def _run_units(
        self,
        experiment: str,
        units: list[WorkUnit],
        results: dict[str, Any],
        keys: dict[str, str],
    ) -> None:
        """Run each unit once; results and records keep the units' order."""
        futures: list[Future] = []
        calls: list[Callable[[], _Outcome]]
        if self.jobs > 1 and units:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            # Workers collect metrics exactly when the parent does.
            collect = default_registry().enabled
            futures = [
                self._pool.submit(_invoke, unit, collect, self.profile)
                for unit in units
            ]
            calls = [future.result for future in futures]
        else:
            # In-process run: metrics (when enabled) record into the
            # live registry directly — no snapshot to merge.
            calls = [partial(_invoke, unit, False, self.profile) for unit in units]
        try:
            for index, (unit, call) in enumerate(zip(units, calls), start=1):
                try:
                    outcome = call()
                except Exception as error:
                    message = f"{type(error).__name__}: {error}"
                    self._records.append(
                        UnitRecord(experiment, unit.unit_id, "failed", 0.0, 0.0, message)
                    )
                    raise ExecutionError(
                        f"unit {unit.unit_id} of {experiment} failed — {message}"
                    ) from error
                if outcome.snapshot is not None:
                    # Fold the worker's per-unit metrics into the parent
                    # registry, where the surrounding collecting()
                    # session picks them up.
                    default_registry().merge_snapshot(outcome.snapshot)
                self._finish(
                    experiment, unit, outcome, f"{index}/{len(units)}", results, keys
                )
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def _finish(
        self,
        experiment: str,
        unit: WorkUnit,
        outcome: _Outcome,
        progress: str,
        results: dict[str, Any],
        keys: dict[str, str],
    ) -> None:
        """One unit completed: checkpoint to the cache, observe, record, log."""
        wall, cpu = outcome.wall_seconds, outcome.cpu_seconds
        results[unit.unit_id] = outcome.result
        if self.cache is not None:
            self.cache.put(keys[unit.unit_id], outcome.result)
        instruments.EXEC_UNIT_SECONDS.observe(wall, experiment=experiment)
        self._records.append(
            UnitRecord(
                experiment=experiment,
                unit_id=unit.unit_id,
                status="done",
                wall_seconds=wall,
                cpu_seconds=cpu,
                profile=outcome.hotspots,
            )
        )
        self._log(
            f"{experiment} {progress} {unit.unit_id} "
            f"wall={wall:.2f}s cpu={cpu:.2f}s"
        )

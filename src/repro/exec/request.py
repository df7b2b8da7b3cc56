"""The unified run-request API.

A :class:`RunRequest` is the single entry point for executing an
experiment: it names the experiment and preset and carries every
execution knob (worker count, cache directory, seed override, manifest
path).  :func:`execute` resolves the experiment function, builds an
:class:`~repro.exec.engine.ExecutionEngine`, and calls the function
with a :class:`RunContext` — the object experiment functions receive
instead of a bare :class:`~repro.experiments.runner.Preset`.

``repro.experiments.run_experiment`` is a thin wrapper that builds a
``RunRequest`` and delegates here, so the old call sites keep working.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exec.engine import ExecutionEngine, RunManifest
from repro.experiments.runner import Preset
from repro.obs.metrics import default_registry
from repro.obs.tracing import tracing_to

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentFunction, ExperimentResult


@dataclass(frozen=True, kw_only=True)
class RunRequest:
    """Everything needed to run one experiment.

    ``seed_override`` replaces the experiment's built-in trace seed so
    sweeps can be replicated at different random seeds; ``jobs=1`` keeps
    execution synchronous and in-process (bit-identical with the legacy
    path).  Rerunning with the same ``cache_dir`` serves every unit a
    previous run finished from the cache.

    The observability knobs (``collect_metrics``, ``trace_path``,
    ``profile``) are strictly observe-only: they change what the run
    *records*, never what it computes — and they are deliberately kept
    out of work-unit payloads so cache keys are identical with and
    without them.
    """

    experiment: str
    preset: Preset = Preset.QUICK
    jobs: int = 1
    cache_dir: str | Path | None = None
    seed_override: int | None = None
    manifest_path: str | Path | None = None
    progress: bool = False
    collect_metrics: bool = False
    trace_path: str | Path | None = None
    profile: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.preset, str):
            object.__setattr__(self, "preset", Preset(self.preset))
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def replace(self, **overrides: Any) -> "RunRequest":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class RunContext:
    """What an experiment function receives: preset plus execution services."""

    request: RunRequest
    engine: ExecutionEngine

    @property
    def preset(self) -> Preset:
        return self.request.preset

    def seed(self, default: int) -> int:
        """The request's seed override, or the experiment's default."""
        if self.request.seed_override is not None:
            return self.request.seed_override
        return default


def build_engine(request: RunRequest) -> ExecutionEngine:
    """An engine configured from a request's execution knobs."""
    return ExecutionEngine(
        jobs=request.jobs,
        cache_dir=request.cache_dir,
        progress=request.progress,
        profile=request.profile,
    )


def execute(
    request: RunRequest, *, engine: ExecutionEngine | None = None
) -> "ExperimentResult":
    """Run the requested experiment and return its result.

    When ``engine`` is given (``run-all`` shares one across
    experiments) the caller owns its lifecycle and manifest; otherwise
    a fresh engine is built, closed afterwards, and its manifest is
    written to ``request.manifest_path`` when set.

    With ``collect_metrics`` the run happens inside a metrics
    collection session; the resulting snapshot is attached to the
    returned :class:`ExperimentResult` and embedded into the engine's
    manifest.  With ``trace_path`` a JSONL tracer is installed for the
    duration.  Both are observe-only — outputs and cache keys are
    byte-identical with and without them.
    """
    from repro.experiments.runner import resolve

    function = resolve(request.experiment)
    if engine is not None:
        return _run(function, request, engine)
    with build_engine(request) as owned:
        try:
            return _run(function, request, owned)
        finally:
            if request.manifest_path is not None:
                owned.manifest().write(request.manifest_path)


def _run(
    function: "ExperimentFunction", request: RunRequest, engine: ExecutionEngine
) -> "ExperimentResult":
    """Call the experiment inside the request's tracing / metrics sessions."""
    session = None
    with ExitStack() as stack:
        if request.trace_path is not None:
            stack.enter_context(tracing_to(request.trace_path))
        if request.collect_metrics:
            session = stack.enter_context(default_registry().collecting())
        result = function(RunContext(request=request, engine=engine))
    if session is not None:
        snapshot = session.snapshot
        result = result.with_metrics(snapshot)
        engine.collected_metrics = (
            snapshot
            if engine.collected_metrics is None
            else engine.collected_metrics.merge(snapshot)
        )
    return result


__all__ = [
    "RunContext",
    "RunRequest",
    "RunManifest",
    "build_engine",
    "execute",
]

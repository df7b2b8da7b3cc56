"""Observability: metrics registry, structured tracing, profiling hooks.

The package instruments the repo's hot seams (buffer pools, lock
manager, WAL, TPC-C executor, execution engine) without perturbing
results:

* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and histograms.  Disabled by default (a disabled instrument is
  a flag check), with snapshot/diff/merge semantics so worker-process
  metrics aggregate through the ``ProcessPoolExecutor`` fan-out.
* :mod:`repro.obs.clock` — the deterministic :class:`LogicalClock`
  (operation counters) that keys trace records, plus the injectable
  :class:`WallClock` seam — the one module allowed to read the wall
  clock (reprolint REP002 whitelists it).
* :mod:`repro.obs.tracing` — span/event records to a JSONL sink, keyed
  by logical time so two seeded runs trace identically.
* :mod:`repro.obs.profiling` — cProfile wrappers whose top-N hotspot
  tables fold into run manifests.

The cardinal rule is **observe-only**: enabling any of this must never
change an experiment's outputs, its random streams, or its cache keys.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.obs.clock import Clock as Clock
    from repro.obs.clock import LogicalClock as LogicalClock
    from repro.obs.clock import NullWallClock as NullWallClock
    from repro.obs.clock import WallClock as WallClock
    from repro.obs.metrics import Counter as Counter
    from repro.obs.metrics import Gauge as Gauge
    from repro.obs.metrics import Histogram as Histogram
    from repro.obs.metrics import MetricsRegistry as MetricsRegistry
    from repro.obs.metrics import MetricsSnapshot as MetricsSnapshot
    from repro.obs.metrics import default_registry as default_registry
    from repro.obs.profiling import profile_call as profile_call
    from repro.obs.tracing import JsonlSink as JsonlSink
    from repro.obs.tracing import NullTracer as NullTracer
    from repro.obs.tracing import Tracer as Tracer
    from repro.obs.tracing import get_tracer as get_tracer
    from repro.obs.tracing import tracing_to as tracing_to

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "Clock": "repro.obs.clock",
        "LogicalClock": "repro.obs.clock",
        "NullWallClock": "repro.obs.clock",
        "WallClock": "repro.obs.clock",
        "Counter": "repro.obs.metrics",
        "Gauge": "repro.obs.metrics",
        "Histogram": "repro.obs.metrics",
        "MetricsRegistry": "repro.obs.metrics",
        "MetricsSnapshot": "repro.obs.metrics",
        "default_registry": "repro.obs.metrics",
        "profile_call": "repro.obs.profiling",
        "JsonlSink": "repro.obs.tracing",
        "NullTracer": "repro.obs.tracing",
        "Tracer": "repro.obs.tracing",
        "get_tracer": "repro.obs.tracing",
        "tracing_to": "repro.obs.tracing",
    },
)

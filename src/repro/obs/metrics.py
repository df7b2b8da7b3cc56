"""Process-local metrics: counters, gauges, histograms with snapshots.

Instrumented modules create instruments once (module scope or lazily)
against a :class:`MetricsRegistry` — normally the process-wide
:func:`default_registry` — and record into them on hot paths::

    _MISSES = default_registry().counter(
        "buffer_misses_total", help="page faults", deterministic=True
    )
    ...
    _MISSES.inc(relation="stock", policy="lru")

The default registry starts **disabled**.  A disabled instrument's
record call returns after one flag check, but the caller has by then
built the label kwargs and made the call (0.2-0.4 us).  The seams hit
dozens of times per transaction (engine buffer manager, lock manager,
WAL append) therefore test :attr:`MetricsRegistry.enabled` themselves,
*before* building labels: there the disabled path really is one
attribute read.  Everywhere else the plain record call stays, cheap
next to the work it counts.  Enabling happens around a run (see :meth:`MetricsRegistry.collecting`), which yields a *session*
whose :attr:`~CollectionSession.snapshot` is the diff between entry
and exit — so nested or sequential collections never double-count.

Snapshots are plain data (:class:`MetricsSnapshot`): deterministic
ordering, JSON round-trip, ``diff``/``merge`` semantics.  ``merge`` is
how worker-process metrics flow back through the
``ProcessPoolExecutor`` fan-out: each worker snapshots its registry and
the parent merges the snapshots into its own.

Instruments carry a ``deterministic`` flag: quantities derived purely
from the simulated workload (page misses, lock conflicts, operation
counts) are deterministic for a fixed seed, while measured wall time is
not.  :meth:`MetricsSnapshot.deterministic_only` filters to the former,
which is what the byte-identical-snapshot determinism tests compare.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator, Mapping, Sequence

#: Label key: sorted (name, value) pairs, hash-order independent.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds for operation counts.
OP_COUNT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: Default histogram bucket upper bounds for wall durations (seconds).
DURATION_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical, deterministic key for a label set (values coerced to str)."""
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Instrument:
    """Common state of one named metric family."""

    kind: ClassVar[str] = "instrument"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        deterministic: bool = True,
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.deterministic = deterministic

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def _samples(self) -> list[dict[str, Any]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _clear(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Series metadata + samples, in deterministic order."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "deterministic": self.deterministic,
            "samples": sorted(self._samples(), key=lambda s: sorted(s["labels"].items())),
        }


class Counter(Instrument):
    """A monotonically increasing sum, optionally labeled."""

    kind: ClassVar[str] = "counter"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Current value for one label set (0 when never incremented)."""
        return self._values.get(_label_key(labels), 0)

    def _samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in self._values.items()
        ]

    def _clear(self) -> None:
        self._values.clear()


class Gauge(Instrument):
    """A value that can go up and down (e.g. current queue depth)."""

    kind: ClassVar[str] = "gauge"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def _samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in self._values.items()
        ]

    def _clear(self) -> None:
        self._values.clear()


@dataclass
class _HistogramSeries:
    """Bucket counts plus sum/count for one label set."""

    counts: list[int]
    total: float = 0.0
    observations: int = 0


class Histogram(Instrument):
    """Observations bucketed by fixed upper bounds.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit overflow bucket catches everything above the last bound
    (the classic ``+Inf`` bucket), so ``len(counts) == len(buckets)+1``.
    """

    kind: ClassVar[str] = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        deterministic: bool = True,
        buckets: Sequence[float] = OP_COUNT_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, deterministic)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ValueError(f"buckets must be strictly increasing, got {buckets}")
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, count: int = 1, **labels: Any) -> None:
        """Record ``count`` observations of ``value``."""
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                counts=[0] * (len(self.buckets) + 1)
            )
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        series.counts[index] += count
        series.total += value * count
        series.observations += count

    def count(self, **labels: Any) -> int:
        """Total observations for one label set."""
        series = self._series.get(_label_key(labels))
        return series.observations if series is not None else 0

    def _samples(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(key),
                "counts": list(series.counts),
                "sum": series.total,
                "count": series.observations,
            }
            for key, series in self._series.items()
        ]

    def describe(self) -> dict[str, Any]:
        described = super().describe()
        described["buckets"] = list(self.buckets)
        return described

    def _clear(self) -> None:
        self._series.clear()


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, JSON-serializable picture of a registry.

    ``series`` is a tuple of per-instrument dicts (see
    :meth:`Instrument.describe`), sorted by name, with samples sorted by
    label items — so equal registries produce byte-equal JSON.
    """

    schema_version: ClassVar[int] = 1
    series: tuple[dict[str, Any], ...] = ()

    # -- Report protocol -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": "MetricsSnapshot",
            "series": [json.loads(json.dumps(entry)) for entry in self.series],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        version = data.get("schema_version", 1)
        if version != cls.schema_version:
            raise ValueError(
                f"cannot read MetricsSnapshot schema_version={version}; "
                f"this build understands {cls.schema_version}"
            )
        return cls(series=tuple(dict(entry) for entry in data.get("series", ())))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- queries -------------------------------------------------------------

    def _find(self, name: str) -> dict[str, Any] | None:
        for entry in self.series:
            if entry["name"] == name:
                return entry
        return None

    def names(self) -> tuple[str, ...]:
        return tuple(entry["name"] for entry in self.series)

    def counter_value(self, name: str, **labels: Any) -> float:
        """A counter/gauge sample's value (0 when absent)."""
        entry = self._find(name)
        if entry is None:
            return 0
        wanted = {k: str(v) for k, v in labels.items()}
        for sample in entry["samples"]:
            if sample["labels"] == wanted:
                return sample["value"]
        return 0

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of a counter's samples whose labels include ``labels``."""
        entry = self._find(name)
        if entry is None:
            return 0
        wanted = {k: str(v) for k, v in labels.items()}
        return sum(
            sample["value"]
            for sample in entry["samples"]
            if all(sample["labels"].get(k) == v for k, v in wanted.items())
        )

    def histogram_count(self, name: str, **labels: Any) -> int:
        """Total observations of a histogram sample (0 when absent)."""
        entry = self._find(name)
        if entry is None:
            return 0
        wanted = {k: str(v) for k, v in labels.items()}
        return sum(
            sample["count"]
            for sample in entry["samples"]
            if all(sample["labels"].get(k) == v for k, v in wanted.items())
        )

    def deterministic_only(self) -> "MetricsSnapshot":
        """Only the series whose values are seed-reproducible."""
        return MetricsSnapshot(
            series=tuple(e for e in self.series if e.get("deterministic", True))
        )

    @property
    def empty(self) -> bool:
        return not any(entry["samples"] for entry in self.series)

    # -- algebra -------------------------------------------------------------

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus a baseline (counters/histograms subtract).

        Gauges keep their current value — a level, not an accumulation.
        Samples that become all-zero are dropped, so diffing against an
        equal snapshot yields an empty one.
        """
        return _combine(self, baseline, sign=-1)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Union of two snapshots (counters/histograms add, gauges max).

        Gauges take the maximum — when merging worker snapshots the
        interesting level is the peak (e.g. deepest wait queue seen).
        """
        return _combine(self, other, sign=+1)

    def as_rows(self) -> list[dict[str, Any]]:
        """Flat rows for text rendering (one per sample)."""
        rows = []
        for entry in self.series:
            for sample in entry["samples"]:
                labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
                if entry["type"] == "histogram":
                    value: object = f"count={sample['count']} sum={round(sample['sum'], 6)}"
                else:
                    value = sample["value"]
                rows.append(
                    {
                        "metric": entry["name"],
                        "type": entry["type"],
                        "labels": labels,
                        "value": value,
                    }
                )
        return rows


def _combine(
    left: MetricsSnapshot, right: MetricsSnapshot, sign: int
) -> MetricsSnapshot:
    """Shared diff/merge walk over two snapshots' series."""
    by_name: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    for entry in left.series:
        by_name[entry["name"]] = json.loads(json.dumps(entry))
        order.append(entry["name"])
    for entry in right.series:
        name = entry["name"]
        if name not in by_name:
            if sign < 0:
                continue  # diff: baseline-only series vanished; nothing to report
            by_name[name] = json.loads(json.dumps(entry))
            order.append(name)
            continue
        target = by_name[name]
        samples = {
            tuple(sorted(s["labels"].items())): s for s in target["samples"]
        }
        for sample in entry["samples"]:
            key = tuple(sorted(sample["labels"].items()))
            mine = samples.get(key)
            if mine is None:
                if sign > 0:
                    copied = json.loads(json.dumps(sample))
                    target["samples"].append(copied)
                    samples[key] = copied
                continue
            if target["type"] == "histogram":
                mine["counts"] = [
                    a + sign * b for a, b in zip(mine["counts"], sample["counts"])
                ]
                mine["sum"] += sign * sample["sum"]
                mine["count"] += sign * sample["count"]
            elif target["type"] == "gauge":
                if sign > 0:
                    mine["value"] = max(mine["value"], sample["value"])
                # diff: keep the current level
            else:
                mine["value"] += sign * sample["value"]
    series = []
    for name in sorted(order):
        entry = by_name[name]
        entry["samples"] = [s for s in entry["samples"] if not _is_zero(entry, s)]
        entry["samples"].sort(key=lambda s: sorted(s["labels"].items()))
        if entry["samples"]:
            series.append(entry)
    return MetricsSnapshot(series=tuple(series))


def _is_zero(entry: Mapping[str, Any], sample: Mapping[str, Any]) -> bool:
    if entry["type"] == "histogram":
        return sample["count"] == 0 and not any(sample["counts"])
    return sample["value"] == 0


class CollectionSession:
    """One enable-collect-snapshot window (see ``collecting``)."""

    def __init__(self, registry: "MetricsRegistry", baseline: MetricsSnapshot) -> None:
        self._registry = registry
        self._baseline = baseline
        self.snapshot: MetricsSnapshot = MetricsSnapshot()

    def finish(self) -> MetricsSnapshot:
        self.snapshot = self._registry.snapshot().diff(self._baseline)
        return self.snapshot


class MetricsRegistry:
    """Owns instruments and the enabled flag; produces snapshots.

    Instrument constructors are idempotent by name: asking twice for
    the same counter returns the same object, so module-level handles
    and ad-hoc lookups interoperate.  Re-registering a name as a
    different instrument type is an error.
    """

    def __init__(self, enabled: bool = False) -> None:
        #: Read by every record call and, ahead of any label building, by
        #: the hot seams; a plain attribute so that read is all it costs.
        #: Set it through :meth:`enable` / :meth:`disable` / :meth:`collecting`.
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}

    # -- enablement ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def collecting(self) -> Iterator[CollectionSession]:
        """Enable the registry for a block; the session diffs entry->exit.

        The previous enabled state is restored on exit, and the
        session's :attr:`~CollectionSession.snapshot` contains only
        what was recorded inside the block (plus any worker snapshots
        merged in), so sequential collections never double-count.
        """
        previous = self.enabled
        session = CollectionSession(self, self.snapshot())
        self.enabled = True
        try:
            yield session
        finally:
            session.finish()
            self.enabled = previous

    # -- instrument constructors ---------------------------------------------

    def _get(self, kind: type, name: str, **kwargs: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = kind(self, name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", deterministic: bool = True
    ) -> Counter:
        return self._get(Counter, name, help=help, deterministic=deterministic)

    def gauge(self, name: str, help: str = "", deterministic: bool = True) -> Gauge:
        return self._get(Gauge, name, help=help, deterministic=deterministic)

    def histogram(
        self,
        name: str,
        help: str = "",
        deterministic: bool = True,
        buckets: Sequence[float] = OP_COUNT_BUCKETS,
    ) -> Histogram:
        return self._get(
            Histogram, name, help=help, deterministic=deterministic, buckets=buckets
        )

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """The registry's current state as immutable data."""
        series = tuple(
            self._instruments[name].describe()
            for name in sorted(self._instruments)
            if self._instruments[name]._samples()
        )
        return MetricsSnapshot(series=series)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry.

        Unknown series are materialized from the snapshot's metadata,
        so the parent need not have imported the instrumented module.
        Works regardless of the enabled flag — merging is an explicit
        aggregation step, not a hot-path record.
        """
        for entry in snapshot.series:
            name = entry["name"]
            kind = entry["type"]
            if kind == "histogram":
                instrument: Instrument = self.histogram(
                    name,
                    help=entry.get("help", ""),
                    deterministic=entry.get("deterministic", True),
                    buckets=entry.get("buckets", OP_COUNT_BUCKETS),
                )
            elif kind == "gauge":
                instrument = self.gauge(
                    name,
                    help=entry.get("help", ""),
                    deterministic=entry.get("deterministic", True),
                )
            else:
                instrument = self.counter(
                    name,
                    help=entry.get("help", ""),
                    deterministic=entry.get("deterministic", True),
                )
            for sample in entry["samples"]:
                key = _label_key(sample["labels"])
                if isinstance(instrument, Histogram):
                    series = instrument._series.get(key)
                    if series is None:
                        series = instrument._series[key] = _HistogramSeries(
                            counts=[0] * (len(instrument.buckets) + 1)
                        )
                    counts = sample["counts"]
                    if len(counts) != len(series.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket scheme mismatch: "
                            f"{len(counts)} vs {len(series.counts)} buckets"
                        )
                    series.counts = [a + b for a, b in zip(series.counts, counts)]
                    series.total += sample["sum"]
                    series.observations += sample["count"]
                elif isinstance(instrument, Gauge):
                    current = instrument._values.get(key)
                    value = sample["value"]
                    instrument._values[key] = (
                        value if current is None else max(current, value)
                    )
                else:
                    # By construction of the branch above: a Counter.
                    instrument._values[key] = (
                        instrument._values.get(key, 0) + sample["value"]
                    )

    def reset(self) -> None:
        """Zero every instrument (registrations survive)."""
        for instrument in self._instruments.values():
            instrument._clear()


#: The process-wide registry instrumented modules record into.
_DEFAULT = MetricsRegistry(enabled=False)


def default_registry() -> MetricsRegistry:
    """The process-local default registry (disabled until a run enables it)."""
    return _DEFAULT


__all__ = [
    "Counter",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "OP_COUNT_BUCKETS",
    "CollectionSession",
    "default_registry",
]

"""The unified result/report API.

Every result-shaped dataclass in the repo — the experiment registry's
:class:`~repro.experiments.runner.ExperimentResult`, the TPC-C
executor's :class:`~repro.tpcc.executor.ExecutionSummary`, the
statistics, throughput and distributed summaries, and the execution
engine's manifest rows — implements one small protocol:

* ``to_dict()`` → a JSON-serializable dict tagged with ``kind`` and
  ``schema_version``;
* an optional ``metrics`` field holding a
  :class:`~repro.obs.metrics.MetricsSnapshot` (attach one with
  :meth:`ReportMixin.with_metrics`).

:class:`ReportMixin` supplies a generic implementation that walks the
dataclass fields, so each dataclass keeps its existing fields and
attribute access — migration is "inherit the mixin", not "rewrite the
class".  Nested reports (e.g. a ``DistributedResult`` holding a
``ThroughputResult``) serialize recursively, each with its own tags.
The package writes these documents and does not read them back;
``repro stats`` reads only their embedded metrics snapshot.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Mapping, Protocol, runtime_checkable

from repro.obs.metrics import MetricsSnapshot


@runtime_checkable
class Report(Protocol):
    """Anything that serializes as a versioned, tagged report."""

    schema_version: ClassVar[int]

    def to_dict(self) -> dict[str, Any]: ...


def _serialize(value: Any) -> Any:
    """JSON-friendly form of a field value (recursing into reports)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, MetricsSnapshot):
        return value.to_dict()
    if hasattr(value, "to_dict") and dataclasses.is_dataclass(value):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _serialize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): _serialize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_serialize(item) for item in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


class ReportMixin:
    """Generic ``to_dict`` for result dataclasses.

    Subclasses are dataclasses; the mixin walks their fields.  Bump the
    class's ``schema_version`` when a serialized field changes meaning,
    so readers of the JSON can tell the shapes apart.
    """

    schema_version: ClassVar[int] = 1

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "schema_version": type(self).schema_version,
            "kind": type(self).__name__,
        }
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            data[f.name] = _serialize(getattr(self, f.name))
        return data

    def with_metrics(self, snapshot: MetricsSnapshot) -> Any:
        """A copy with the metrics snapshot attached.

        Only reports declaring a ``metrics`` field support attachment;
        others raise ``TypeError`` (observability stays opt-in per
        report shape).
        """
        names = {f.name for f in dataclasses.fields(self)}  # type: ignore[arg-type]
        if "metrics" not in names:
            raise TypeError(
                f"{type(self).__name__} has no metrics field to attach to"
            )
        return dataclasses.replace(self, metrics=snapshot)  # type: ignore[type-var]


__all__ = ["Report", "ReportMixin"]

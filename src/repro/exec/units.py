"""Work-unit decomposition: a sweep as a :class:`SweepSpec` of work units.

A sweep of simulations (the Figure 8 operating points, the nodes of a
cluster simulation) is a set of *independent* evaluations of one
function over a parameter grid.  A :class:`SweepSpec` declares that set
as picklable :class:`WorkUnit`\\ s so the execution engine can fan them
out over processes and cache each one.  Work units are for
simulations: a closed-form point (Figures 9-12) costs about a
millisecond and is a plain function call.

The unit ``function`` must be a module-level callable (picklable by
qualified name) and the ``payload`` a picklable value — frozen config
dataclasses are the idiom used throughout the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class WorkUnit:
    """One independent evaluation: ``function(payload)``.

    ``unit_id`` names the unit in progress output, manifests and sweep
    results; it must be unique within a spec.
    """

    unit_id: str
    function: Callable[[Any], Any]
    payload: Any


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of independent work units (one per sweep point)."""

    experiment: str
    units: tuple[WorkUnit, ...]

    def __post_init__(self) -> None:
        identifiers = [unit.unit_id for unit in self.units]
        if len(set(identifiers)) != len(identifiers):
            duplicates = sorted(
                {uid for uid in identifiers if identifiers.count(uid) > 1}
            )
            raise ValueError(f"duplicate unit ids in sweep: {duplicates}")

    def __iter__(self) -> Iterator[WorkUnit]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    @classmethod
    def over(
        cls,
        experiment: str,
        function: Callable[[Any], Any],
        payloads: Iterable[tuple[str, Any]],
    ) -> "SweepSpec":
        """Build a spec from ``(unit_id, payload)`` pairs over one function."""
        return cls(
            experiment=experiment,
            units=tuple(
                WorkUnit(unit_id=unit_id, function=function, payload=payload)
                for unit_id, payload in payloads
            ),
        )

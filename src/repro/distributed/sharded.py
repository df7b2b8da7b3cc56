"""Sharded execution of the distributed buffer simulation.

:mod:`repro.distributed.simulation` makes every node of a cluster run
self-contained (``simulate_node(config, node)`` has no cross-node
state), and this module is the payoff: every node of a
:class:`DistributedSimConfig` is one work unit, fanned out through the
:class:`~repro.exec.engine.ExecutionEngine` process pool and folded
into a :class:`DistributedSimReport` that is bit-identical to
:class:`DistributedBufferSimulation` — the fold sorts by node id, so
completion order cannot leak into the report (property-tested in
``tests/distributed/test_sharded.py``).

Before dispatching, the runner probes the engine's content-addressed
cache under each node unit's key and only ships the missing nodes, so
a repeated sweep point adds no unit records at all and a sweep over
``remote_stock_probability`` or replication re-uses every node whose
config did not change.  Checkpoint/resume comes for free: a killed
sweep's completed nodes are already on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.simulation import (
    DistributedSimConfig,
    DistributedSimReport,
    NodeResult,
    fold_report,
    simulate_node,
)
from repro.exec.cache import MISSING, cache_key
from repro.exec.engine import ExecutionEngine
from repro.exec.units import SweepSpec


@dataclass(frozen=True)
class NodeShardUnit:
    """One shard: simulate node ``node`` of ``config`` in one worker."""

    config: DistributedSimConfig
    node: int


def run_shard(unit: NodeShardUnit) -> NodeResult:
    """Execute one shard (module-level, picklable for the process pool)."""
    return simulate_node(unit.config, unit.node)


def shard_spec(
    config: DistributedSimConfig, experiment: str = "distributed-sharded"
) -> SweepSpec:
    """The sweep spec of ``config``: one unit per node."""
    return SweepSpec.over(
        experiment,
        run_shard,
        [
            (f"node-{node:04d}", NodeShardUnit(config=config, node=node))
            for node in range(config.nodes)
        ],
    )


def run_sharded(
    config: DistributedSimConfig,
    engine: ExecutionEngine,
    experiment: str = "distributed-sharded",
) -> DistributedSimReport:
    """Run ``config`` through the engine; bit-identical to the serial run."""
    spec = shard_spec(config, experiment)
    results: list[NodeResult] = []
    missing = []
    for unit in spec.units:
        value = MISSING
        if engine.cache is not None:
            value = engine.cache.get(cache_key(unit.function, unit.payload))
        if value is MISSING:
            missing.append(unit)
        else:
            results.append(value)
    if missing:
        results.extend(engine.run_sweep(SweepSpec(experiment, tuple(missing))).values())
    return fold_report(config, results)


__all__ = [
    "NodeShardUnit",
    "run_shard",
    "run_sharded",
    "shard_spec",
]

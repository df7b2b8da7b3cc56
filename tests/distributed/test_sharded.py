"""Sharded vs monolithic distributed simulation (repro.distributed.sharded).

The sharded runner's contract is *bit-identity*: whatever the node
count, worker count or cache state, the folded
:class:`DistributedSimReport` equals the serial
:class:`DistributedBufferSimulation` run field for field.  These tests
drive that property, plus the per-node cache reuse and the
metrics-merge reconciliation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.distributed.sharded import run_sharded, shard_spec
from repro.distributed.simulation import (
    DistributedBufferSimulation,
    DistributedSimConfig,
)
from repro.exec.engine import ExecutionEngine
from repro.exec.request import RunRequest
from repro.obs.metrics import default_registry
from repro.workload.trace import TraceConfig

_DIST_COUNTERS = (
    "dist.nodes_total",
    "dist.remote.stock_calls_total",
    "dist.remote.payments_total",
)


def tiny_trace(**overrides):
    defaults = dict(
        warehouses=1,
        items=400,
        customers_per_district=60,
        prime_orders=20,
        prime_pending=6,
        seed=5,
        remote_stock_probability=0.2,
    )
    defaults.update(overrides)
    return TraceConfig(**defaults)


def tiny_config(**overrides):
    defaults = dict(
        nodes=3,
        trace=tiny_trace(),
        buffer_mb=0.5,
        transactions_per_node=150,
        warmup_transactions_per_node=40,
        seed=3,
    )
    defaults.update(overrides)
    return DistributedSimConfig(**defaults)


_MONOLITHIC_CACHE: dict[int, object] = {}


def monolithic(nodes: int):
    """The serial reference report for ``tiny_config(nodes=...)``."""
    if nodes not in _MONOLITHIC_CACHE:
        _MONOLITHIC_CACHE[nodes] = DistributedBufferSimulation(
            tiny_config(nodes=nodes)
        ).run()
    return _MONOLITHIC_CACHE[nodes]


class TestShardLayout:
    def test_default_is_per_node(self):
        """One work unit per node is the only layout."""
        spec = shard_spec(tiny_config(nodes=4), "exp")
        assert spec.experiment == "exp"
        assert [unit.unit_id for unit in spec.units] == [
            "node-0000", "node-0001", "node-0002", "node-0003"
        ]
        assert [unit.payload.node for unit in spec.units] == [0, 1, 2, 3]

    def test_invalid_shards_rejected(self, capsys):
        """No layout knob on the config, the request or the CLI any more."""
        with pytest.raises(TypeError, match="shards"):
            tiny_config(shards=2)
        with pytest.raises(TypeError, match="shards"):
            RunRequest(experiment="fig11", shards=2)
        with pytest.raises(SystemExit) as usage:
            main(["run", "fig11", "--shards", "4"])
        assert usage.value.code == 2
        assert "--shards" in capsys.readouterr().err


class TestBitIdentity:
    @given(nodes=st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_sharded_equals_monolithic(self, nodes):
        """Any node count folds to the serial report."""
        config = tiny_config(nodes=nodes)
        engine = ExecutionEngine(jobs=1)
        try:
            sharded = run_sharded(config, engine)
        finally:
            engine.close()
        assert sharded == monolithic(nodes)

    def test_parallel_run_with_cache(self, tmp_path):
        """Process-pool execution (out-of-order completion) with a cache."""
        config = tiny_config(nodes=6)
        engine = ExecutionEngine(jobs=3, cache_dir=tmp_path / "cache")
        try:
            sharded = run_sharded(config, engine)
        finally:
            engine.close()
        assert sharded == monolithic(6)


class TestCacheSharing:
    def test_relaunch_is_all_cached(self, tmp_path):
        """A second engine on the same cache directory executes — and
        records — zero units: the per-node probe serves every node."""
        config = tiny_config(nodes=4)
        first_engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        try:
            first = run_sharded(config, first_engine)
            assert len(first_engine.manifest().units) == config.nodes
        finally:
            first_engine.close()

        second_engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        try:
            second = run_sharded(config, second_engine)
            executed = len(second_engine.manifest().units)
        finally:
            second_engine.close()
        assert executed == 0
        assert second == first

    def test_sweep_reuses_unchanged_node_shards(self, tmp_path):
        """Changing only fingerprint-relevant fields misses the cache;
        repeating a sweep point hits it without executing."""
        config = tiny_config(nodes=3)
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        try:
            run_sharded(config, engine)
            baseline = len(engine.manifest().units)
            run_sharded(config, engine)  # same point: all cached
            assert len(engine.manifest().units) == baseline
            varied = config.replace(
                trace=config.trace.replace(remote_stock_probability=0.5)
            )
            run_sharded(varied, engine)  # new point: all nodes recomputed
            assert len(engine.manifest().units) == baseline + config.nodes
        finally:
            engine.close()


class TestMetricsReconciliation:
    def test_merged_worker_metrics_match_monolithic(self):
        """Per-shard registry snapshots merged across processes equal the
        serial run's counters (and the report's own remote totals)."""
        config = tiny_config(nodes=4)
        registry = default_registry()

        with registry.collecting() as session:
            mono = DistributedBufferSimulation(config).run()
        mono_totals = {
            name: session.snapshot.counter_total(name)
            for name in _DIST_COUNTERS
        }

        engine = ExecutionEngine(jobs=2)
        try:
            with registry.collecting() as sharded_session:
                sharded = run_sharded(config, engine)
        finally:
            engine.close()
        sharded_totals = {
            name: sharded_session.snapshot.counter_total(name)
            for name in _DIST_COUNTERS
        }

        assert sharded == mono
        assert sharded_totals == mono_totals
        assert sharded_totals["dist.nodes_total"] == config.nodes
        assert (
            sharded_totals["dist.remote.stock_calls_total"]
            == mono.remote.remote_stock_calls
        )
        assert (
            sharded_totals["dist.remote.payments_total"]
            == mono.remote.remote_payments
        )

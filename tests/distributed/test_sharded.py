"""Sharded vs monolithic distributed simulation (repro.distributed.sharded).

The sharded runner's contract is *bit-identity*: whatever the shard
layout, worker count, trace-emission kernel or cache state, the folded
:class:`DistributedSimReport` equals the serial
:class:`DistributedBufferSimulation` run field for field.  These tests
drive that property across the layout space, plus the shard-invariant
cache sharing and the metrics-merge reconciliation.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.sharded import (
    node_cache_key,
    run_sharded,
    shard_layout,
)
from repro.distributed.simulation import (
    DistributedBufferSimulation,
    DistributedSimConfig,
)
from repro.exec.cache import stable_fingerprint
from repro.exec.engine import ExecutionEngine
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


def identical(sharded, monolithic) -> bool:
    """Full-report equality modulo the layout config fields.

    ``kernel`` and ``shards`` are the config fields allowed to differ
    (both are fingerprint-excluded for the same reason); every measured
    field must match exactly.
    """
    return dataclasses.replace(sharded, config=monolithic.config) == monolithic


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
        assert shard_layout([0, 1, 2, 3], None) == [(0,), (1,), (2,), (3,)]

    def test_balanced_contiguous_groups(self):
        assert shard_layout([0, 1, 2, 3, 4], 2) == [(0, 1, 2), (3, 4)]
        assert shard_layout(range(6), 3) == [(0, 1), (2, 3), (4, 5)]

    def test_sorts_and_clamps(self):
        assert shard_layout([3, 1, 2], 1) == [(1, 2, 3)]
        assert shard_layout([0, 1], 5) == [(0,), (1,)]
        assert shard_layout([], 3) == []

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            tiny_config(shards=0)


class TestBitIdentity:
    @given(
        nodes=st.integers(min_value=1, max_value=5),
        shards=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )
    @settings(max_examples=12, deadline=None)
    def test_sharded_equals_monolithic(self, nodes, shards):
        """Any (node count, shard size) folds to the serial report."""
        config = tiny_config(nodes=nodes, shards=shards)
        engine = ExecutionEngine(jobs=1)
        try:
            sharded = run_sharded(config, engine)
        finally:
            engine.close()
        assert identical(sharded, monolithic(nodes))

    def test_parallel_grouped_run(self, tmp_path):
        """Process-pool execution with grouped shards and a cache."""
        config = tiny_config(nodes=6, shards=2)
        engine = ExecutionEngine(jobs=3, cache_dir=tmp_path / "cache")
        try:
            sharded = run_sharded(config, engine)
        finally:
            engine.close()
        assert identical(sharded, monolithic(6))


class TestCacheSharing:
    def test_shards_excluded_from_fingerprint(self):
        """Worker layout is an execution detail, not a cache key."""
        prints = {
            stable_fingerprint(tiny_config(shards=shards))
            for shards in (None, 1, 4, 16)
        }
        assert len(prints) == 1
        assert stable_fingerprint(tiny_config(nodes=4)) != stable_fingerprint(
            tiny_config(nodes=5)
        )

    def test_node_cache_key_shard_invariant(self):
        assert node_cache_key(tiny_config(shards=4), 0) == node_cache_key(
            tiny_config(shards=16), 0
        )
        assert node_cache_key(tiny_config(), 0) != node_cache_key(
            tiny_config(), 1
        )

    def test_relaunch_with_different_layout_is_all_cached(self, tmp_path):
        """A 2-shard run back-fills per-node entries, so a per-node
        relaunch of the same config executes zero units."""
        config = tiny_config(nodes=4, shards=2)
        first_engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        try:
            first = run_sharded(config, first_engine)
        finally:
            first_engine.close()

        second_engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        try:
            second = run_sharded(config.replace(shards=None), second_engine)
            executed = len(second_engine.manifest().units)
        finally:
            second_engine.close()
        assert executed == 0
        assert identical(second, first)

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

        engine = ExecutionEngine(jobs=2, cache_dir=None, collect_metrics=True)
        try:
            with registry.collecting() as sharded_session:
                sharded = run_sharded(config, engine)
        finally:
            engine.close()
        sharded_totals = {
            name: sharded_session.snapshot.counter_total(name)
            for name in _DIST_COUNTERS
        }

        assert identical(sharded, mono)
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

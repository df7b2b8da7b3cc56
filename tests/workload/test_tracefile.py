"""Unit tests for repro.workload.tracefile (trace capture and replay)."""

import numpy as np
import pytest

from repro.workload.trace import RELATION_NAMES, TraceConfig
from repro.workload.tracefile import SavedTrace

from ..buffer.policy_oracle import make_policy
from ..buffer.policy_replay import replay


@pytest.fixture(scope="module")
def trace():
    config = TraceConfig(
        warehouses=2,
        items=300,
        customers_per_district=90,
        prime_orders=20,
        prime_pending=5,
        seed=15,
    )
    return SavedTrace.record(config, transactions=200)


class TestRecord:
    def test_counts(self, trace):
        assert trace.transaction_count == 200
        assert trace.reference_count > 200

    def test_invalid_transactions(self):
        with pytest.raises(ValueError):
            SavedTrace.record(TraceConfig(warehouses=1), transactions=0)

    def test_references_iterate_in_order(self, trace):
        refs = list(trace.references())
        assert len(refs) == trace.reference_count

    def test_transactions_partition_references(self, trace):
        groups = list(trace.transactions())
        assert len(groups) == 200
        assert sum(len(group) for group in groups) == trace.reference_count

    def test_matches_live_generator(self):
        """Recording must capture exactly what the generator emits."""
        from repro.workload.trace import TraceGenerator

        config = TraceConfig(warehouses=1, items=90, customers_per_district=30,
                             prime_orders=10, prime_pending=3, seed=77)
        saved = SavedTrace.record(config, transactions=50)
        live = TraceGenerator(config)
        live_refs = list(live.references(50))
        assert list(saved.references()) == live_refs

    def test_recorded_columns_are_pinned(self):
        """SHA-256 of the four stored columns (int8 relations, int64
        pages, bool writes, int64 boundaries), taken while ``record``
        still appended one Python object per reference."""
        import hashlib

        saved = SavedTrace.record(TraceConfig(warehouses=2, seed=13), 300)
        digest = hashlib.sha256()
        for column, dtype in (
            (saved._relations, np.int8),
            (saved._pages, np.int64),
            (saved._writes, np.bool_),
            (saved._boundaries, np.int64),
        ):
            assert column.dtype == dtype
            digest.update(np.ascontiguousarray(column).tobytes())
        assert digest.hexdigest() == (
            "7b9408f119a6d9841f80b7671054613d9258292af0027a4540f87451e7e0250c"
        )

    def test_relation_access_counts(self, trace):
        counts = trace.relation_access_counts()
        assert counts["stock"] > counts["warehouse"]
        assert sum(counts.values()) == trace.reference_count


class TestPersistence:
    def test_save_load_round_trip(self, trace, tmp_path):
        path = trace.save(tmp_path / "trace.npz")
        loaded = SavedTrace.load(path)
        assert loaded.reference_count == trace.reference_count
        assert loaded.transaction_count == trace.transaction_count
        assert list(loaded.references())[:50] == list(trace.references())[:50]

    def test_config_preserved(self, trace, tmp_path):
        path = trace.save(tmp_path / "trace.npz")
        loaded = SavedTrace.load(path)
        assert loaded.config == trace.config

    def test_suffix_added(self, trace, tmp_path):
        path = trace.save(tmp_path / "trace")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_bad_version_rejected(self, trace, tmp_path):
        path = trace.save(tmp_path / "trace.npz")
        with np.load(path) as archive:
            data = dict(archive)
        data["format_version"] = np.int64(99)
        np.savez_compressed(tmp_path / "bad.npz", **data)
        with pytest.raises(ValueError, match="version"):
            SavedTrace.load(tmp_path / "bad.npz")


class TestReplay:
    def test_replay_deterministic(self, trace):
        first = trace.replay(buffer_pages=80)
        second = trace.replay(buffer_pages=80)
        assert first == second

    def test_replay_monotone_in_capacity(self, trace):
        small = trace.replay(buffer_pages=40)
        large = trace.replay(buffer_pages=400)
        assert large["stock"] <= small["stock"]
        assert large["customer"] <= small["customer"]

    def test_replay_under_different_policies(self, trace):
        lru = trace.replay(buffer_pages=60, policy="lru")
        fifo = trace.replay(buffer_pages=60, policy="fifo")
        assert set(lru) == set(fifo)
        assert lru["stock"] != fifo["stock"]

    def test_replay_after_reload(self, trace, tmp_path):
        path = trace.save(tmp_path / "trace.npz")
        loaded = SavedTrace.load(path)
        assert loaded.replay(buffer_pages=80) == trace.replay(buffer_pages=80)

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_replay_equals_object_pool(self, trace, policy):
        """The kernel replay of the packed columns is the policy object's
        one-access-at-a-time replay, rate for rate."""
        hits, misses, _ = replay(
            make_policy(policy, 80), (ref[:2] for ref in trace.references())
        )
        expected = {
            RELATION_NAMES[index]: misses[index] / (hits[index] + misses[index])
            for index in sorted(hits | misses)
        }
        assert trace.replay(buffer_pages=80, policy=policy) == expected

"""Unit tests for the content-addressed result cache and its keys."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.buffer.simulator import SimulationConfig, run_simulation_config
from repro.exec.cache import MISSING, ResultCache, cache_key, stable_fingerprint
from repro.workload.trace import TraceConfig

SRC = Path(__file__).resolve().parents[2] / "src"


def _reference_config() -> SimulationConfig:
    return SimulationConfig(
        trace=TraceConfig(warehouses=2, packing="optimized", seed=7),
        buffer_mb=8.0,
        batches=3,
        batch_size=1_000,
    )


class TestStableFingerprint:
    def test_primitives(self):
        assert stable_fingerprint(1) != stable_fingerprint("1")
        assert stable_fingerprint(1.0) != stable_fingerprint(1)
        assert stable_fingerprint(True) != stable_fingerprint(1)
        assert stable_fingerprint(None) == stable_fingerprint(None)

    def test_dataclass_covers_every_field(self):
        base = _reference_config()
        assert stable_fingerprint(base) == stable_fingerprint(_reference_config())
        assert stable_fingerprint(base) != stable_fingerprint(
            base.replace(buffer_mb=9.0)
        )

    def test_dict_order_independent(self):
        assert stable_fingerprint({"a": 1, "b": 2}) == stable_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_numpy_array_by_content(self):
        a = np.arange(10, dtype=np.float64)
        b = np.arange(10, dtype=np.float64)
        assert stable_fingerprint(a) == stable_fingerprint(b)
        b[3] = 99.0
        assert stable_fingerprint(a) != stable_fingerprint(b)

    def test_unfingerprintable_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            stable_fingerprint(value for value in [1, 2])


class TestCacheKey:
    def test_stable_within_process(self):
        key_a = cache_key(run_simulation_config, _reference_config())
        key_b = cache_key(run_simulation_config, _reference_config())
        assert key_a == key_b

    def test_stable_across_processes(self):
        """The key must not depend on PYTHONHASHSEED or object identity."""
        script = (
            "from repro.buffer.simulator import SimulationConfig, "
            "run_simulation_config\n"
            "from repro.workload.trace import TraceConfig\n"
            "from repro.exec.cache import cache_key\n"
            "config = SimulationConfig(trace=TraceConfig(warehouses=2, "
            "packing='optimized', seed=7), buffer_mb=8.0, batches=3, "
            "batch_size=1000)\n"
            "print(cache_key(run_simulation_config, config))\n"
        )
        process = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "12345"},
        )
        assert process.returncode == 0, process.stderr
        assert process.stdout.strip() == cache_key(
            run_simulation_config, _reference_config()
        )

    def test_changes_with_any_config_field(self):
        base = _reference_config()
        reference = cache_key(run_simulation_config, base)
        variants = [
            base.replace(buffer_mb=12.0),
            base.replace(batches=4),
            base.replace(batch_size=2_000),
            base.replace(policy="clock"),
            base.replace(confidence=0.95),
            base.replace(trace=base.trace.replace(seed=8)),
            base.replace(trace=base.trace.replace(warehouses=3)),
            base.replace(trace=base.trace.replace(packing="sequential")),
        ]
        keys = {cache_key(run_simulation_config, variant) for variant in variants}
        assert reference not in keys
        assert len(keys) == len(variants)

    def test_changes_with_function(self):
        def other(config):
            return None

        base = _reference_config()
        assert cache_key(run_simulation_config, base) != cache_key(other, base)

    def test_changes_with_package_version(self, monkeypatch):
        import repro

        base = _reference_config()
        reference = cache_key(run_simulation_config, base)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache_key(run_simulation_config, base) != reference

    def test_explicit_version_parameter(self):
        base = _reference_config()
        assert cache_key(run_simulation_config, base, version="a") != cache_key(
            run_simulation_config, base, version="b"
        )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(run_simulation_config, _reference_config())
        assert cache.get(key) is MISSING
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert len(cache) == 1

    def test_cached_none_distinct_from_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, None)
        assert cache.get("ab" + "0" * 62) is None
        assert cache.get("cd" + "0" * 62) is MISSING

    def test_corrupt_entry_is_a_warned_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable cache entry"):
            assert cache.get(key) is MISSING
        cache.put(key, [4])
        assert cache.get(key) == [4]

    def test_truncated_entry_is_a_warned_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, list(range(100)))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])  # simulate a torn write
        with pytest.warns(RuntimeWarning, match="unreadable cache entry"):
            assert cache.get(key) is MISSING

    def test_missing_entry_is_a_silent_miss(self, tmp_path, recwarn):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" + "0" * 62) is MISSING
        assert not recwarn.list

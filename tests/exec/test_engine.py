"""Unit tests for the execution engine: serial/parallel parity, the
on-disk cache as the checkpoint, stop-on-failure and the manifest."""

import inspect
from pathlib import Path

import pytest

from repro.exec.cache import MISSING, cache_key
from repro.exec.engine import ExecutionEngine, ExecutionError
from repro.exec.units import SweepSpec


# Unit functions must be module-level so the process pool can pickle
# them by qualified name.

def _double(value):
    return value * 2


def _fail_at_three(value):
    if value == 3:
        raise RuntimeError(f"boom {value}")
    return value * 2


def _interrupt_at_three(payload):
    """Count each finished run in a marker file; unit 3 raises
    ``KeyboardInterrupt`` until the ``resumed`` tripwire file exists."""
    directory, value = payload
    if value == 3 and not (Path(directory) / "resumed").exists():
        raise KeyboardInterrupt
    marker = Path(directory) / f"ran-{value}"
    marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
    return value * 2


def executions(directory, value):
    marker = Path(directory) / f"ran-{value}"
    return len(marker.read_text()) if marker.exists() else 0


def _spec(values=(1, 2, 3)):
    return SweepSpec.over(
        "demo", _double, ((f"demo/{value}", value) for value in values)
    )


class TestSweepSpec:
    def test_over_builds_units(self):
        spec = _spec()
        assert len(spec) == 3
        assert [unit.unit_id for unit in spec] == ["demo/1", "demo/2", "demo/3"]
        assert (spec.units[0].function, spec.units[0].payload) == (_double, 1)

    def test_duplicate_unit_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate unit ids"):
            SweepSpec.over("demo", _double, [("same", 1), ("same", 2)])


class TestSerialExecution:
    def test_results_by_unit_id(self):
        with ExecutionEngine(jobs=1) as engine:
            results = engine.run_sweep(_spec())
        assert results == {"demo/1": 2, "demo/2": 4, "demo/3": 6}

    def test_manifest_records_every_unit(self):
        engine = ExecutionEngine(jobs=1)
        engine.run_sweep(_spec())
        manifest = engine.manifest()
        assert manifest.total_units == 3
        assert manifest.cache_hits == 0
        assert manifest.failures == 0
        assert all(record.status == "done" for record in manifest.units)

    def test_progress_lines(self, capsys):
        engine = ExecutionEngine(jobs=1, progress=True)
        engine.run_sweep(_spec())
        lines = capsys.readouterr().err.splitlines()
        assert lines
        assert all(line.startswith("[exec] ") for line in lines)
        assert any("sweep done" in line for line in lines)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="jobs"):
            ExecutionEngine(jobs=0)
        assert list(inspect.signature(ExecutionEngine).parameters) == [
            "jobs",
            "cache_dir",
            "progress",
            "profile",
        ]


class TestParallelExecution:
    def test_matches_serial_results(self):
        with ExecutionEngine(jobs=1) as serial:
            expected = serial.run_sweep(_spec(range(6)))
        with ExecutionEngine(jobs=2) as parallel:
            assert parallel.run_sweep(_spec(range(6))) == expected

    def test_manifest_counts(self):
        with ExecutionEngine(jobs=2) as engine:
            engine.run_sweep(_spec())
            manifest = engine.manifest()
        assert manifest.total_units == 3
        assert manifest.failures == 0


class TestCache:
    def test_second_run_is_all_cached(self, tmp_path):
        spec = _spec()
        with ExecutionEngine(jobs=1, cache_dir=tmp_path) as first:
            expected = first.run_sweep(spec)
            assert first.manifest().cache_hits == 0
        with ExecutionEngine(jobs=1, cache_dir=tmp_path) as second:
            assert second.run_sweep(spec) == expected
            manifest = second.manifest()
        assert manifest.all_cached
        assert manifest.cache_hits == 3
        assert all(record.status == "cached" for record in manifest.units)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        with ExecutionEngine(jobs=2, cache_dir=tmp_path) as parallel:
            expected = parallel.run_sweep(_spec())
        with ExecutionEngine(jobs=1, cache_dir=tmp_path) as serial:
            assert serial.run_sweep(_spec()) == expected
            assert serial.manifest().all_cached

    def test_cache_hit_logged(self, tmp_path, capsys):
        with ExecutionEngine(jobs=1, cache_dir=tmp_path) as first:
            first.run_sweep(_spec())
        with ExecutionEngine(jobs=1, cache_dir=tmp_path, progress=True) as second:
            second.run_sweep(_spec())
        assert "cache hit" in capsys.readouterr().err

    def test_rerun_after_interrupt_runs_each_unit_once(self, tmp_path):
        cache = tmp_path / "cache"
        spec = SweepSpec.over(
            "demo",
            _interrupt_at_three,
            ((f"demo/{value}", (str(tmp_path), value)) for value in (1, 2, 3, 4)),
        )
        with ExecutionEngine(jobs=1, cache_dir=cache) as first:
            with pytest.raises(KeyboardInterrupt):
                first.run_sweep(spec)
            partial = first.manifest()
        assert [(r.unit_id, r.status) for r in partial.units] == [
            ("demo/1", "done"),
            ("demo/2", "done"),
        ]

        (tmp_path / "resumed").write_text("")  # clear the tripwire
        with ExecutionEngine(jobs=1, cache_dir=cache) as second:
            results = second.run_sweep(spec)
            statuses = {r.unit_id: r.status for r in second.manifest().units}
        assert results == {f"demo/{value}": value * 2 for value in (1, 2, 3, 4)}
        assert statuses == {
            "demo/1": "cached",
            "demo/2": "cached",
            "demo/3": "done",
            "demo/4": "done",
        }
        assert all(executions(tmp_path, value) == 1 for value in (1, 2, 3, 4))


class TestFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_unit_stops_the_sweep(self, tmp_path, jobs):
        spec = SweepSpec.over(
            "doomed", _fail_at_three, ((f"doomed/{v}", v) for v in (1, 2, 3, 4))
        )
        with ExecutionEngine(jobs=jobs, cache_dir=tmp_path) as engine:
            with pytest.raises(ExecutionError, match="doomed/3 .*boom 3"):
                engine.run_sweep(spec)
            records = engine.manifest().units
        assert [(r.unit_id, r.status) for r in records] == [
            ("doomed/1", "done"),
            ("doomed/2", "done"),
            ("doomed/3", "failed"),
        ]
        assert records[-1].error == "RuntimeError: boom 3"
        cached = {
            unit.unit_id: engine.cache.get(cache_key(unit.function, unit.payload))
            for unit in spec
        }
        assert cached == {
            "doomed/1": 2,
            "doomed/2": 4,
            "doomed/3": MISSING,
            "doomed/4": MISSING,
        }


class TestManifestOutput:
    def test_as_dict_and_json(self, tmp_path):
        with ExecutionEngine(jobs=1) as engine:
            engine.run_sweep(_spec())
            manifest = engine.manifest()
        data = manifest.as_dict()
        assert data["jobs"] == 1
        assert data["units_total"] == 3
        assert data["cache_hits"] == 0
        assert len(data["units"]) == 3
        assert data["units"][0]["unit"] == "demo/1"
        path = manifest.write(tmp_path / "nested" / "manifest.json")
        assert path.exists()
        assert '"units_total": 3' in path.read_text()

    def test_summary_line(self):
        with ExecutionEngine(jobs=1) as engine:
            engine.run_sweep(_spec())
            summary = engine.manifest().summary()
        assert "3 units" in summary
        assert "0 failures" in summary


class TestScratch:
    def test_scratch_is_per_engine(self):
        first = ExecutionEngine()
        second = ExecutionEngine()
        first.scratch["key"] = "value"
        assert "key" not in second.scratch

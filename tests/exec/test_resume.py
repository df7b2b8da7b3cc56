"""Checkpoint/resume of the execution engine.

A killed or interrupted sweep leaves a partial manifest plus per-unit
cache entries; re-invoking with ``resume_from=<manifest>`` must skip
the completed units (serving them from the cache) and finish the rest.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.exec.engine import ExecutionEngine, load_completed_units
from repro.exec.units import SweepSpec


# Module-level unit functions (picklable, fingerprintable).

def _tally(payload):
    """Record the execution in a side-effect file, then compute."""
    directory, value = payload
    marker = Path(directory) / f"ran-{value}"
    marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
    return value * 2


def _interrupt_at_three(payload):
    directory, value = payload
    if value == 3 and not (Path(directory) / "resumed").exists():
        raise KeyboardInterrupt
    return value * 2


def _spec(function, directory, values=(1, 2, 3, 4)):
    return SweepSpec.over(
        "demo",
        function,
        ((f"demo/{value}", (str(directory), value)) for value in values),
    )


def executions(directory, value):
    marker = Path(directory) / f"ran-{value}"
    return len(marker.read_text()) if marker.exists() else 0


class TestResume:
    def test_resumed_run_skips_completed_units(self, tmp_path):
        cache = tmp_path / "cache"
        manifest_path = tmp_path / "manifest.json"
        spec = _spec(_tally, tmp_path)

        with ExecutionEngine(jobs=1, cache_dir=cache) as first:
            expected = first.run_sweep(spec)
            first.manifest().write(manifest_path)

        with ExecutionEngine(
            jobs=1, cache_dir=cache, resume_from=manifest_path
        ) as second:
            results = second.run_sweep(spec)
            manifest = second.manifest()

        assert results == expected
        assert manifest.skipped == 4
        assert manifest.cache_hits == 0  # resumed units count as skipped
        assert all(record.status == "skipped" for record in manifest.units)
        # No unit function ran a second time.
        assert all(executions(tmp_path, value) == 1 for value in (1, 2, 3, 4))

    def test_interrupt_then_resume_completes_without_rerunning(self, tmp_path):
        cache = tmp_path / "cache"
        manifest_path = tmp_path / "manifest.json"
        spec = _spec(_interrupt_at_three, tmp_path)

        engine = ExecutionEngine(jobs=1, cache_dir=cache)
        with pytest.raises(KeyboardInterrupt):
            engine.run_sweep(spec)
        partial = engine.manifest()
        partial.write(manifest_path)
        engine.close()

        assert partial.interrupted == 2  # units 3 and 4 never finished
        done = {r.unit_id for r in partial.units if r.status == "done"}
        assert done == {"demo/1", "demo/2"}

        (tmp_path / "resumed").write_text("")  # clear the tripwire
        with ExecutionEngine(
            jobs=1, cache_dir=cache, resume_from=manifest_path
        ) as second:
            results = second.run_sweep(spec)
            manifest = second.manifest()

        assert results == {f"demo/{v}": v * 2 for v in (1, 2, 3, 4)}
        assert manifest.skipped == 2
        statuses = {r.unit_id: r.status for r in manifest.units}
        assert statuses["demo/1"] == statuses["demo/2"] == "skipped"
        assert statuses["demo/3"] == statuses["demo/4"] == "done"

    def test_interrupted_units_recorded_in_manifest_dict(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            engine.run_sweep(_spec(_interrupt_at_three, tmp_path))
        data = engine.manifest().as_dict()
        engine.close()
        assert data["interrupted"] == 2
        interrupted = [u for u in data["units"] if u["status"] == "interrupted"]
        assert all(u["error"] == "KeyboardInterrupt" for u in interrupted)

    def test_resume_without_cache_warns_and_reruns(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        spec = _spec(_tally, tmp_path)
        with ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache") as first:
            first.run_sweep(spec)
            first.manifest().write(manifest_path)
        with pytest.warns(RuntimeWarning, match="without a cache"):
            second = ExecutionEngine(jobs=1, resume_from=manifest_path)
        second.run_sweep(spec)
        second.close()
        assert all(executions(tmp_path, value) == 2 for value in (1, 2, 3, 4))


class TestLoadCompletedUnits:
    def test_reads_done_cached_and_skipped(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "units": [
                        {"experiment": "a", "unit": "a/1", "status": "done"},
                        {"experiment": "a", "unit": "a/2", "status": "cached"},
                        {"experiment": "a", "unit": "a/3", "status": "skipped"},
                        {"experiment": "a", "unit": "a/4", "status": "failed"},
                        {"experiment": "a", "unit": "a/5", "status": "interrupted"},
                    ]
                }
            )
        )
        assert load_completed_units(path) == {
            ("a", "a/1"),
            ("a", "a/2"),
            ("a", "a/3"),
        }

    def test_missing_manifest_degrades_to_full_run(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="cannot resume"):
            assert load_completed_units(tmp_path / "absent.json") == set()

    def test_garbage_manifest_degrades_to_full_run(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="cannot resume"):
            assert load_completed_units(path) == set()


class TestCliResume:
    def test_resume_flag_reaches_the_request(self):
        import argparse

        from repro.cli import _request_from_args

        args = argparse.Namespace(
            preset="quick",
            jobs=1,
            cache_dir="cache",
            seed=None,
            timeout=None,
            retries=1,
            manifest="m.json",
            quiet=True,
            resume="m.json",
            metrics=None,
            trace=None,
            profile=False,
        )
        request = _request_from_args(args, "fig8")
        assert request.resume_from == "m.json"

    def test_sigint_exits_130_and_writes_partial_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli
        import repro.exec.request as request_module

        def fake_execute(request, *, engine=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(request_module, "execute", fake_execute)
        manifest_path = tmp_path / "manifest.json"
        code = cli.main(
            ["run", "fig8", "--manifest", str(manifest_path), "--quiet"]
        )
        assert code == 130
        assert manifest_path.exists()
        assert "resume with --resume" in capsys.readouterr().err

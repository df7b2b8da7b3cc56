"""CI-parity tests for scripts/validate_metrics.py and the checked-in schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry

REPO_ROOT = Path(__file__).parents[2]
VALIDATOR = REPO_ROOT / "scripts" / "validate_metrics.py"
SCHEMA = REPO_ROOT / "schemas" / "metrics_snapshot.schema.json"


def _validate(stdin_text, *argv):
    return subprocess.run(
        [sys.executable, str(VALIDATOR), *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def snapshot_json():
    registry = MetricsRegistry(enabled=True)
    registry.counter("sim.buffer.misses_total").inc(7, relation="stock")
    registry.gauge("engine.locks.wait_depth").set(2)
    registry.histogram("tpcc.tx.ops", buckets=(1, 10, 100)).observe(12, tx="payment")
    return registry.snapshot().to_json()


class TestCheckedInSchema:
    def test_schema_is_valid_json_with_expected_shape(self):
        schema = json.loads(SCHEMA.read_text())
        assert schema["properties"]["kind"]["const"] == "MetricsSnapshot"
        assert schema["properties"]["schema_version"]["const"] == 1
        assert set(schema["required"]) == {"schema_version", "kind", "series"}


class TestValidator:
    def test_bare_snapshot_passes(self, snapshot_json):
        proc = _validate(snapshot_json)
        assert proc.returncode == 0, proc.stderr
        assert "metrics snapshot valid: 3 series" in proc.stdout

    def test_embedded_metrics_document_passes(self, snapshot_json):
        document = {
            "kind": "ExperimentResult",
            "metrics": json.loads(snapshot_json),
        }
        proc = _validate(json.dumps(document))
        assert proc.returncode == 0, proc.stderr

    def test_file_argument(self, snapshot_json, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text(snapshot_json)
        assert _validate("", str(path)).returncode == 0

    def test_empty_series_is_valid(self):
        empty = {"kind": "MetricsSnapshot", "schema_version": 1, "series": []}
        assert _validate(json.dumps(empty)).returncode == 0

    def test_ci_invocation_against_real_run(self):
        """The exact pipeline the CI job runs, end to end."""
        run = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig5",
             "--metrics", "-", "--format", "json", "--quiet"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        assert run.returncode == 0, run.stderr
        proc = _validate(run.stdout)
        assert proc.returncode == 0, proc.stderr

    def test_missing_required_key_exits_1(self, snapshot_json):
        broken = json.loads(snapshot_json)
        del broken["series"][0]["help"]
        proc = _validate(json.dumps(broken))
        assert proc.returncode == 1
        assert "missing required key 'help'" in proc.stderr

    def test_wrong_kind_exits_1(self, snapshot_json):
        broken = json.loads(snapshot_json)
        broken["kind"] = "MetricsSnapshot"
        broken["schema_version"] = 2
        proc = _validate(json.dumps(broken))
        assert proc.returncode == 1
        assert "schema violation" in proc.stderr

    def test_bad_instrument_type_exits_1(self, snapshot_json):
        broken = json.loads(snapshot_json)
        broken["series"][0]["type"] = "summary"
        proc = _validate(json.dumps(broken))
        assert proc.returncode == 1
        assert "not one of" in proc.stderr

    def test_histogram_bucket_count_mismatch_exits_1(self, snapshot_json):
        broken = json.loads(snapshot_json)
        for entry in broken["series"]:
            if entry["type"] == "histogram":
                entry["samples"][0]["counts"] = [1]
        proc = _validate(json.dumps(broken))
        assert proc.returncode == 1
        assert "bucket counts" in proc.stderr

    def test_counter_sample_without_value_exits_1(self, snapshot_json):
        broken = json.loads(snapshot_json)
        for entry in broken["series"]:
            if entry["type"] == "counter":
                del entry["samples"][0]["value"]
        proc = _validate(json.dumps(broken))
        assert proc.returncode == 1
        assert "missing 'value'" in proc.stderr

    def test_non_string_label_exits_1(self, snapshot_json):
        broken = json.loads(snapshot_json)
        broken["series"][0]["samples"][0]["labels"]["n"] = 3
        proc = _validate(json.dumps(broken))
        assert proc.returncode == 1
        assert "expected string" in proc.stderr

    def test_not_json_exits_2(self):
        proc = _validate("{nope")
        assert proc.returncode == 2
        assert "not JSON" in proc.stderr

    def test_document_without_snapshot_exits_2(self):
        proc = _validate(json.dumps({"kind": "ExperimentResult", "metrics": None}))
        assert proc.returncode == 2
        assert "no metrics snapshot" in proc.stderr

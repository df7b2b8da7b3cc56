"""Self-tests of the benchmark harness: ``python -m pytest perf -q``.

They are not part of the repo's tier-1 suite (``testpaths`` is
``tests``): they test the yardstick, not the system.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Target, Tracer  # noqa: E402


class FakeClock:
    """Returns the next instant of a script each time it is read."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self) -> float:
        return next(self._instants)


# -- spans and self time -------------------------------------------------------


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = Tracer(FakeClock([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    with tracer.span("root", "harness"):
        with tracer.span("a", "x"):
            with tracer.span("b", "y"):
                pass
        with tracer.span("c", "x"):
            pass
    buffer = tracer.buffers[0]
    assert buffer.parent == [-1, 0, 1, 0]
    assert Tracer.self_times(buffer) == [10 - 3 - 4, 3 - 1, 1, 4]
    assert tracer.root_seconds() == 10.0
    # Wrapper cost: 0.1 inside every span, 0.2 around every child.
    corrected = Tracer.self_times(buffer, inside=0.1, around=0.2)
    assert corrected == pytest.approx([10 - 0.1 - 3.2 - 4.2, 3 - 0.1 - 1.2, 0.9, 3.9])


def test_summary_groups_by_name_and_layer_and_keeps_waits_apart():
    tracer = Tracer()
    with tracer.span("root", "a"):
        with tracer.span("leaf", "b"):
            time.sleep(0.01)
    wait = tracer._register("parked", "b", wait=True)
    buffer = tracer.buffers[0]
    index = buffer.open(wait)
    buffer.start[index], buffer.end[index] = 1.0, 3.0
    buffer.stack.pop()
    by_name, busy, waiting = tracer.summary()
    assert by_name["leaf"].count == 1 and by_name["leaf"].total_s >= 0.01
    assert busy["a"].self_s < by_name["root"].total_s
    assert "parked" not in {name for name in busy} and waiting["b"].total_s == 2.0


def test_spans_of_another_thread_do_not_nest_under_this_one():
    import threading

    tracer = Tracer()
    with tracer.span("main-root", "a"):
        worker = threading.Thread(target=lambda: tracer.span("other", "b").__enter__())
        worker.start()
        worker.join(timeout=5)
    assert len(tracer.buffers) == 2
    assert tracer.buffers[1].parent == [-1]


class _Subject:
    def double(self, value):
        return 2 * value

    def count_to(self, stop):
        yield from range(stop)


def test_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.setitem(sys.modules, "subject_module", sys.modules[__name__])
    original = _Subject.__dict__["double"]
    tracer = Tracer()
    tracer.install(
        [
            Target("x", "subject_module:_Subject.double"),
            Target("x", "subject_module:_Subject.count_to"),
        ]
    )
    assert _Subject().double(4) == 8
    assert list(_Subject().count_to(3)) == [0, 1, 2]
    names = [tracer.targets[t][0] for t in tracer.buffers[0].target]
    # One span for double, one for making the generator, one per resumption.
    assert names.count("_Subject.double") == 1
    assert names.count("_Subject.count_to") == 1 + 4
    tracer.uninstall()
    assert _Subject.__dict__["double"] is original


def test_absent_targets_are_reported_and_never_raise():
    tracer = Tracer()
    gone = [
        Target("x", "repro.no_such_module:thing"),
        Target("x", "repro.buffer.pool:NoSuchClass.access"),
        Target("x", "repro.buffer.pool:SimulatedBufferPool.no_such_method"),
        Target("x", "repro.buffer.pool:no_such_function"),
    ]
    tracer.install(gone + [Target("x", "repro.buffer.pool:SimulatedBufferPool.access")])
    try:
        assert tracer.absent == [target.path for target in gone]
        assert len(tracer) == 0
    finally:
        tracer.uninstall()


def test_every_declared_target_exists_today():
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    tracer.uninstall()
    assert tracer.absent == []


def test_trace_file_has_one_record_per_span_with_trace_ids(tmp_path):
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("root", "a"):
            with tracer.span("leaf", "b"):
                pass
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["parent"] for r in records] == [None, 0, None, 2]
    assert [r["trace"] for r in records] == [0, 0, 2, 2]
    assert all(r["end"] >= r["start"] for r in records)


# -- statistics ----------------------------------------------------------------


def test_percentile_is_nearest_rank_like_the_driver_report():
    from repro.driver.report import percentile

    values = sorted(float(v) for v in range(1, 238))
    for fraction in (0.5, 0.9, 0.95, 0.99, 1.0):
        assert report.percentile(values, fraction) == percentile(values, fraction)
    assert report.percentile([], 0.5) == 0.0


def test_highest_percentile_with_ten_samples_beyond_it():
    assert report.supported_percentile(1_700) == 0.99
    assert report.supported_percentile(1_000) == 0.99
    assert report.supported_percentile(999) == 0.95
    assert report.supported_percentile(160) == 0.90
    assert report.supported_percentile(99) == 0.75
    assert report.supported_percentile(20) == 0.50
    assert report.supported_percentile(19) is None


def test_lap_medians_are_taken_across_children_before_summing():
    def child(seconds):
        return {
            "laps": [["a", 100, s, s] for s in seconds],
            "setup_s": 1.0, "setup_raw_s": 1.0, "rss_mb": 10.0,
        }

    # Each child has one stalled lap; no lap is stalled in most children.
    children = [child([1, 1, 9]), child([1, 9, 1]), child([9, 1, 1])]
    metrics = report.end_to_end(children)
    assert metrics["work_per_s"]["value"] == 300 / 3
    assert metrics["work_per_s"]["n"] == 3


def test_host_clock_scales_a_lap_by_the_reference_kernel(monkeypatch):
    monkeypatch.setattr(hostspeed, "reference_seconds", lambda runs=3: 2 * hostspeed.REFERENCE_S)
    clock = hostspeed.HostClock()
    raw, host = clock.lap()
    assert host == pytest.approx(raw / 2)


# -- correctness accounting ----------------------------------------------------


class _Broken(workloads.Workload):
    name = "broken"

    def run(self) -> None:
        self.operation("boom", lambda: 1 / 0, lambda result: 1)


def test_an_exception_is_a_failed_operation_and_an_incorrect_run():
    workload = _Broken(seed=1, scale=1.0)
    workload.clock = hostspeed.HostClock()
    workload.run()
    assert (workload.attempted, workload.failed) == (1, 1)
    assert workload.laps[0][1] == 0
    child = {
        "laps": workload.laps, "attempted": 1, "failed": 1, "errors": workload.errors,
        "check_failures": [], "counts": {}, "work_unit": "", "setup_s": 1.0,
        "setup_raw_s": 1.0, "rss_mb": 1.0,
    }
    result = run.end_to_end_result([child])
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert "ZeroDivisionError" in result["problems"][0]


def test_a_failed_check_makes_the_run_incorrect():
    workload = workloads.Workload(seed=1, scale=1.0)
    workload.expect(True, "fine")
    workload.expect(False, "stock miss rate rose")
    assert workload.checks == 2 and workload.check_failures == ["stock miss rate rose"]


def test_children_that_ran_the_same_inputs_must_agree_on_counts():
    base = {"check_failures": [], "errors": []}
    found = run.problems([{**base, "counts": {"a": 1}}, {**base, "counts": {"a": 2}}])
    assert found == ["counts differ between children that ran the same inputs"]


def test_compare_tells_worse_from_unresolved_from_within_bound():
    def results(throughput, q1, q3):
        value = {"value": 1.0, "q1": 1.0, "q3": 1.0}
        return {
            "environment": {"seed": 11},
            "workloads": {
                "fig8-sweep": {
                    "failed": 0,
                    "counts": {},
                    "end_to_end": {
                        "work_per_s": {"value": throughput, "q1": q1, "q3": q3},
                        "peak_rss_mb": value,
                        "setup_s": value,
                    },
                }
            },
        }

    steady = results(100.0, 99.0, 101.0)
    rows, ok = report.compare(steady, results(99.0, 98.0, 100.0))
    assert ok and "within bound" in rows[1]
    rows, ok = report.compare(steady, results(70.0, 69.0, 71.0))
    assert not ok and "WORSE" in rows[1]
    rows, ok = report.compare(steady, results(99.0, 70.0, 130.0))
    assert ok and "unresolved" in rows[1]


# -- the declaration and the command ---------------------------------------------


def test_benchmark_json_matches_the_code():
    declared = report.declaration()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == layers.PER_LAYER
    assert declared["paths"] == ["perf"] and declared["command"][-1] == "perf/run.py"
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_quick_mode_runs_every_workload_and_check(tmp_path):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - start < 60
    results = json.loads((tmp_path / "results.json").read_text())
    traced = json.loads((tmp_path / "layers.json").read_text())
    for name in run.WORKLOADS:
        assert results["workloads"][name]["correct"]
        assert traced["workloads"][name]["correct"]
        assert traced["workloads"][name]["per_layer"]["trace.attributed_share"] > 0.9
        assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0
    assert results["environment"]["cpus"] >= 1
    assert traced["workloads"]["dist-cluster"]["per_layer"]["buffer.pool.accesses"] > 0
    assert traced["workloads"]["fig8-sweep"]["per_layer"]["buffer.pool.accesses"] == 0


def test_contract_line_for_one_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "policy-matrix", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--scale", "0.05"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = report.declaration()["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())

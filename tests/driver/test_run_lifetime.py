"""A driver run frees its terminals when it returns.

Each executor holds a few hundred kilobytes of input blocks, so a run
that left its executors to the cycle collector would hold every
terminal's inputs until the next full collection.  With the collector
off, everything ``run_benchmark`` built for the run must be gone by
reference counting alone once it returns.
"""

import gc
import weakref

import pytest

from repro.driver import run_benchmark, runner
from repro.tpcc import load_tpcc


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_a_finished_run_holds_no_executor_scheduler_or_gate(small_spec, monkeypatch, no_gc):
    built: list[weakref.ref] = []
    build_executors = runner.build_executors
    scheduler_class = runner.VirtualScheduler

    def recording_build(*args, **kwargs):
        executors = build_executors(*args, **kwargs)
        built.extend(weakref.ref(executor) for executor in executors)
        return executors

    def recording_scheduler(*args, **kwargs):
        scheduler = scheduler_class(*args, **kwargs)
        built.extend((weakref.ref(scheduler), weakref.ref(scheduler.gate)))
        return scheduler

    monkeypatch.setattr(runner, "build_executors", recording_build)
    monkeypatch.setattr(runner, "VirtualScheduler", recording_scheduler)
    db = load_tpcc(small_spec.tpcc)

    report = run_benchmark(small_spec, db=db)

    assert report.committed + report.gave_up == small_spec.transactions
    assert len(built) == small_spec.terminals + 2
    alive = [type(ref()).__name__ for ref in built if ref() is not None]
    assert alive == []

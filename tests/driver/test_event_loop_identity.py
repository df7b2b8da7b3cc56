"""Virtual runs, pinned by digest.

The constants below were computed on the commit *before* the scheduler
became a single-threaded event loop (one OS thread per in-flight
transaction, baton passed through ``threading.Event`` + ``queue.Queue``).
Each spec pins three SHA-256 digests: the serialized ``DriverReport``
(without the ``spec.verify_admission`` and ``spec.workers`` keys, each
deleted together with the threads it configured or audited, and
without ``spec.tpcc.policy``, deleted when the engine's buffer became
LRU-only: the report digests were re-pinned then to the values the
commit before gave with that key popped), the WAL change-record
stream, and the deterministic-only metrics snapshot of the run.  The ``blocking-*`` specs were pinned later, on the commit
before the scheduler priced statements through one reusable scope and
served the stations inline; they run the blocking lock policy
(``lock_timeout_seconds > 0``), so parks, wakes, timeouts and deadlock
victims under each victim policy are inside their digests.  A change that reorders two
statements of different transactions, prices one differently, or moves
a logged byte fails here; a change that is meant to must say so and
re-pin.

Run this file as a script to print the digests of the current tree.
"""

import functools
import hashlib
import json

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.obs.metrics import default_registry
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import BreakerPolicy, RetryPolicy

CONFIG = TpccConfig(
    warehouses=2,
    customers_per_district=60,
    items=300,
    initial_orders_per_district=25,
    pending_orders_per_district=8,
    buffer_pages=400,
    seed=99,
)


def _contended(seed: int) -> BenchmarkSpec:
    """perf's driver-contended at test scale: terminals retry until they commit."""
    return BenchmarkSpec(
        terminals=16,
        transactions=120,
        think_time_seconds=1.0,
        seed=seed,
        tpcc=CONFIG,
        retry=RetryPolicy(max_attempts=200, max_delay=1.0),
    )


def _blocking(victim_policy: str) -> BenchmarkSpec:
    """Blocking lock waits: parks, wakes, timeouts and deadlock victims."""
    return BenchmarkSpec(
        terminals=16,
        transactions=150,
        think_time_seconds=0.5,
        seed=7,
        tpcc=CONFIG,
        lock_timeout_seconds=0.2,
        retry=RetryPolicy(max_attempts=50, max_delay=1.0),
        victim_policy=victim_policy,
    )


SPECS = {
    "contended-11": _contended(11),
    "contended-23": _contended(23),
    # Five attempts and no more: give-ups propagate through the sequence.
    "default-retry": BenchmarkSpec(
        terminals=16, transactions=200, think_time_seconds=0.5, seed=5, tpcc=CONFIG
    ),
    "blocking-youngest": _blocking("youngest"),
    "blocking-oldest": _blocking("oldest"),
    # Crash with a crowd in flight, admission shedding, a breaker, and
    # fault rules scoped by terminal and by transaction type.
    "chaos": BenchmarkSpec(
        terminals=20,
        transactions=150,
        think_time_seconds=0.25,
        retry=RetryPolicy(max_attempts=6),
        seed=13,
        tpcc=CONFIG,
        max_in_flight=8,
        queue_deadline_seconds=0.5,
        crash_at_seconds=2.0,
        faults=FaultPlan(
            rules=(
                FaultRule(FaultKind.DEADLOCK, every=40, max_fires=3),
                FaultRule(
                    FaultKind.LOCK_CONFLICT,
                    probability=0.01,
                    terminals=(1, 4, 7, 12),
                ),
                FaultRule(
                    FaultKind.WAL_APPEND,
                    probability=0.01,
                    max_fires=6,
                    tx_types=("payment", "delivery"),
                ),
            ),
            seed=29,
            name="event-loop-identity",
        ),
        breaker=BreakerPolicy(
            failure_threshold=24, window_seconds=0.5, cooldown_seconds=0.4
        ),
    ),
}

#: name -> (report, WAL change stream, deterministic metrics) SHA-256.
PINNED: dict[str, tuple[str, str, str]] = {
    "contended-11": (
        "e2296783d6dea5e9fa6bfee7cc21cf2dc6ad76e803d482fd87800ce4b765af8f",
        "894815fe3b3277af0bcca67874ed4dccd9c39c04eafd43899573e18a8f503357",
        "8c942bf31ab0ae684f2593369e63991b11d2583cc6ee30175700b0381295bc0c",
    ),
    "contended-23": (
        "3e825a7d110bf569cdf3f75dae1788435d7e2077ec502eb60ae588fcd3754adb",
        "07ab3dd0f19e337e9c205ae99115ba8129da408777a5fc5e65bef40b0b7d616f",
        "a23b1e14dfac7e10b53a1ecbd1d1bc7eef50d7a2cbf3d22a074615474810ff28",
    ),
    "default-retry": (
        "5851ac088f3d3d41db39d659a4f69b7c3fdfe371195b79b9a6278b53f0c165e1",
        "5bed8e3b5be7174bbbb5c6e593a2493ed4ef32be1a7db418058c288fd0086080",
        "a947834e8e140ed0ee7d13c02dea7ba6399fa66df72b4658b9e9b7fc7956889e",
    ),
    "blocking-youngest": (
        "ecf8614113de0b962de5eb3283dfeb4a5f93c8e131a1b2cd05e37431d569e9a3",
        "8fd081b78a1841f3c95fd40b40c8bebbb20c53a569e8302ade3372e9d29cf4dd",
        "c3379f5fd5e90ad54d848a09e2a852077ec59c59d49be3b458aee67a68fa929d",
    ),
    "blocking-oldest": (
        "cf0a8f0c79e4e1bde267e323d1be7e3ccbeb8f3ba6912288366bddcd01dc4f5f",
        "233b2a1a298aa6b0a67907ecdb4e0317497b6af19c7f436ec44101d2c8cc8493",
        "7f7c23a477e05628fcf43c4ec8d0bca9ed98f38affadb3e4abd351454cfe4749",
    ),
    "chaos": (
        "375beaa519e0a1c20c168ff8fc91067582c3a330115a602c1618b5c48b60caec",
        "6c38f5c62c96d0c6a91f6b8df73e3425e4fdd4a2389eaac75cdafeb886e20676",
        "8715c53cab448eb76e326d185e46017eff9b7de99f7fdc60133545b743fdb9fa",
    ),
}

#: name -> (committed, gave_up, aborts, shed at admission); counts say
#: *what* moved when a digest does not match.
COUNTS: dict[str, tuple[int, int, int, int]] = {
    "contended-11": (120, 0, 509, 0),
    "contended-23": (120, 0, 601, 0),
    "default-retry": (91, 109, 617, 0),
    "blocking-youngest": (150, 0, 689, 0),
    "blocking-oldest": (150, 0, 619, 0),
    "chaos": (26, 124, 164, 62),
}

#: name -> (lock waits, lock-wait timeouts, deadlocks detected) of the
#: blocking specs: each branch of a park is taken hundreds of times.
BLOCKING: dict[str, tuple[int, int, int]] = {
    "blocking-youngest": (1459, 202, 487),
    "blocking-oldest": (1287, 204, 415),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def run_digests(name: str):
    """The named spec's report plus its three digests (one run per name)."""
    spec = SPECS[name]
    db = load_tpcc(spec.tpcc)
    registry = default_registry()
    registry.reset()
    with registry.collecting() as session:
        report = run_benchmark(spec, db=db)
    document = report.to_dict()
    wal = hashlib.sha256()
    for record in db.wal.change_records():
        fields = (record.lsn, record.txn_id, record.type.value, record.table)
        wal.update(
            repr((*fields, tuple(record.location), record.before, record.after)).encode()
        )
    metrics = session.snapshot.deterministic_only().to_dict()
    registry.reset()
    return report, (
        _sha(json.dumps(document, sort_keys=True)),
        wal.hexdigest(),
        _sha(json.dumps(metrics, sort_keys=True)),
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_virtual_run_matches_the_thread_per_task_scheduler(name):
    report, digests = run_digests(name)
    counts = (report.committed, report.gave_up, report.aborts, report.shed.admission)
    assert counts == COUNTS[name]
    assert digests == PINNED[name]


def test_the_chaos_spec_exercises_every_short_circuit():
    """Crash, shedding, breaker and scoped faults are all inside the digest."""
    report, _ = run_digests("chaos")
    assert report.recovery is not None and report.recovery.in_flight_aborted > 0
    assert report.shed.admission > 0
    assert report.shed.retry_short_circuits > 0
    assert report.deadlocks.injected == 3
    assert report.faults_fired > report.deadlocks.injected


@pytest.mark.parametrize("name", sorted(BLOCKING))
def test_the_blocking_specs_park_wake_time_out_and_pick_victims(name):
    report, _ = run_digests(name)
    counts = (report.lock_waits, report.lock_timeouts, report.deadlocks.detected)
    assert counts == BLOCKING[name]
    assert report.deadlocks.victims == report.deadlocks.detected
    assert report.deadlocks.policy == SPECS[name].victim_policy


if __name__ == "__main__":
    for spec_name in SPECS:
        result, shas = run_digests(spec_name)
        print(
            spec_name,
            (result.committed, result.gave_up, result.aborts, result.shed.admission),
            result.shed.retry_short_circuits,
            result.faults_fired,
        )
        print("   ", shas)

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
        "a70ef08fab66d714574f6c82e563bf1b57432e3b7f61ef02d23f4edd190b1830",
        "b0fc3e9470c4d7098398ba495024907daab65052565cb713f0345141003e8fc3",
        "3b431dc45df37b14706fba5cb648e3b86fe422a18ba8e0b978b7af36862fbd99",
    ),
    "contended-23": (
        "d93f3df0cc0a5f4238d877ea950444292f0d662d3d7a37f4979a657b85d737ad",
        "58b602c36c3336553256339e0e9ec581f14889c9b60b994d0a24a1e568d6108b",
        "bc73c79eb00e1db277c88635584390d2510275e195c44fb062ba65f286d62b0b",
    ),
    "default-retry": (
        "1de257b00913a66b985857ece28d60ca2b2b8d0948ca020a9bab8e806015e846",
        "dd4b6f4dc6f478444bc00c5f73d17da2c6fe475fa978140a7565be88e1ac8ce9",
        "06fb65aba00326843b9d8639d1c5e80e8998f1f2ebdfc0249b1e952248ee5dc9",
    ),
    "blocking-youngest": (
        "a92df8e1c2a7b580ccd9ad490e1795345cd6a04269fbef5b32285c1180cc1459",
        "112e233fdaa24ebc8e90ef9bc6fd09eb9da3db797296f90a118dd181c1f37d80",
        "e63b2bb8ce05f8d80d9e2ef7c27d6ea54808a06792c269761650ef3ab973c204",
    ),
    "blocking-oldest": (
        "676e7bbc79c37532411dc66e971320f2c660249db083fd9cd2b8ba215dc88862",
        "456f85d0f156b8d120595b66a9dcf8210d1ea99ab75bb8538f3219b21e06cff9",
        "31b842c0711a1d3f1729bc1be674ed5a433869a8be8a9c404b8edcf130a89486",
    ),
    "chaos": (
        "166f2e50f25c8041104460931aeefae08b6736518c12a1b95f1b820e27a5c687",
        "cc82df05a5f490e295083331c1a8cc2724e64990060022f83f05810eba1b52f3",
        "e1ebece2fac1f5aa879e8fc3433234039672ce63d47498fafd92491627544b0b",
    ),
}

#: name -> (committed, gave_up, aborts, shed at admission); counts say
#: *what* moved when a digest does not match.
COUNTS: dict[str, tuple[int, int, int, int]] = {
    "contended-11": (120, 0, 772, 0),
    "contended-23": (120, 0, 513, 0),
    "default-retry": (73, 127, 712, 0),
    "blocking-youngest": (150, 0, 724, 0),
    "blocking-oldest": (150, 0, 759, 0),
    "chaos": (29, 121, 203, 62),
}

#: name -> (lock waits, lock-wait timeouts, deadlocks detected) of the
#: blocking specs: each branch of a park is taken hundreds of times.
BLOCKING: dict[str, tuple[int, int, int]] = {
    "blocking-youngest": (1550, 154, 570),
    "blocking-oldest": (1533, 205, 554),
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

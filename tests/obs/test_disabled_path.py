"""The disabled-metrics path on the engine's three hot seams.

``BufferManager.get_page``, ``LockManager._try_acquire`` and
``WriteAheadLog._append`` are the engine's most frequent calls: per
committed transaction on engine-mix (seed 11), 50.3 page requests,
50.2 lock grants and 19.6 WAL appends.  With the registry disabled they must not even *call* an instrument: the guard is
``if instruments.REGISTRY.enabled:``, ahead of the label kwargs.  With
it enabled the recorded series are those of the commit before the guard
went in (digest below), except that a primary-key update or delete now
requests its page once instead of two or three times, so fewer *hits*
are counted; misses are part of the digest.
"""

import hashlib
import json

import pytest

from repro.obs import instruments
from repro.obs.metrics import Counter, Histogram, default_registry
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import TpccExecutor

HOT_SEAM_SERIES = {
    instruments.ENGINE_BUFFER_REQUESTS.name,
    instruments.LOCK_ACQUISITIONS.name,
    instruments.WAL_APPENDS.name,
    instruments.WAL_BYTES.name,
}

#: sha256 of the deterministic snapshot of ``seeded_run`` with the
#: ``outcome=hit`` samples of engine.buffer.requests_total taken out,
#: computed on the parent commit (where 8159 hits were counted).
PARENT_SNAPSHOT_SHA256 = "1d6dadafddcc430e7e3b34a9d8b8f5959ca7a0982ff1211f72afce22e2405f86"


@pytest.fixture
def seeded_run():
    config = TpccConfig(
        warehouses=2,
        customers_per_district=60,
        items=300,
        initial_orders_per_district=25,
        pending_orders_per_district=8,
        buffer_pages=40,
        seed=99,
    )
    db = load_tpcc(config)
    executor = TpccExecutor(db=db, config=config, seed=7)
    prepared = [executor.prepare() for _ in range(100)]

    def run():
        for item in prepared:
            executor.execute_prepared(item)
        return db

    return run


def test_disabled_hot_seams_never_call_an_instrument(seeded_run, monkeypatch):
    calls = []
    for cls, method in ((Counter, "inc"), (Histogram, "observe")):
        original = getattr(cls, method)

        def counted(self, *args, _original=original, **labels):
            calls.append(self.name)
            return _original(self, *args, **labels)

        monkeypatch.setattr(cls, method, counted)
    assert not default_registry().enabled
    db = seeded_run()
    # The seams did run ...
    assert db.buffers.stats.accesses() > 3000
    assert db.locks.contention()["acquisitions"] > 3000 and len(db.wal) > 1000
    # ... and recorded nothing, while the cold seams still make their
    # (disabled, discarded) calls: one commit counter per transaction.
    assert not HOT_SEAM_SERIES & set(calls)
    assert calls.count(instruments.TX_COMMITS.name) == 100
    assert default_registry().snapshot().empty


def test_enabled_snapshot_is_the_parents_apart_from_repeated_hits(seeded_run):
    with default_registry().collecting() as session:
        db = seeded_run()
    document = session.snapshot.deterministic_only().to_dict()
    requests = next(
        entry for entry in document["series"] if entry["name"] == "engine.buffer.requests_total"
    )
    hits = [s for s in requests["samples"] if s["labels"]["outcome"] == "hit"]
    requests["samples"] = [s for s in requests["samples"] if s not in hits]
    digest = hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
    assert digest == PARENT_SNAPSHOT_SHA256
    # Hits only fell, and the counter still agrees with the pool's own statistics.
    assert sum(s["value"] for s in hits) == sum(db.buffers.stats.hits.values()) <= 8159

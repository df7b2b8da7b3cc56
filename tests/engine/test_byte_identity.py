"""The on-page and WAL formats, pinned by digest.

The constants below were computed on the commit *before* the row-codec
rewrite (compiled ``TableSchema`` codec, ``patch``, one page fetch per
statement).  A change that moves a single logged or flushed byte — or
the order in which records reach the log — fails here; a change that is
meant to move them must say so and re-pin.
"""

import hashlib

from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.executor import TpccExecutor

WAL_SHA256 = "601094af8c3146941c4feadda114b47a22df8b55a4153bd80d91295c83a4115c"
PAGES_SHA256 = "10322de0aab2dd6f62a561bc04545132afd1d34b8cd46e4e0415cc726159b60c"


def test_seeded_run_logs_and_flushes_the_pinned_bytes():
    config = TpccConfig(
        warehouses=2,
        customers_per_district=60,
        items=300,
        initial_orders_per_district=25,
        pending_orders_per_district=8,
        buffer_pages=40,  # far below the data: evictions write pages back mid-run
        seed=99,
    )
    db = load_tpcc(config)
    # One New-Order in twenty rolls back, so compensation records are pinned too.
    executor = TpccExecutor(db=db, config=config, seed=7, rollback_probability=0.05)
    for _ in range(300):
        executor.execute_prepared(executor.prepare())
    db.backup()  # checkpoint, then snapshot every page image

    wal = hashlib.sha256()
    for record in db.wal.records():
        location = None if record.location is None else tuple(record.location)
        fields = (record.lsn, record.txn_id, record.type.value, record.table)
        wal.update(repr((*fields, location, record.before, record.after)).encode())
    pages = hashlib.sha256()
    for page_id, image in sorted(db.store.backup_images().items()):
        pages.update(repr(tuple(page_id)).encode())
        pages.update(image)

    # Counts first: they say *what* moved when a digest does not match.
    assert (len(db.wal), db.wal.bytes_written) == (5977, 1669710)
    assert (db.store.reads, db.store.writes) == (1893, 1241)
    assert db.locks.contention()["acquisitions"] == 14257
    assert wal.hexdigest() == WAL_SHA256
    assert pages.hexdigest() == PAGES_SHA256

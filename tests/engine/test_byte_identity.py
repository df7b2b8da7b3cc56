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

WAL_SHA256 = "c4bb02f1525ec0bc7e7310edcf605d4e664f84deb565b302968c5e8166822345"
PAGES_SHA256 = "2c8cb65f9a01799cd8ece6596bac4d6335db09da78ff629c339e94a242d09485"


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
    assert (len(db.wal), db.wal.bytes_written) == (5870, 1662092)
    assert (db.store.reads, db.store.writes) == (1788, 1206)
    assert db.locks.contention()["acquisitions"] == 13481
    assert wal.hexdigest() == WAL_SHA256
    assert pages.hexdigest() == PAGES_SHA256

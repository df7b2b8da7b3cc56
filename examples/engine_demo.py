#!/usr/bin/env python3
"""Executable TPC-C: run the benchmark on the bundled storage engine.

The paper only *models* a DBMS; this library also ships one.  The demo
loads a scaled-down TPC-C database into the page-based engine (heap
files + B+-tree/hash indexes + LRU buffer manager + lock manager +
write-ahead log), runs a transaction mix, and reports:

* the measured SQL-call census per transaction type (paper Table 2),
* the engine's per-table buffer miss rates (Figure 8's quantity),
* WAL traffic and lock counts (the cost model's inputs),
* a crash + recovery round trip.

Usage::

    python examples/engine_demo.py
    python examples/engine_demo.py --transactions 1000 --buffer-pages 300
"""

import argparse

from repro.experiments.report import render_table
from repro.tpcc import TpccConfig, TpccExecutor, load_tpcc
from repro.tpcc.executor import buffer_miss_rates


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--warehouses", type=int, default=2)
    parser.add_argument("--customers", type=int, default=90)
    parser.add_argument("--items", type=int, default=500)
    parser.add_argument("--buffer-pages", type=int, default=250)
    parser.add_argument("--transactions", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = TpccConfig(
        warehouses=args.warehouses,
        customers_per_district=args.customers,
        items=args.items,
        buffer_pages=args.buffer_pages,
        seed=args.seed,
    )
    print("loading database ...")
    db = load_tpcc(config)
    sizes = {name: db.table(name).row_count for name in db.table_names()}
    print(render_table([{"table": k, "rows": v} for k, v in sizes.items()]))

    executor = TpccExecutor(db=db, config=config, seed=args.seed)
    print(f"\nrunning {args.transactions} transactions ...")
    summary = executor.run_mix(transactions=args.transactions)

    census_rows = []
    for label, executed in sorted(summary.executed.items()):
        census = db.census(label)
        census_rows.append(
            {
                "transaction": label,
                "executed": executed,
                "selects/tx": round(census.selects / executed, 2),
                "updates/tx": round(census.updates / executed, 2),
                "inserts/tx": round(census.inserts / executed, 2),
                "deletes/tx": round(census.deletes / executed, 2),
            }
        )
    print(render_table(census_rows, title="\nmeasured SQL-call census (paper Table 2)"))

    rates = buffer_miss_rates(db)
    print(
        render_table(
            [
                {"table": name, "miss rate": round(rate, 4)}
                for name, rate in sorted(rates.items())
            ],
            title="\nengine buffer miss rates (Figure 8's quantity)",
        )
    )
    print(f"\nWAL records: {len(db.wal)}  bytes: {db.wal.bytes_written:,}")
    print(f"locks acquired: {db.locks.acquisitions:,} released: {db.locks.releases:,}")
    print(f"physical page reads: {db.store.reads:,} writes: {db.store.writes:,}")

    print("\nsimulating a crash (buffer contents lost) ...")
    orders_before = db.table("order").row_count
    db.crash()
    db.recover()
    assert db.table("order").row_count == orders_before
    print(f"recovered: {orders_before} orders intact after WAL redo/undo")


if __name__ == "__main__":
    main()

"""Access censuses: paper Tables 2 and 3.

Table 2 counts SQL calls per transaction type; Table 3 counts tuple
accesses per relation per transaction type, with the workload-weighted
average.  Both are derived programmatically from the transaction
definitions so the benchmark harness can regenerate them and compare
against the paper's published values.

Notation (Table 3): ``U(x)`` uniform selection of x tuples, ``NU(x)``
non-uniform, ``A(x)`` append, ``P(x)`` selection determined by past
behaviour (temporal locality).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.constants import (
    DELIVERIES_PER_TRANSACTION,
    EXPECTED_CUSTOMER_TUPLES,
    ITEMS_PER_ORDER,
    SELECT_BY_NAME_PROBABILITY,
    STOCK_LEVEL_ORDERS,
)
from repro.workload.mix import DEFAULT_MIX, TransactionMix, TransactionType
from repro.workload.transactions import TransactionCounts


class AccessKind(enum.Enum):
    """How tuples are chosen (paper Table 3 notation)."""

    UNIFORM = "U"
    NURAND = "NU"
    APPEND = "A"
    PAST = "P"


@dataclass(frozen=True)
class AccessEntry:
    """``kind(count)`` — one cell of Table 3."""

    kind: AccessKind
    count: float

    def __str__(self) -> str:
        # Display only: a float sum such as 2.1999999999999997 prints as 2.2.
        count = int(self.count) if self.count == int(self.count) else round(self.count, 3)
        return f"{self.kind.value}({count})"


def _items(n: int = ITEMS_PER_ORDER) -> float:
    return float(n)


def transaction_call_counts() -> dict[TransactionType, TransactionCounts]:
    """SQL-call counts per transaction (paper Table 2).

    A by-name customer lookup is counted as three selects plus one
    non-unique-select operation (the extra sort), following the paper's
    treatment in the Payment description.  Note the paper's Table 2
    prints 11.4 selects for Order-Status; counting the name lookup's
    three selects consistently (as Table 4 does) gives 13.2, which is
    the value we report.
    """
    name_selects = (
        1 - SELECT_BY_NAME_PROBABILITY
    ) * 1 + SELECT_BY_NAME_PROBABILITY * 3
    return {
        TransactionType.NEW_ORDER: TransactionCounts(
            selects=3 + 2 * _items(),  # warehouse, district, customer, item+stock per line
            updates=1 + _items(),  # district plus stock per line
            inserts=2 + _items(),  # order, new-order, one order-line per line
            deletes=0,
        ),
        TransactionType.PAYMENT: TransactionCounts(
            selects=2 + name_selects,  # warehouse, district, customer lookup
            updates=3,  # warehouse, district, customer
            inserts=1,  # history
            deletes=0,
            non_unique_selects=SELECT_BY_NAME_PROBABILITY,
        ),
        TransactionType.ORDER_STATUS: TransactionCounts(
            selects=name_selects + 1 + _items(),  # customer lookup, order, lines
            updates=0,
            inserts=0,
            deletes=0,
            non_unique_selects=SELECT_BY_NAME_PROBABILITY,
        ),
        TransactionType.DELIVERY: TransactionCounts(
            # Per district: new-order min-select, order, 10 lines, customer.
            selects=DELIVERIES_PER_TRANSACTION * (3 + _items()),
            updates=DELIVERIES_PER_TRANSACTION * (2 + _items()),
            inserts=0,
            deletes=DELIVERIES_PER_TRANSACTION,
        ),
        TransactionType.STOCK_LEVEL: TransactionCounts(
            selects=1,  # district next-order-id
            updates=0,
            inserts=0,
            deletes=0,
            joins=1,
        ),
    }


def relation_access_entries() -> dict[str, dict[TransactionType, AccessEntry]]:
    """Tuple accesses per relation per transaction (paper Table 3 cells)."""
    stock_level_tuples = STOCK_LEVEL_ORDERS * ITEMS_PER_ORDER
    return {
        "warehouse": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.UNIFORM, 1),
            TransactionType.PAYMENT: AccessEntry(AccessKind.UNIFORM, 1),
        },
        "district": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.UNIFORM, 1),
            TransactionType.PAYMENT: AccessEntry(AccessKind.UNIFORM, 1),
            TransactionType.STOCK_LEVEL: AccessEntry(AccessKind.UNIFORM, 1),
        },
        "customer": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.NURAND, 1),
            TransactionType.PAYMENT: AccessEntry(
                AccessKind.NURAND, EXPECTED_CUSTOMER_TUPLES
            ),
            TransactionType.ORDER_STATUS: AccessEntry(
                AccessKind.NURAND, EXPECTED_CUSTOMER_TUPLES
            ),
            TransactionType.DELIVERY: AccessEntry(
                AccessKind.PAST, DELIVERIES_PER_TRANSACTION
            ),
        },
        "stock": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.NURAND, ITEMS_PER_ORDER),
            TransactionType.STOCK_LEVEL: AccessEntry(
                AccessKind.PAST, stock_level_tuples
            ),
        },
        "item": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.NURAND, ITEMS_PER_ORDER),
        },
        "order": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.APPEND, 1),
            TransactionType.ORDER_STATUS: AccessEntry(AccessKind.PAST, 1),
            TransactionType.DELIVERY: AccessEntry(
                AccessKind.PAST, DELIVERIES_PER_TRANSACTION
            ),
        },
        "new_order": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.APPEND, 1),
            TransactionType.DELIVERY: AccessEntry(
                AccessKind.PAST, DELIVERIES_PER_TRANSACTION
            ),
        },
        "order_line": {
            TransactionType.NEW_ORDER: AccessEntry(AccessKind.APPEND, ITEMS_PER_ORDER),
            TransactionType.ORDER_STATUS: AccessEntry(AccessKind.PAST, ITEMS_PER_ORDER),
            TransactionType.DELIVERY: AccessEntry(
                AccessKind.PAST, DELIVERIES_PER_TRANSACTION * ITEMS_PER_ORDER
            ),
            TransactionType.STOCK_LEVEL: AccessEntry(
                AccessKind.PAST, stock_level_tuples
            ),
        },
        "history": {
            TransactionType.PAYMENT: AccessEntry(AccessKind.APPEND, 1),
        },
    }


def average_accesses(
    relation: str,
    mix: TransactionMix = DEFAULT_MIX,
    include_appends: bool = True,
) -> float:
    """Workload-weighted tuple accesses per transaction for a relation.

    The paper's Table 3 average column excludes appends for the growing
    relations Order, New-Order and Order-Line (but not History); pass
    ``include_appends=False`` to match that convention.
    """
    entries = relation_access_entries()
    if relation not in entries:
        raise KeyError(f"unknown relation {relation!r}")
    total = 0.0
    for tx_type, entry in entries[relation].items():
        if not include_appends and entry.kind is AccessKind.APPEND:
            continue
        total += mix.share(tx_type) * entry.count
    return total


def relation_access_table(
    mix: TransactionMix = DEFAULT_MIX,
) -> list[dict[str, object]]:
    """Regenerate paper Table 3 as a list of row dicts."""
    entries = relation_access_entries()
    rows = []
    for relation, cells in entries.items():
        row: dict[str, object] = {"relation": relation}
        for tx_type in TransactionType:
            entry = cells.get(tx_type)
            row[tx_type.value] = str(entry) if entry is not None else ""
        row["average"] = round(average_accesses(relation, mix), 3)
        row["average (no appends)"] = round(
            average_accesses(relation, mix, include_appends=False), 3
        )
        rows.append(row)
    return rows


def transaction_mix_table(
    mix: TransactionMix = DEFAULT_MIX,
) -> list[dict[str, object]]:
    """Regenerate paper Table 2 as a list of row dicts.

    Counts are rounded to three decimals here, for display only:
    :func:`transaction_call_counts` keeps the unrounded sums, which feed
    the Table 4 visit counts.
    """
    counts = transaction_call_counts()
    rows = []
    for tx_type in TransactionType:
        census = counts[tx_type]
        rows.append(
            {
                "transaction": tx_type.value,
                "assumed %": round(mix.share(tx_type) * 100, 1),
                "selects": round(census.selects, 3),
                "updates": round(census.updates, 3),
                "inserts": round(census.inserts, 3),
                "deletes": round(census.deletes, 3),
                "non-unique selects": round(census.non_unique_selects, 3),
                "joins": round(census.joins, 3),
            }
        )
    return rows

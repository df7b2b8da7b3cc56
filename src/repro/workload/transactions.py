"""Input-parameter records for the five TPC-C transactions.

These are the values a terminal would submit (paper Section 2.2).  The
stateful parts of a transaction — which order is a customer's latest,
which pending order Delivery picks — live in the order bookkeeping
(:class:`repro.workload.state.ColumnarOrderState` for the trace, the
tables themselves for the executable engine), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OrderLineRequest:
    """One item of a New-Order transaction."""

    item_id: int
    supply_warehouse: int
    quantity: int = 1

    def __post_init__(self) -> None:
        if self.item_id < 1:
            raise ValueError(f"item_id must be >= 1, got {self.item_id}")
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")


@dataclass(frozen=True)
class NewOrderParams:
    """Inputs of a New-Order transaction."""

    warehouse: int
    district: int
    customer: int
    lines: tuple[OrderLineRequest, ...]

    @property
    def item_ids(self) -> tuple[int, ...]:
        return tuple(line.item_id for line in self.lines)

    @property
    def remote_line_count(self) -> int:
        """Order lines supplied by a warehouse other than the home one."""
        return sum(1 for line in self.lines if line.supply_warehouse != self.warehouse)


@dataclass(frozen=True)
class PaymentParams:
    """Inputs of a Payment transaction.

    ``customer_tuples`` lists the customer ids whose tuples are touched:
    a single id when selecting by customer-id, three ids (same last
    name, the middle one updated) when selecting by name.
    ``customer_warehouse``/``customer_district`` differ from the home
    warehouse/district for the 15% of payments made through a remote
    warehouse.
    """

    warehouse: int
    district: int
    customer_warehouse: int
    customer_district: int
    by_name: bool
    customer_tuples: tuple[int, ...]
    amount: float = 1.0

    @property
    def is_remote(self) -> bool:
        return self.customer_warehouse != self.warehouse

    @property
    def selected_customer(self) -> int:
        """The customer actually paid: middle of the sorted name matches."""
        ordered = sorted(self.customer_tuples)
        return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class OrderStatusParams:
    """Inputs of an Order-Status transaction (customer as in Payment)."""

    warehouse: int
    district: int
    by_name: bool
    customer_tuples: tuple[int, ...]

    @property
    def selected_customer(self) -> int:
        ordered = sorted(self.customer_tuples)
        return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class DeliveryParams:
    """Inputs of a Delivery transaction: just the warehouse."""

    warehouse: int
    carrier_id: int = 1


@dataclass(frozen=True)
class StockLevelParams:
    """Inputs of a Stock-Level transaction."""

    warehouse: int
    district: int
    threshold: int = 15


@dataclass(frozen=True)
class TransactionCounts:
    """SQL-call census of one transaction type (paper Table 2)."""

    selects: float
    updates: float
    inserts: float
    deletes: float
    non_unique_selects: float = 0.0
    joins: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_calls(self) -> float:
        """All database calls, counting a join or non-unique select as one."""
        return (
            self.selects
            + self.updates
            + self.inserts
            + self.deletes
            + self.non_unique_selects
            + self.joins
        )

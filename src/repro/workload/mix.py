"""Transaction types and workload mix (paper Table 2).

The benchmark fixes minimum shares for four transaction types and lets
the sponsor choose the New-Order share; the paper assumes the mix
43 / 44 / 4 / 5 / 4 (New-Order / Payment / Order-Status / Delivery /
Stock-Level), with Delivery raised to 5% so the New-Order relation
stays bounded.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.constants import ASSUMED_MIX_PERCENT, MINIMUM_MIX_PERCENT


class TransactionType(enum.Enum):
    """The five TPC-C transaction types."""

    NEW_ORDER = "new_order"
    PAYMENT = "payment"
    ORDER_STATUS = "order_status"
    DELIVERY = "delivery"
    STOCK_LEVEL = "stock_level"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Stable ordering used for tables and vectors.
TRANSACTION_ORDER: tuple[TransactionType, ...] = (
    TransactionType.NEW_ORDER,
    TransactionType.PAYMENT,
    TransactionType.ORDER_STATUS,
    TransactionType.DELIVERY,
    TransactionType.STOCK_LEVEL,
)


@dataclass(frozen=True)
class TransactionMix:
    """Shares of the workload per transaction type, as fractions.

    Construct via :meth:`from_percent` for readability.  ``validate``
    checks the benchmark's minimums and the paper's boundedness
    requirement for the New-Order relation (Delivery deletes ten
    pending orders per execution, so the rates balance only when
    ``delivery >= new_order / 10``).
    """

    new_order: float
    payment: float
    order_status: float
    delivery: float
    stock_level: float

    def __post_init__(self) -> None:
        shares = self.as_dict()
        for name, share in shares.items():
            if share < 0:
                raise ValueError(f"{name} share must be non-negative, got {share}")
        total = sum(shares.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix shares must sum to 1, got {total}")
        # The cdf ``Generator.choice`` builds for ``p=self.as_array()``:
        # the running sum in order, divided by its last element.
        cdf = list(accumulate(shares.values()))
        object.__setattr__(self, "_cdf", tuple(value / cdf[-1] for value in cdf))

    @classmethod
    def from_percent(cls, **percents: float) -> "TransactionMix":
        """Build a mix from percentages (must sum to 100)."""
        return cls(**{name: value / 100.0 for name, value in percents.items()})

    def as_dict(self) -> dict[str, float]:
        """Shares keyed by transaction name, in Table 2 order."""
        return {tx.value: getattr(self, tx.value) for tx in TRANSACTION_ORDER}

    def share(self, tx: TransactionType) -> float:
        """Share of one transaction type."""
        return getattr(self, tx.value)

    def as_array(self) -> np.ndarray:
        """Shares as a vector in :data:`TRANSACTION_ORDER` order."""
        return np.array([self.share(tx) for tx in TRANSACTION_ORDER])

    def meets_minimums(self) -> bool:
        """Whether the benchmark's minimum percentages are respected."""
        return all(
            getattr(self, name) * 100 + 1e-9 >= minimum
            for name, minimum in MINIMUM_MIX_PERCENT.items()
        )

    def new_order_relation_bounded(self) -> bool:
        """Whether Delivery keeps the New-Order relation from growing.

        Each Delivery removes 10 pending orders while each New-Order
        inserts one, so boundedness requires ``10 * delivery >= new_order``.
        """
        return 10 * self.delivery + 1e-9 >= self.new_order

    def validate(self) -> None:
        """Raise ``ValueError`` if the mix violates benchmark constraints."""
        if not self.meets_minimums():
            raise ValueError(
                f"mix violates benchmark minimums {MINIMUM_MIX_PERCENT}: "
                f"{self.as_dict()}"
            )
        if not self.new_order_relation_bounded():
            raise ValueError(
                "New-Order relation would grow without bound: require "
                f"10 * delivery >= new_order, got delivery={self.delivery}, "
                f"new_order={self.new_order}"
            )

    def sample(self, rng: np.random.Generator) -> TransactionType:
        """Draw a transaction type according to the mix.

        The same draw as ``rng.choice(len(TRANSACTION_ORDER),
        p=self.as_array())`` (one uniform against the same cdf), without
        the ~12 µs of argument checks that call makes each time.
        """
        return TRANSACTION_ORDER[bisect_right(self._cdf, rng.random())]

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` type indexes (positions in TRANSACTION_ORDER)."""
        return rng.choice(len(TRANSACTION_ORDER), size=size, p=self.as_array())


#: The mix assumed throughout the paper (Table 2, "Assumed %" column).
DEFAULT_MIX = TransactionMix.from_percent(**ASSUMED_MIX_PERCENT)

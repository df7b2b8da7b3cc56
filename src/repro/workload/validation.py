"""Statistical validation of the trace generator.

The trace generator's output must match the exact distributions the
skew analysis predicts — otherwise Figure 8 would be simulating the
wrong workload.  :func:`validate_trace` measures the empirical page-
access distributions of a trace and compares them against the analytic
page PMFs (total-variation distance plus a chi-square statistic), for
the relations where the analytic PMF exists (Item always; Stock and
Customer per block).

This is both a user-facing sanity tool and the backbone of the
trace-consistency tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapping import page_access_distribution
from repro.core.nurand import customer_mixture_distribution, item_id_distribution
from repro.core.packing import HottestFirstPacking, SequentialPacking
from repro.stats.distribution import DiscreteDistribution
from repro.workload.mix import TransactionType
from repro.workload.schema import RELATIONS
from repro.workload.trace import RELATION_INDEX, TraceConfig, TraceGenerator


@dataclass(frozen=True)
class DistributionCheck:
    """Comparison of an empirical page distribution to its analytic PMF."""

    relation: str
    samples: int
    tv_distance: float
    chi2_p_value: float

    def consistent(self, tv_threshold: float = 0.1) -> bool:
        """Whether the empirical distribution tracks the analytic one.

        TV distance shrinks with sample count; the default threshold is
        loose enough for modest traces but catches systematically wrong
        mappings immediately.
        """
        return self.tv_distance <= tv_threshold

    def as_row(self) -> dict[str, object]:
        return {
            "relation": self.relation,
            "samples": self.samples,
            "TV distance": round(self.tv_distance, 4),
            "chi2 p-value": round(self.chi2_p_value, 4),
        }


def _analytic_page_pmf(config: TraceConfig, relation: str) -> DiscreteDistribution:
    """The analytic single-block page PMF for a skewed relation."""
    tuples_per_page = RELATIONS[relation].tuples_per_page(config.page_size)
    if relation == "customer":
        tuple_pmf = customer_mixture_distribution(config.customers_per_district)
    else:
        tuple_pmf = item_id_distribution(config.items)
    if config.packing == "optimized":
        packing = HottestFirstPacking(tuple_pmf.size, tuples_per_page, tuple_pmf)
    else:
        packing = SequentialPacking(tuple_pmf.size, tuples_per_page)
    return page_access_distribution(tuple_pmf, packing)


def _check(
    relation: str,
    observed_counts: np.ndarray,
    analytic: DiscreteDistribution,
) -> DistributionCheck:
    samples = int(observed_counts.sum())
    empirical = observed_counts / max(1, samples)
    tv = float(0.5 * np.abs(empirical - analytic.pmf).sum())
    # Chi-square over bins with enough expected mass to be meaningful.
    expected = analytic.pmf * samples
    keep = expected >= 5
    if keep.sum() >= 2 and samples > 0:
        observed_kept = observed_counts[keep]
        expected_kept = expected[keep]
        # Rescale so both sides sum equally (Pearson's test assumes it).
        expected_kept = expected_kept * observed_kept.sum() / expected_kept.sum()
        # First use only, so `import repro` loads no scipy module; statistic and
        # p-value are bit-identical to the chisquare of scipy's stats package.
        from scipy.special import chdtrc

        statistic = ((observed_kept - expected_kept) ** 2 / expected_kept).sum()
        p_value = float(chdtrc(observed_kept.size - 1, statistic))
    else:
        p_value = float("nan")
    return DistributionCheck(
        relation=relation,
        samples=samples,
        tv_distance=tv,
        chi2_p_value=p_value,
    )


def validate_trace(
    config: TraceConfig, transactions: int = 3_000
) -> dict[str, DistributionCheck]:
    """Run a trace and compare its NU-driven page accesses to theory.

    Checks the Item relation (single shared block) and the per-block
    distributions of Stock and Customer (counts folded over identical
    blocks, since every block has the same analytic PMF).  Only
    New-Order's NURand-driven accesses are counted for stock and
    customer — the temporally local accesses of the other transactions
    are deliberately *not* IRM and would fail any static test.
    """
    if transactions <= 0:
        raise ValueError(f"transactions must be positive, got {transactions}")
    trace = TraceGenerator(config)
    item_index = RELATION_INDEX["item"]
    stock_index = RELATION_INDEX["stock"]
    customer_index = RELATION_INDEX["customer"]

    analytic = {
        relation: _analytic_page_pmf(config, relation)
        for relation in ("item", "stock", "customer")
    }
    counts = {
        relation: np.zeros(analytic[relation].size, dtype=np.int64)
        for relation in ("item", "stock", "customer")
    }
    stock_pages_per_block = analytic["stock"].size
    customer_pages_per_block = analytic["customer"].size

    # Which transactions access each relation through NURand (Table 3):
    # item and stock only via New-Order; customer via New-Order, Payment
    # and Order-Status (Delivery's customer accesses are P-type).
    customer_nu_transactions = {
        TransactionType.NEW_ORDER,
        TransactionType.PAYMENT,
        TransactionType.ORDER_STATUS,
    }
    stream = trace.stream(format="objects")
    for _ in range(transactions):
        tx_type, refs = next(stream)
        for relation, page, _ in refs:
            if relation == item_index:
                counts["item"][page] += 1
            elif relation == stock_index and tx_type is TransactionType.NEW_ORDER:
                counts["stock"][page % stock_pages_per_block] += 1
            elif relation == customer_index and tx_type in customer_nu_transactions:
                counts["customer"][page % customer_pages_per_block] += 1

    return {
        relation: _check(relation, counts[relation], analytic[relation])
        for relation in ("item", "stock", "customer")
    }

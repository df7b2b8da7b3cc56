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
from repro.stats.distribution import DiscreteDistribution
from repro.workload.mix import TRANSACTION_ORDER, TransactionType
from repro.workload.trace import RELATION_INDEX, TraceConfig, TraceGenerator


#: Transactions per encoded block that :func:`validate_trace` counts at once.
_BLOCK_TRANSACTIONS = 4096


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


def _analytic_page_pmf(trace: TraceGenerator, relation: str) -> DiscreteDistribution:
    """The analytic single-block page PMF of a skewed relation, under the
    packing of the trace's own layout for it."""
    config = trace.config
    if relation == "customer":
        tuple_pmf = customer_mixture_distribution(config.customers_per_district)
    else:
        tuple_pmf = item_id_distribution(config.items)
    layout = getattr(trace._tables, f"{relation}_layout")
    return page_access_distribution(tuple_pmf, layout.packing)


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
    # Which transactions access each relation through NURand (Table 3):
    # item and stock only via New-Order; customer via New-Order, Payment
    # and Order-Status (Delivery's customer accesses are P-type).
    nu_transactions = {
        "item": [TransactionType.NEW_ORDER],
        "stock": [TransactionType.NEW_ORDER],
        "customer": [
            TransactionType.NEW_ORDER,
            TransactionType.PAYMENT,
            TransactionType.ORDER_STATUS,
        ],
    }
    trace = TraceGenerator(config)
    analytic = {name: _analytic_page_pmf(trace, name) for name in nu_transactions}
    counts = {name: np.zeros(pmf.size, dtype=np.int64) for name, pmf in analytic.items()}
    left = transactions
    while left:
        # Bounded blocks keep memory flat in the transaction count; the
        # trace does not depend on where its blocks are cut.
        batch = trace.encoded_batch(transactions=min(left, _BLOCK_TRANSACTIONS))
        left -= batch.tx_lengths.size
        relation, page, _ = trace.page_id_space.decode_ref_arrays(batch.refs)
        tx_index = np.repeat(batch.tx_indices, batch.tx_lengths)
        for name, kinds in nu_transactions.items():
            counted = (relation == RELATION_INDEX[name]) & np.isin(
                tx_index, [TRANSACTION_ORDER.index(kind) for kind in kinds]
            )
            size = analytic[name].size
            counts[name] += np.bincount(page[counted] % size, minlength=size)
    return {name: _check(name, counts[name], analytic[name]) for name in nu_transactions}

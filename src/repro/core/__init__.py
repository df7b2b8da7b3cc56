"""Core contribution of the paper: the TPC-C access-skew analysis.

This package implements the NURand non-uniform random number function
(exactly and by Monte Carlo), the tuple- and page-level skew analysis of
Section 3, and the tuple-to-page packing strategies (sequential vs.
"optimized" hottest-first clustering) whose effect the paper quantifies.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.core.mapping import page_access_distribution as page_access_distribution
    from repro.core.nurand import NURand as NURand
    from repro.core.nurand import closed_form_pmf as closed_form_pmf
    from repro.core.nurand import customer_id_distribution as customer_id_distribution
    from repro.core.nurand import customer_mixture_distribution as customer_mixture_distribution
    from repro.core.nurand import exact_pmf as exact_pmf
    from repro.core.nurand import item_id_distribution as item_id_distribution
    from repro.core.nurand import monte_carlo_pmf as monte_carlo_pmf
    from repro.core.nurand import nurand as nurand
    from repro.core.nurand import period_count as period_count
    from repro.core.packing import HottestFirstPacking as HottestFirstPacking
    from repro.core.packing import PackingStrategy as PackingStrategy
    from repro.core.packing import RandomPacking as RandomPacking
    from repro.core.packing import SequentialPacking as SequentialPacking
    from repro.core.skew import SkewSummary as SkewSummary
    from repro.core.skew import access_share_of_hottest as access_share_of_hottest
    from repro.core.skew import lorenz_curve as lorenz_curve

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "page_access_distribution": "repro.core.mapping",
        "NURand": "repro.core.nurand",
        "closed_form_pmf": "repro.core.nurand",
        "customer_id_distribution": "repro.core.nurand",
        "customer_mixture_distribution": "repro.core.nurand",
        "exact_pmf": "repro.core.nurand",
        "item_id_distribution": "repro.core.nurand",
        "monte_carlo_pmf": "repro.core.nurand",
        "nurand": "repro.core.nurand",
        "period_count": "repro.core.nurand",
        "HottestFirstPacking": "repro.core.packing",
        "PackingStrategy": "repro.core.packing",
        "RandomPacking": "repro.core.packing",
        "SequentialPacking": "repro.core.packing",
        "SkewSummary": "repro.core.skew",
        "access_share_of_hottest": "repro.core.skew",
        "lorenz_curve": "repro.core.skew",
    },
)

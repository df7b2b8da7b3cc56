"""Analytic LRU miss-rate model (Che approximation).

The paper estimates miss rates purely by simulation.  As a
cross-check — and as the fast inner model for the price/performance
sweeps, which evaluate dozens of buffer sizes — we also provide the
classic Che approximation for LRU under the independent reference
model (IRM): for a cache of ``C`` pages and page access probabilities
``p_i``, there is a single *characteristic time* ``T`` satisfying

    sum_i (1 - exp(-p_i * T)) = C

and the steady-state hit probability of page ``i`` is
``1 - exp(-p_i * T)``.

The NURand-driven accesses to the Customer, Stock and Item relations
are IRM by construction, so the approximation is excellent for them;
the temporally local (P-type) accesses of the other relations are not
IRM and must come from the simulator.
"""

from __future__ import annotations

import numpy as np


def che_characteristic_time(
    page_pmf: np.ndarray, capacity_pages: float, tolerance: float = 1e-9
) -> float:
    """Solve for the characteristic time T of the Che approximation.

    ``page_pmf`` holds the per-reference probability of each page (it
    need not sum to 1 if the pool is shared by several relations);
    ``capacity_pages`` is the cache size.  The left side is increasing
    in T, so bisection converges quickly.
    """
    pmf = np.asarray(page_pmf, dtype=np.float64)
    if np.any(pmf < 0):
        raise ValueError("page probabilities must be non-negative")
    if capacity_pages <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_pages}")
    distinct = int(np.count_nonzero(pmf))
    if capacity_pages >= distinct:
        return float("inf")  # everything fits

    def occupied(t: float) -> float:
        return float((1.0 - np.exp(-pmf * t)).sum())

    low, high = 0.0, 1.0
    while occupied(high) < capacity_pages:
        high *= 2.0
        if high > 1e18:
            raise RuntimeError("characteristic time failed to bracket")
    while high - low > tolerance * max(high, 1.0):
        mid = (low + high) / 2.0
        if occupied(mid) < capacity_pages:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def che_hit_probabilities(page_pmf: np.ndarray, characteristic_time: float) -> np.ndarray:
    """Per-page hit probabilities given a characteristic time."""
    pmf = np.asarray(page_pmf, dtype=np.float64)
    if np.isinf(characteristic_time):
        return np.where(pmf > 0, 1.0, 0.0)
    return 1.0 - np.exp(-pmf * characteristic_time)

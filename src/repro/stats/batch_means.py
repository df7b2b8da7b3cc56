"""Batch-means output analysis for steady-state simulations.

The paper collects confidence intervals "using batch means with 30
batches per simulation and a batchsize of 100,000 samples" and requires
relative half-widths of 5% or less at a 90% confidence level (Section
4).  :class:`BatchMeans` implements exactly that estimator, with the
Student-t quantile from :func:`student_t_quantile` (standard library
only, correctly rounded).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

from repro.results import ReportMixin


# The t quantile works at 50 digits.  Newton stops once a step moves t by
# less than 1e-30 relative; even at the worst conditioned inputs (p =
# 1 - 2**-53) that leaves t within ~1e-34 of exact, far closer than
# rounding to a float needs.
_DIGITS = 50
_TAYLOR_EPS = Decimal(10) ** -(_DIGITS + 5)
_NEWTON_TOL = Decimal("1e-30")


def _atan(x: Decimal) -> Decimal:
    """arctan(x): halve the angle until |x| <= 1e-3, then Taylor."""
    halvings = 0
    while abs(x) > Decimal("1e-3"):
        x /= 1 + (1 + x * x).sqrt()
        halvings += 1
    total = power = x
    square, k = x * x, 1
    while abs(power) > _TAYLOR_EPS:
        power *= -square
        k += 2
        total += power / k
    return total * 2**halvings


def _two_sided(t: Decimal, df: int, pi: Decimal) -> Decimal:
    """P(|T| <= t) for Student's T with ``df`` degrees of freedom, signed
    like ``t``: Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)
    with cos^2(theta) = df / (df + t^2)."""
    nu = Decimal(df)
    r = nu + t * t
    cos2 = nu / r
    term = total = Decimal(1)
    if df % 2 == 0:
        for k in range(1, df // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return t / r.sqrt() * total
    for k in range(1, (df - 1) // 2):
        term *= cos2 * (2 * k) / (2 * k + 1)
        total += term
    series = t * nu.sqrt() / r * total if df > 1 else Decimal(0)
    return 2 * (_atan(t / nu.sqrt()) + series) / pi


def student_t_quantile(df: int, p: float) -> float:
    """The ``p`` quantile of Student's t with ``df`` degrees of freedom,
    correctly rounded to a float.

    ``df`` must be an integer >= 1 and ``0.5 <= p < 1``; anything else
    raises :class:`ValueError`.
    """
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not 0.5 <= p < 1:
        raise ValueError(f"p must be in [0.5, 1), got {p!r}")
    return _t_quantile(df, float(p))


@functools.lru_cache
def _t_quantile(df: int, p: float) -> float:
    """Newton's method from t = 1 on the distribution function, summed as
    a finite series at 50 digits; the derivative (the density) is a float,
    which is enough for each step to gain ~9 or more digits."""
    if p == 0.5:
        return 0.0
    log_scale = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - math.log(df * math.pi) / 2
    )
    with localcontext() as context:
        context.prec = _DIGITS
        pi = 4 * _atan(Decimal(1))
        target = 2 * Decimal(p) - 1
        t = Decimal(1)
        while True:
            x = float(t)
            density = math.exp(log_scale - (df + 1) / 2 * math.log1p(x * x / df))
            step = (_two_sided(t, df, pi) - target) / Decimal(2 * density)
            t -= step
            if abs(step) <= abs(t) * _NEWTON_TOL:
                return float(t)


@dataclass(frozen=True)
class BatchMeansSummary(ReportMixin):
    """Point estimate and confidence interval from a batch-means run."""

    mean: float
    half_width: float
    confidence: float
    batches: int

    @property
    def relative_half_width(self) -> float:
        """Half-width divided by the mean (``inf`` for a zero mean)."""
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)

    @property
    def interval(self) -> tuple[float, float]:
        """The confidence interval as ``(low, high)``."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def meets_precision(self, relative: float = 0.05) -> bool:
        """Whether the paper's precision criterion is satisfied."""
        return self.relative_half_width <= relative


class BatchMeans:
    """Accumulates per-batch means and produces a confidence interval.

    The estimator treats batch means as approximately independent and
    normally distributed, using the Student-t quantile for the interval.
    """

    def __init__(self, confidence: float = 0.90):
        if not 0 < confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self._confidence = confidence
        self._batch_means: list[float] = []

    @property
    def confidence(self) -> float:
        return self._confidence

    @property
    def batches(self) -> int:
        """Number of batches recorded so far."""
        return len(self._batch_means)

    @property
    def batch_values(self) -> tuple[float, ...]:
        """The recorded batch means (read-only copy)."""
        return tuple(self._batch_means)

    def add_batch(self, mean: float) -> None:
        """Record the mean of one completed batch."""
        self._batch_means.append(float(mean))

    def mean(self) -> float:
        """Grand mean over all recorded batches."""
        if not self._batch_means:
            raise ValueError("no batches recorded")
        return sum(self._batch_means) / len(self._batch_means)

    def variance(self) -> float:
        """Sample variance of the batch means (ddof=1)."""
        n = len(self._batch_means)
        if n < 2:
            raise ValueError("variance requires at least two batches")
        grand = self.mean()
        return sum((value - grand) ** 2 for value in self._batch_means) / (n - 1)

    def half_width(self) -> float:
        """Student-t confidence-interval half width."""
        n = len(self._batch_means)
        if n < 2:
            raise ValueError("half_width requires at least two batches")
        t_quantile = student_t_quantile(n - 1, 0.5 + self._confidence / 2)
        return t_quantile * math.sqrt(self.variance() / n)

    def summary(self) -> BatchMeansSummary:
        """Point estimate plus interval for the recorded batches."""
        return BatchMeansSummary(
            mean=self.mean(),
            half_width=self.half_width(),
            confidence=self._confidence,
            batches=self.batches,
        )

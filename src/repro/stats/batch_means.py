"""Batch-means output analysis for steady-state simulations.

The paper collects confidence intervals "using batch means with 30
batches per simulation and a batchsize of 100,000 samples" and requires
relative half-widths of 5% or less at a 90% confidence level (Section
4).  :class:`BatchMeans` implements exactly that estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.results import ReportMixin


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
        # First use only, so `import repro` loads no scipy module; stdtrit(df, q)
        # is bit-identical to the t.ppf(q, df) of scipy's stats package.
        from scipy.special import stdtrit

        t_quantile = stdtrit(n - 1, 0.5 + self._confidence / 2)
        return float(t_quantile * math.sqrt(self.variance() / n))

    def summary(self) -> BatchMeansSummary:
        """Point estimate plus interval for the recorded batches."""
        return BatchMeansSummary(
            mean=self.mean(),
            half_width=self.half_width(),
            confidence=self._confidence,
            batches=self.batches,
        )

"""Statistical utilities: discrete distributions and batch-means output
analysis.

These are the numerical substrates shared by the skew analysis
(:mod:`repro.core`), the buffer simulation (:mod:`repro.buffer`) and the
experiment harness.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.stats.batch_means import BatchMeans as BatchMeans
    from repro.stats.batch_means import BatchMeansSummary as BatchMeansSummary
    from repro.stats.distribution import DiscreteDistribution as DiscreteDistribution

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "BatchMeans": "repro.stats.batch_means",
        "BatchMeansSummary": "repro.stats.batch_means",
        "DiscreteDistribution": "repro.stats.distribution",
    },
)

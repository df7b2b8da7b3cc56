"""Unit tests for repro.stats.batch_means."""

import math

import numpy as np
import pytest

from repro.stats.batch_means import BatchMeans, BatchMeansSummary


class TestBatchMeans:
    def test_mean_of_batches(self):
        bm = BatchMeans()
        for value in (1.0, 2.0, 3.0):
            bm.add_batch(value)
        assert bm.mean() == pytest.approx(2.0)
        assert bm.batches == 3
        assert bm.batch_values == (1.0, 2.0, 3.0)

    def test_mean_requires_batches(self):
        with pytest.raises(ValueError, match="no batches"):
            BatchMeans().mean()

    def test_variance_matches_numpy(self):
        values = [0.1, 0.4, 0.2, 0.35, 0.15]
        bm = BatchMeans()
        for value in values:
            bm.add_batch(value)
        assert bm.variance() == pytest.approx(float(np.var(values, ddof=1)))

    def test_variance_requires_two_batches(self):
        bm = BatchMeans()
        bm.add_batch(1.0)
        with pytest.raises(ValueError, match="two batches"):
            bm.variance()

    def test_half_width_shrinks_with_more_batches(self):
        rng = np.random.default_rng(0)
        small, large = BatchMeans(), BatchMeans()
        draws = rng.normal(0.5, 0.05, size=100)
        for value in draws[:5]:
            small.add_batch(value)
        for value in draws:
            large.add_batch(value)
        assert large.half_width() < small.half_width()

    def test_identical_batches_zero_half_width(self):
        bm = BatchMeans()
        for _ in range(10):
            bm.add_batch(0.25)
        assert bm.half_width() == pytest.approx(0.0)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            BatchMeans(confidence=1.5)

    def test_higher_confidence_wider_interval(self):
        values = [0.1, 0.2, 0.3, 0.25, 0.15]
        narrow, wide = BatchMeans(0.80), BatchMeans(0.99)
        for value in values:
            narrow.add_batch(value)
            wide.add_batch(value)
        assert wide.half_width() > narrow.half_width()

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_half_width_equals_scipy_stats_t(self, confidence):
        """The t quantile is bit-identical to ``scipy.stats.t.ppf``."""
        from scipy import stats

        draws = np.random.default_rng(11).normal(0.5, 0.05, size=200)
        bm = BatchMeans(confidence)
        for n, value in enumerate(draws, start=1):
            bm.add_batch(value)
            if n < 2:
                continue
            quantile = stats.t.ppf(0.5 + confidence / 2, df=n - 1)
            assert bm.half_width() == float(quantile * math.sqrt(bm.variance() / n))

    def test_coverage_of_true_mean(self):
        """The 90% interval should contain the true mean ~90% of the time."""
        rng = np.random.default_rng(7)
        hits = 0
        trials = 300
        for _ in range(trials):
            bm = BatchMeans(confidence=0.90)
            for value in rng.normal(1.0, 0.3, size=30):
                bm.add_batch(value)
            low, high = bm.summary().interval
            hits += low <= 1.0 <= high
        assert 0.84 <= hits / trials <= 0.96


class TestSummary:
    def _summary(self, mean=0.5, half=0.02):
        return BatchMeansSummary(mean=mean, half_width=half, confidence=0.9, batches=30)

    def test_interval(self):
        summary = self._summary()
        assert summary.interval == (pytest.approx(0.48), pytest.approx(0.52))

    def test_relative_half_width(self):
        assert self._summary().relative_half_width == pytest.approx(0.04)

    def test_relative_half_width_zero_mean(self):
        assert math.isinf(self._summary(mean=0.0).relative_half_width)

    def test_meets_paper_precision(self):
        assert self._summary(half=0.02).meets_precision(0.05)
        assert not self._summary(half=0.05).meets_precision(0.05)

"""Unit tests for repro.stats.batch_means."""

import math
import statistics

import numpy as np
import pytest

from repro.stats.batch_means import BatchMeans, BatchMeansSummary, student_t_quantile

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99)

# The exact quantile at p = 0.5 + c/2 (the float), rounded to nearest:
# mpmath 1.3.0 at 60 digits, solving 1 - I_{df/(df+t^2)}(df/2, 1/2)/2 = p
# with findroot, then float(mpmath.nstr(t, 60)).  One column per confidence.
ROUNDED_QUANTILES = {
    1: ("0x1.0000000000000p+0", "0x1.89f188bdcd7b0p+1", "0x1.9414813ba6625p+2", "0x1.96993aacc4d1ep+3", "0x1.fd410182c3c30p+5"),
    2: ("0x1.a20bd700c2c3ep-1", "0x1.e2b7dddfefa67p+0", "0x1.75c216663495fp+1", "0x1.135ea98e146b9p+2", "0x1.3d9850c4bbe78p+3"),
    3: ("0x1.879ff79eea791p-1", "0x1.a34336c655793p+0", "0x1.2d3b035609bc4p+1", "0x1.975a66893c1a9p+1", "0x1.75d175480d3a8p+2"),
    4: ("0x1.7b3ca5f103585p-1", "0x1.888034d51aecfp+0", "0x1.10e05b01ad864p+1", "0x1.63628d9efb5dep+1", "0x1.26a97d89084a7p+2"),
    5: ("0x1.74104c491cd03p-1", "0x1.79d3897a63a39p+0", "0x1.01ed1ae7a9630p+1", "0x1.4908d359dff38p+1", "0x1.020ea171ca98ap+2"),
    6: ("0x1.6f63c9b5d0916p-1", "0x1.7093d528bb5adp+0", "0x1.f174434b0b9adp+0", "0x1.393468546e653p+1", "0x1.da8d005bee94dp+1"),
    7: ("0x1.6c1ac66f5c72ap-1", "0x1.6a38745b9638dp+0", "0x1.e5031a7c9018dp+0", "0x1.2eac01e9f5b1cp+1", "0x1.bfef11958261ep+1"),
    9: ("0x1.67cb327cf1979p-1", "0x1.620e2be0d7781p+0", "0x1.d546e39fa2188p+0", "0x1.218e5dac50b23p+1", "0x1.9ffa9c6c4220ep+1"),
    14: ("0x1.62847d79fd9bcp-1", "0x1.5853e91e68cbcp+0", "0x1.c2e538974437fp+0", "0x1.12885ec4c0666p+1", "0x1.7d092ec6ba9e1p+1"),
    29: ("0x1.5db7ecc7ecc04p-1", "0x1.4fba1d9208becp+0", "0x1.b2f9fd22b60a5p+0", "0x1.05ca15bce2871p+1", "0x1.60d140d7b5d81p+1"),
    59: ("0x1.5b7abc76d18b8p-1", "0x1.4bcaf69edda14p+0", "0x1.abccc0c175af4p+0", "0x1.00209dd62b0abp+1", "0x1.54b482c330dc0p+1"),
    119: ("0x1.5a65adcb47ceap-1", "0x1.49e8a62172f75p+0", "0x1.a862e9997845bp+0", "0x1.fae7d3543239ep+0", "0x1.4f13487fa42fap+1"),
    239: ("0x1.59dd72f6b6b70p-1", "0x1.48fc8f9bceec1p+0", "0x1.a6b897cd42734p+0", "0x1.f84df2eb83d77p+0", "0x1.4c5bf40df8ee7p+1"),
    1023: ("0x1.597629ffd85cfp-1", "0x1.484a089701baep+0", "0x1.a576d5356dc0bp+0", "0x1.f65859b1cbcdep+0", "0x1.4a5288f156e0dp+1"),
}


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

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_half_width_is_rounded_quantile_times_se(self, confidence):
        """The half-width is the correctly rounded t quantile times the
        standard error, bit for bit."""
        column = CONFIDENCES.index(confidence)
        draws = np.random.default_rng(11).normal(0.5, 0.05, size=1024)
        for df, row in ROUNDED_QUANTILES.items():
            bm = BatchMeans(confidence)
            for value in draws[: df + 1]:
                bm.add_batch(value)
            quantile = float.fromhex(row[column])
            assert student_t_quantile(df, 0.5 + confidence / 2) == quantile
            assert bm.half_width() == quantile * math.sqrt(bm.variance() / (df + 1))

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


class TestStudentTQuantile:
    def test_within_64_ulp_of_scipy(self):
        """scipy's stdtrit is off the exact quantile by up to 62 ulp
        (df 6, c 0.99); the two never differ by more than that."""
        stdtrit = pytest.importorskip("scipy.special").stdtrit
        for df in range(1, 300):
            for confidence in CONFIDENCES:
                p = 0.5 + confidence / 2
                quantile = student_t_quantile(df, p)
                assert abs(quantile - float(stdtrit(df, p))) <= 64 * math.ulp(quantile)

    def test_median_and_exact_values(self):
        assert student_t_quantile(7, 0.5) == 0.0
        # df 1 is Cauchy: t = tan(pi (p - 1/2)), and scipy reads 1.0000000000000002.
        assert student_t_quantile(1, 0.75) == 1.0

    @pytest.mark.parametrize(
        "df, p",
        [(2.0, 0.9), (2.5, 0.9), ("3", 0.9), (None, 0.9), (0, 0.9), (-1, 0.9),
         (3, 0.4999), (3, 1.0), (3, 1.5), (3, -0.9), (3, math.nan)],
    )
    def test_invalid_arguments(self, df, p):
        with pytest.raises(ValueError):
            student_t_quantile(df, p)

    def test_large_df_is_normal(self):
        """At df 10**6 the quantile sits (z**3 + z) / (4 df) above the
        normal's: under 1e-6 for p = 0.9."""
        z = statistics.NormalDist().inv_cdf(0.9)
        assert student_t_quantile(10**6, 0.9) == pytest.approx(z, abs=1e-6)


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

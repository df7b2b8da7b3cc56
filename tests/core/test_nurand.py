"""Unit tests for repro.core.nurand."""

import numpy as np
import pytest

from repro.constants import ITEMS, NURAND_A_ITEM
from repro.core.nurand import (
    CUSTOMER_BY_ID_WEIGHT,
    NURand,
    closed_form_pmf,
    customer_id_distribution,
    customer_mixture_distribution,
    customer_name_band_distributions,
    exact_pmf,
    item_id_distribution,
    monte_carlo_pmf,
    nurand,
    period_count,
)
from repro.core.nurand import _exact_counts_enumerated, _exact_counts_power_of_two


class TestScalarSampler:
    def test_within_bounds(self, rng):
        for _ in range(500):
            value = nurand(rng, 255, 10, 50)
            assert 10 <= value <= 50

    def test_degenerate_range(self, rng):
        assert nurand(rng, 7, 5, 5) == 5

    def test_invalid_a(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            nurand(rng, -1, 1, 10)

    def test_invalid_range(self, rng):
        with pytest.raises(ValueError, match="x <= y"):
            nurand(rng, 7, 10, 5)

    def test_invalid_c(self, rng):
        with pytest.raises(ValueError, match="C must be"):
            nurand(rng, 7, 1, 10, c=8)


class TestNURandClass:
    def test_span(self):
        assert NURand(255, 1, 1000).span == 1000

    def test_sample_array_bounds(self, rng):
        sampler = NURand(1023, 1, 3000)
        values = sampler.sample_array(rng, 10_000)
        assert values.min() >= 1 and values.max() <= 3000

    def test_sample_array_skewed(self, rng):
        """Hot ids should be sampled much more often than cold ones."""
        sampler = NURand(NURAND_A_ITEM, 1, ITEMS)
        values = sampler.sample_array(rng, 200_000)
        assert values.shape == (200_000,)
        counts = np.bincount(values, minlength=ITEMS + 1)[1:]
        hot = np.sort(counts)[::-1][: ITEMS // 50].sum()  # hottest 2%
        assert hot / 200_000 > 0.25  # paper: ~39% to hottest 2%

    def test_hashable_value_object(self):
        assert NURand(7, 1, 10) == NURand(7, 1, 10)
        assert hash(NURand(7, 1, 10)) == hash(NURand(7, 1, 10))

    def test_exact_distribution_matches_module_function(self):
        sampler = NURand(15, 1, 40)
        assert np.allclose(
            sampler.exact_distribution().pmf, exact_pmf(15, 1, 40).pmf
        )


class TestPeriodCount:
    def test_paper_value(self):
        assert period_count(8191, 1, 100_000) == 12

    def test_customer_value(self):
        assert period_count(1023, 1, 3000) == 2

    def test_small(self):
        assert period_count(7, 0, 15) == 2


class TestExactPmf:
    def test_sums_to_one(self):
        assert float(exact_pmf(255, 1, 1000).pmf.sum()) == pytest.approx(1.0)

    def test_matches_enumeration_power_of_two_a(self):
        fast = exact_pmf(63, 5, 300).pmf
        slow = _exact_counts_enumerated(63, 5, 300, 0)
        assert np.allclose(fast, slow / slow.sum())

    def test_paper_scale_counts_every_draw_pair(self):
        """NU(8191, 1, 100000): each of the 8192 x 100000 (A, x) draws counted once."""
        counts = _exact_counts_power_of_two(8191, 1, 100_000, 0)
        assert counts.sum() == 8192 * 100_000

    def test_matches_enumeration_generic_a(self):
        fast = exact_pmf(100, 1, 257).pmf
        slow = _exact_counts_enumerated(100, 1, 257, 0)
        assert np.allclose(fast, slow / slow.sum())

    def test_c_shifts_distribution(self):
        base = exact_pmf(15, 0, 63).pmf
        shifted = exact_pmf(15, 0, 63, c=5).pmf
        assert np.allclose(np.roll(base, 5), shifted)

    def test_matches_monte_carlo(self, rng):
        exact = exact_pmf(255, 1, 1000)
        sampled = monte_carlo_pmf(255, 1, 1000, samples=400_000, rng=rng)
        assert exact.total_variation_distance(sampled) < 0.03

    def test_a_zero_is_uniform(self):
        pmf = exact_pmf(0, 1, 100).pmf
        assert np.allclose(pmf, 0.01)

    def test_cached(self):
        assert exact_pmf(255, 1, 1000) is exact_pmf(255, 1, 1000)


class TestMonteCarloPmf:
    def test_requires_positive_samples(self):
        with pytest.raises(ValueError, match="samples"):
            monte_carlo_pmf(255, 1, 100, samples=0)

    def test_chunking_equivalent(self):
        a = monte_carlo_pmf(
            63, 1, 200, samples=10_000, rng=np.random.default_rng(1), chunk_size=999
        )
        assert float(a.pmf.sum()) == pytest.approx(1.0)

    def test_default_rng_is_deterministic(self):
        """Regression (reprolint REP001): the no-rng path must replay."""
        a = monte_carlo_pmf(63, 1, 200, samples=10_000)
        b = monte_carlo_pmf(63, 1, 200, samples=10_000)
        assert np.array_equal(a.pmf, b.pmf)


class TestClosedForm:
    def test_matches_exact(self):
        closed = closed_form_pmf(5, 9)
        exact = exact_pmf(31, 0, 511)
        assert closed.total_variation_distance(exact) < 1e-12

    def test_exactly_periodic(self):
        pmf = closed_form_pmf(4, 8).pmf
        period = 1 << 4
        for k in range(1, (1 << 8) // period):
            assert np.allclose(pmf[:period], pmf[k * period : (k + 1) * period])

    def test_probability_formula(self):
        """P(v) = (3/4)^i (1/4)^(a-i) (1/2)^(b-a) with i set low bits."""
        dist = closed_form_pmf(3, 5)
        value = 0b00101  # low 3 bits: 101 -> i = 2
        expected = (0.75**2) * (0.25**1) * (0.5**2)
        assert dist.probability(value) == pytest.approx(expected)

    def test_invalid_bits(self):
        with pytest.raises(ValueError, match="a_bits"):
            closed_form_pmf(5, 3)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            closed_form_pmf(10, 30)


class TestStandardDistributions:
    def test_item_distribution_shape(self):
        dist = item_id_distribution()
        assert dist.lower == 1 and dist.upper == ITEMS

    def test_customer_distribution_shape(self):
        dist = customer_id_distribution()
        assert dist.lower == 1 and dist.upper == 3000

    def test_name_bands_cover_district(self):
        bands = customer_name_band_distributions()
        assert len(bands) == 3
        assert bands[0].lower == 1 and bands[0].upper == 1000
        assert bands[2].lower == 2001 and bands[2].upper == 3000

    def test_mixture_weights(self):
        assert CUSTOMER_BY_ID_WEIGHT == pytest.approx(0.4186)

    def test_mixture_covers_all_customers(self):
        dist = customer_mixture_distribution()
        assert dist.lower == 1 and dist.upper == 3000
        assert float(dist.pmf.sum()) == pytest.approx(1.0)
        assert np.all(dist.pmf > 0)

    def test_customer_less_skewed_than_stock(self):
        from repro.core.skew import gini_coefficient

        assert gini_coefficient(customer_mixture_distribution()) < gini_coefficient(
            item_id_distribution()
        )

"""Unit tests for repro.buffer.analytic (Che approximation)."""

import numpy as np
import pytest

from repro.buffer.analytic import (
    che_characteristic_time,
    che_hit_probabilities,
    che_miss_rates,
)
from repro.core.nurand import exact_pmf
from repro.stats.distribution import DiscreteDistribution

from .policy_oracle import LruPolicy
from .policy_replay import replay


class TestCharacteristicTime:
    def test_everything_fits(self):
        pmf = np.full(10, 0.1)
        assert che_characteristic_time(pmf, 10) == np.inf
        assert che_characteristic_time(pmf, 100) == np.inf

    def test_occupancy_equation_satisfied(self):
        pmf = np.random.default_rng(0).random(100)
        pmf /= pmf.sum()
        capacity = 40
        t = che_characteristic_time(pmf, capacity)
        occupied = (1 - np.exp(-pmf * t)).sum()
        assert occupied == pytest.approx(capacity, rel=1e-6)

    def test_monotone_in_capacity(self):
        pmf = np.random.default_rng(1).random(100)
        pmf /= pmf.sum()
        t_small = che_characteristic_time(pmf, 10)
        t_large = che_characteristic_time(pmf, 90)
        assert t_large > t_small

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="non-negative"):
            che_characteristic_time(np.array([-0.1, 1.1]), 1)
        with pytest.raises(ValueError, match="capacity"):
            che_characteristic_time(np.array([0.5, 0.5]), 0)


class TestHitProbabilities:
    def test_infinite_time_all_hits(self):
        pmf = np.array([0.5, 0.0, 0.5])
        hits = che_hit_probabilities(pmf, np.inf)
        assert hits.tolist() == [1.0, 0.0, 1.0]

    def test_hotter_pages_hit_more(self):
        pmf = np.array([0.7, 0.2, 0.1])
        hits = che_hit_probabilities(pmf, 5.0)
        assert hits[0] > hits[1] > hits[2]


class TestCheMissRates:
    def test_validates_matching_keys(self):
        pmfs = {"a": DiscreteDistribution.uniform(0, 9)}
        with pytest.raises(ValueError, match="same relations"):
            che_miss_rates(pmfs, {"b": 1.0}, 5)

    def test_zero_share_rejected(self):
        pmfs = {"a": DiscreteDistribution.uniform(0, 9)}
        with pytest.raises(ValueError, match="positive"):
            che_miss_rates(pmfs, {"a": 0.0}, 5)

    def test_hot_relation_lower_miss(self):
        hot = DiscreteDistribution.uniform(0, 9)       # 10 pages, heavy traffic
        cold = DiscreteDistribution.uniform(0, 199)    # 200 pages, light traffic
        rates = che_miss_rates(
            {"hot": hot, "cold": cold}, {"hot": 10.0, "cold": 1.0}, capacity_pages=50
        )
        assert rates["hot"] < rates["cold"]

    def test_matches_lru_simulation_under_irm(self, rng):
        """Che should track a real LRU simulation for IRM traffic."""
        pmf = exact_pmf(63, 1, 500)
        capacity = 120
        analytic = che_miss_rates({"r": pmf}, {"r": 1.0}, capacity)["r"]

        policy = LruPolicy(capacity)
        ids = pmf.sample(rng, size=120_000)
        keys = [(0, page) for page in (ids - 1).tolist()]  # one tuple per page
        replay(policy, keys[:20_000])
        hits, misses, _ = replay(policy, keys[20_000:])
        simulated = misses[0] / (hits[0] + misses[0])
        assert analytic == pytest.approx(simulated, abs=0.03)

    def test_large_capacity_near_zero_miss(self):
        pmf = exact_pmf(63, 1, 500)
        rates = che_miss_rates({"r": pmf}, {"r": 1.0}, capacity_pages=499)
        assert rates["r"] < 0.02

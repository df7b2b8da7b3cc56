"""Unit tests for repro.workload.mix (paper Table 2)."""

import numpy as np
import pytest

from repro.workload.mix import (
    DEFAULT_MIX,
    TRANSACTION_ORDER,
    TransactionMix,
    TransactionType,
)


class TestDefaultMix:
    def test_paper_percentages(self):
        assert DEFAULT_MIX.new_order == pytest.approx(0.43)
        assert DEFAULT_MIX.payment == pytest.approx(0.44)
        assert DEFAULT_MIX.order_status == pytest.approx(0.04)
        assert DEFAULT_MIX.delivery == pytest.approx(0.05)
        assert DEFAULT_MIX.stock_level == pytest.approx(0.04)

    def test_meets_benchmark_minimums(self):
        assert DEFAULT_MIX.meets_minimums()

    def test_keeps_new_order_relation_bounded(self):
        assert DEFAULT_MIX.new_order_relation_bounded()

    def test_validate_passes(self):
        DEFAULT_MIX.validate()


class TestConstruction:
    def test_from_percent(self):
        mix = TransactionMix.from_percent(
            new_order=45, payment=43, order_status=4, delivery=4, stock_level=4
        )
        assert mix.new_order == pytest.approx(0.45)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransactionMix(0.5, 0.5, 0.5, 0.0, 0.0)

    def test_no_negative_shares(self):
        with pytest.raises(ValueError, match="non-negative"):
            TransactionMix(1.1, -0.1, 0.0, 0.0, 0.0)


class TestValidation:
    def test_below_minimum_rejected(self):
        mix = TransactionMix.from_percent(
            new_order=50, payment=38, order_status=4, delivery=4, stock_level=4
        )
        assert not mix.meets_minimums()
        with pytest.raises(ValueError, match="minimums"):
            mix.validate()

    def test_unbounded_new_order_detected(self):
        """The paper's example: 45% New-Order with 4% Delivery grows forever."""
        mix = TransactionMix.from_percent(
            new_order=45, payment=43, order_status=4, delivery=4, stock_level=4
        )
        assert not mix.new_order_relation_bounded()
        with pytest.raises(ValueError, match="without bound"):
            mix.validate()


class TestAccessors:
    def test_as_dict_order(self):
        keys = list(DEFAULT_MIX.as_dict())
        assert keys == [tx.value for tx in TRANSACTION_ORDER]

    def test_share_lookup(self):
        assert DEFAULT_MIX.share(TransactionType.DELIVERY) == pytest.approx(0.05)

    def test_as_array_sums_to_one(self):
        assert float(DEFAULT_MIX.as_array().sum()) == pytest.approx(1.0)


class TestSampling:
    def test_sample_returns_types(self, rng):
        for _ in range(20):
            assert isinstance(DEFAULT_MIX.sample(rng), TransactionType)

    def test_sample_frequencies(self, rng):
        draws = DEFAULT_MIX.sample_array(rng, 50_000)
        freq = np.bincount(draws, minlength=5) / 50_000
        assert freq == pytest.approx(DEFAULT_MIX.as_array(), abs=0.01)

    def test_sample_draws_what_generator_choice_draws(self):
        # ``sample`` replaces ``rng.choice(5, p=...)``: the same types from
        # the same generator state, and the state left where choice leaves
        # it.  A numpy that changes how choice draws fails here.
        p = DEFAULT_MIX.as_array()
        for seed in range(10):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [DEFAULT_MIX.sample(ours) for _ in range(10_000)]
            chosen = [
                TRANSACTION_ORDER[int(theirs.choice(len(TRANSACTION_ORDER), p=p))]
                for _ in range(10_000)
            ]
            assert drawn == chosen
            assert ours.random() == theirs.random()

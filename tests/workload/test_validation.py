"""Tests for repro.workload.validation (trace-vs-theory consistency)."""

import numpy as np
import pytest

from repro.workload import validation
from repro.workload.mix import TRANSACTION_ORDER, TransactionType
from repro.workload.trace import TraceConfig, TraceGenerator
from repro.workload.validation import validate_trace


def scaled_config(**overrides):
    defaults = dict(
        warehouses=2,
        items=600,
        customers_per_district=90,
        prime_orders=25,
        prime_pending=8,
        seed=23,
    )
    defaults.update(overrides)
    return TraceConfig(**defaults)


@pytest.fixture(scope="module")
def check_inputs():
    """The ``(counts, analytic)`` that ``validate_trace`` gave ``_check``
    per relation, and the checks it returned."""
    inputs = {}
    check = validation._check

    def recording(relation, counts, analytic):
        inputs[relation] = (counts, analytic)
        return check(relation, counts, analytic)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validation, "_check", recording)
        checks = validate_trace(scaled_config(), transactions=6_000)
    return inputs, checks


@pytest.fixture(scope="module")
def checks(check_inputs):
    return check_inputs[1]


class TestConsistency:
    @pytest.mark.parametrize("relation", ["item", "stock", "customer"])
    def test_trace_matches_analytic_pmf(self, checks, relation):
        """Empirical NU-driven page accesses track the exact PMFs."""
        check = checks[relation]
        assert check.samples > 1_000
        assert check.consistent(tv_threshold=0.12), check

    def test_chi_square_not_catastrophic(self, checks):
        """A p-value of exactly 0 would mean a structurally wrong mapping."""
        assert checks["item"].chi2_p_value > 1e-6

    def test_optimized_packing_also_consistent(self):
        checks = validate_trace(
            scaled_config(packing="optimized", seed=29), transactions=6_000
        )
        for relation in ("item", "stock"):
            assert checks[relation].consistent(tv_threshold=0.12)

    def test_random_packing_also_consistent(self):
        """The analytic PMFs follow the trace's own random packings."""
        checks = validate_trace(scaled_config(packing="random"), transactions=5_000)
        for relation in ("item", "stock", "customer"):
            assert checks[relation].consistent(tv_threshold=0.12), checks[relation]
            assert checks[relation].chi2_p_value > 1e-6, checks[relation]

    def test_detects_wrong_distribution(self):
        """Sanity: comparing against the wrong PMF must fail."""
        from repro.workload import validation

        analytic = validation._analytic_page_pmf(TraceGenerator(scaled_config()), "item")
        uniform_counts = np.full(analytic.size, 100, dtype=np.int64)
        check = validation._check("item", uniform_counts, analytic)
        assert not check.consistent(tv_threshold=0.05)


class TestCounting:
    def test_counts_equal_a_loop_over_decoded_references(self, check_inputs):
        """The column-wise fold counts what a per-reference loop counts:
        every item page, New-Order's stock pages, and the customer pages
        of New-Order, Payment and Order-Status, folded over blocks."""
        inputs, _ = check_inputs
        expected = {
            relation: np.zeros(counts.size, dtype=np.int64)
            for relation, (counts, _) in inputs.items()
        }
        customer_types = {
            TransactionType.NEW_ORDER,
            TransactionType.PAYMENT,
            TransactionType.ORDER_STATUS,
        }
        trace = TraceGenerator(scaled_config())
        batch = trace.encoded_batch(transactions=6_000)
        refs = batch.refs.tolist()
        start = 0
        for tx_index, length in zip(batch.tx_indices.tolist(), batch.tx_lengths.tolist()):
            tx_type = TRANSACTION_ORDER[tx_index]
            for ref in refs[start : start + length]:
                reference = trace.page_id_space.decode_ref(ref)
                name = reference.relation_name
                if name == "item":
                    expected["item"][reference.page] += 1
                elif (name == "stock" and tx_type is TransactionType.NEW_ORDER) or (
                    name == "customer" and tx_type in customer_types
                ):
                    expected[name][reference.page % expected[name].size] += 1
            start += length
        for relation, (counts, _) in inputs.items():
            assert np.array_equal(counts, expected[relation]), relation


class TestChiSquare:
    @staticmethod
    def _scipy_p_value(counts, analytic):
        """``_check``'s bins and rescaling, then ``scipy.stats.chisquare``."""
        from scipy import stats

        expected = analytic.pmf * counts.sum()
        keep = expected >= 5
        observed, expected = counts[keep], expected[keep]
        expected = expected * observed.sum() / expected.sum()
        return float(stats.chisquare(observed, expected)[1])

    @pytest.mark.parametrize("relation", ["item", "stock", "customer"])
    def test_p_value_equals_scipy_stats(self, check_inputs, relation):
        """The p-value is bit-identical to ``scipy.stats.chisquare``'s."""
        inputs, checks = check_inputs
        expected = self._scipy_p_value(*inputs[relation])
        assert checks[relation].chi2_p_value == expected

    def test_uniform_counts_p_value_equals_scipy_stats(self):
        import numpy as np

        analytic = validation._analytic_page_pmf(TraceGenerator(scaled_config()), "item")
        counts = np.full(analytic.size, 100, dtype=np.int64)
        check = validation._check("item", counts, analytic)
        assert check.chi2_p_value == self._scipy_p_value(counts, analytic)


class TestInterface:
    def test_invalid_transactions(self):
        with pytest.raises(ValueError):
            validate_trace(scaled_config(), transactions=0)

    def test_as_row(self, checks):
        row = checks["stock"].as_row()
        assert set(row) == {"relation", "samples", "TV distance", "chi2 p-value"}

"""Unit and behaviour tests for repro.buffer.simulator (Figure 8 machinery)."""

import pytest

from repro.buffer.simulator import (
    BufferSimulation,
    SimulationConfig,
    pages_for_megabytes,
)
from repro.experiments.figures import sweep_buffer_sizes
from repro.workload.mix import TransactionType
from repro.workload.trace import TraceConfig


def quick_config(**overrides):
    defaults = dict(
        trace=TraceConfig(warehouses=2, seed=21),
        buffer_mb=8,
        batches=3,
        batch_size=8_000,
        warmup_references=10_000,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def quick_report():
    return BufferSimulation(quick_config()).run()


class TestConfig:
    def test_pages_for_megabytes(self):
        assert pages_for_megabytes(1.0, 4096) == 256
        assert pages_for_megabytes(52.0, 4096) == 13_312

    def test_pages_for_megabytes_invalid(self):
        with pytest.raises(ValueError):
            pages_for_megabytes(0)

    @pytest.mark.parametrize("megabytes", [0.0, -1.0, float("nan"), float("inf")])
    def test_pages_for_megabytes_names_the_bad_value(self, megabytes):
        message = f"megabytes must be positive and finite, got {megabytes!r}"
        with pytest.raises(ValueError, match=message):
            pages_for_megabytes(megabytes)

    @pytest.mark.parametrize("megabytes", [0.0, -1.0, float("nan")])
    def test_bad_buffer_size_rejected_at_construction(self, megabytes):
        message = f"buffer_mb must be positive and finite, got {megabytes!r}"
        with pytest.raises(ValueError, match=message):
            quick_config(buffer_mb=megabytes)

    def test_buffer_pages_property(self):
        assert quick_config(buffer_mb=2.0).buffer_pages == 512

    def test_default_warmup_scales_with_buffer(self):
        config = quick_config(warmup_references=None, buffer_mb=100.0)
        assert config.effective_warmup == 4 * config.buffer_pages

    def test_minimum_batches(self):
        with pytest.raises(ValueError, match="batches"):
            quick_config(batches=1)

    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.9, float("nan")])
    def test_bad_confidence_rejected_at_construction(self, confidence):
        """Not inside the run, where ``--jobs`` would put it in a worker."""
        with pytest.raises(ValueError, match="confidence must be in"):
            quick_config(confidence=confidence)
        with pytest.raises(ValueError, match="confidence must be in"):
            quick_config().replace(confidence=confidence)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_references must be non-negative"):
            quick_config(warmup_references=-1)

    def test_zero_warmup_means_none(self):
        assert quick_config(warmup_references=0).effective_warmup == 0


class TestReport:
    def test_relations_observed(self, quick_report):
        for relation in ("warehouse", "district", "customer", "stock", "item"):
            assert relation in quick_report.relations

    def test_rates_in_unit_interval(self, quick_report):
        for entry in quick_report.relations.values():
            assert 0.0 <= entry.miss_rate <= 1.0
            assert entry.hit_rate == pytest.approx(1 - entry.miss_rate)

    def test_tiny_relations_always_hit(self, quick_report):
        """Warehouse and District fit in any buffer (paper Sec. 4)."""
        assert quick_report.miss_rate("warehouse") == 0.0
        assert quick_report.miss_rate("district") == 0.0

    def test_unknown_relation_zero(self, quick_report):
        assert quick_report.miss_rate("nonexistent") == 0.0

    def test_total_references_at_least_budget(self, quick_report):
        config = quick_report.config
        assert quick_report.total_references >= config.batches * config.batch_size

    def test_confidence_summaries_present(self, quick_report):
        entry = quick_report.relations["stock"]
        assert entry.summary is not None
        assert entry.summary.batches == 3

    def test_by_transaction_streams(self, quick_report):
        rate = quick_report.transaction_miss_rate(TransactionType.NEW_ORDER, "stock")
        assert 0.0 <= rate <= 1.0
        # Stock-Level re-reads recently ordered stock: it should not be
        # dramatically colder than the NU-driven stream.
        sl = quick_report.transaction_miss_rate(TransactionType.STOCK_LEVEL, "stock")
        assert 0.0 <= sl <= 1.0

    def test_as_rows(self, quick_report):
        rows = quick_report.as_rows()
        assert {row["relation"] for row in rows} >= {"stock", "customer", "item"}

    def test_overall_rate_weighted(self, quick_report):
        overall = quick_report.overall_miss_rate()
        rates = [entry.miss_rate for entry in quick_report.relations.values()]
        assert min(rates) <= overall <= max(rates)


class TestBehaviour:
    def test_deterministic(self):
        a = BufferSimulation(quick_config()).run()
        b = BufferSimulation(quick_config()).run()
        assert a.miss_rate("stock") == b.miss_rate("stock")
        assert a.miss_rate("customer") == b.miss_rate("customer")

    def test_miss_rates_decrease_with_buffer_size(self):
        reports = sweep_buffer_sizes(quick_config(), [2.0, 8.0, 32.0])
        stock = [reports[size].miss_rate("stock") for size in (2.0, 8.0, 32.0)]
        assert stock[0] > stock[1] > stock[2]

    def test_optimized_packing_beats_sequential(self):
        seq = BufferSimulation(
            quick_config(trace=TraceConfig(warehouses=2, packing="sequential", seed=3))
        ).run()
        opt = BufferSimulation(
            quick_config(trace=TraceConfig(warehouses=2, packing="optimized", seed=3))
        ).run()
        assert opt.miss_rate("stock") < seq.miss_rate("stock")
        assert opt.miss_rate("customer") < seq.miss_rate("customer")

    def test_customer_missier_than_stock_missier_than_item(self):
        """Paper Figure 8 ordering."""
        report = BufferSimulation(quick_config(buffer_mb=12)).run()
        assert (
            report.miss_rate("customer")
            > report.miss_rate("stock")
            > report.miss_rate("item")
        )

    def test_policy_selection_changes_results(self):
        lru = BufferSimulation(quick_config(policy="lru")).run()
        fifo = BufferSimulation(quick_config(policy="fifo")).run()
        assert lru.miss_rate("stock") != fifo.miss_rate("stock")

    def test_lru_beats_fifo_on_skewed_accesses(self):
        lru = BufferSimulation(quick_config(policy="lru")).run()
        fifo = BufferSimulation(quick_config(policy="fifo")).run()
        assert lru.overall_miss_rate() < fifo.overall_miss_rate()


def stock_miss_rate(policy="lru", **trace):
    """Stock miss rate of two warehouses behind a 10 MB buffer."""
    return BufferSimulation(
        SimulationConfig(
            trace=TraceConfig(warehouses=2, **trace),
            buffer_mb=10,
            policy=policy,
            batches=4,
            batch_size=12_000,
            warmup_references=20_000,
        )
    ).run().miss_rate("stock")


class TestAblations:
    """Design choices the paper argues in prose, measured."""

    @pytest.mark.parametrize("policy", ["lru", "clock", "fifo", "lfu", "2q", "lru2"])
    def test_every_policy_gains_from_optimized_packing(self, policy):
        """Section 4: optimized packing helps beyond LRU too."""
        sequential = stock_miss_rate(policy, packing="sequential", seed=41)
        optimized = stock_miss_rate(policy, packing="optimized", seed=41)
        assert sequential - optimized > 0

    def test_8k_pages_do_not_lower_stock_misses(self):
        """At a fixed byte budget the buffer holds half as many 8K pages,
        each less concentrated than a 4K page."""
        small = stock_miss_rate(packing="sequential", seed=43, page_size=4096)
        large = stock_miss_rate(packing="sequential", seed=43, page_size=8192)
        assert large >= small - 0.02

    def test_one_percent_remote_stock_leaves_misses_alone(self):
        """Section 5.3 reuses single-node miss rates per node, which holds
        only if the benchmark's 1 % remote stock does not move them."""
        local = stock_miss_rate(remote_stock_probability=0.0, seed=71)
        remote = stock_miss_rate(remote_stock_probability=0.01, seed=71)
        assert abs(remote - local) < 0.03


class TestMissesPerTransaction:
    def test_consistent_with_counters(self, quick_report):
        for name, entry in quick_report.relations.items():
            expected = entry.misses / quick_report.total_transactions
            assert quick_report.misses_per_transaction(name) == expected

    def test_unknown_relation_zero(self, quick_report):
        assert quick_report.misses_per_transaction("ghost") == 0.0

    def test_transactions_counted(self, quick_report):
        assert quick_report.total_transactions > 0
        refs_per_tx = quick_report.total_references / quick_report.total_transactions
        # TPC-C transactions average ~30-60 page references at scale.
        assert 10 < refs_per_tx < 120

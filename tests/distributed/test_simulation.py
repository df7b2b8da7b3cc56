"""Tests for the multi-node buffer simulation.

Validates, by simulation, the two assumptions the paper's distributed
model makes analytically: the Appendix-A remote-call expectations, and
the reuse of single-node miss rates per node.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.buffer.kernels import make_kernel, relation_miss_rates
from repro.buffer.simulator import (
    BufferSimulation,
    SimulationConfig,
    pages_for_megabytes,
)
from repro.distributed import simulation as simulation_module
from repro.distributed.sharded import run_sharded
from repro.distributed.simulation import (
    DistributedBufferSimulation,
    DistributedSimConfig,
    simulate_node,
)
from repro.exec.engine import ExecutionEngine
from repro.workload.mix import TRANSACTION_ORDER, TransactionType
from repro.workload.trace import RELATION_INDEX, TraceConfig, TraceGenerator


def scaled_trace(**overrides):
    defaults = dict(
        warehouses=2,
        items=600,
        customers_per_district=90,
        prime_orders=25,
        prime_pending=8,
        seed=5,
    )
    defaults.update(overrides)
    return TraceConfig(**defaults)


def report_config():
    return DistributedSimConfig(
        nodes=4,
        trace=scaled_trace(),
        buffer_mb=0.8,
        transactions_per_node=2_500,
        warmup_transactions_per_node=400,
        seed=3,
    )


def benchmark_config(seed):
    """The perf benchmark's dist-cluster shape (32 nodes x 1 200 tx)."""
    return DistributedSimConfig(
        nodes=32,
        trace=TraceConfig(warehouses=2, seed=seed, remote_stock_probability=0.1),
        buffer_mb=4.0,
        transactions_per_node=1_000,
        warmup_transactions_per_node=200,
        seed=seed,
    )


@pytest.fixture(scope="module")
def report():
    return DistributedBufferSimulation(report_config()).run()


class TestAppendixAValidation:
    """Simulated remote-call statistics vs the analytic formulas."""

    def test_rc_stock(self, report):
        assert report.remote.rc_stock == pytest.approx(
            report.expectations.rc_stock, rel=0.35
        )

    def test_l_stock(self, report):
        assert report.remote.l_stock == pytest.approx(
            report.expectations.l_stock, abs=0.02
        )

    def test_u_stock_theorem_1(self, report):
        """Theorem 1's unique-site expectation holds empirically."""
        assert report.remote.u_stock == pytest.approx(
            report.expectations.u_stock, rel=0.35
        )

    def test_u_cust(self, report):
        assert report.remote.u_cust == pytest.approx(
            report.expectations.u_cust, rel=0.25
        )

    def test_heavier_remote_traffic(self):
        """At p = 0.5 the empirical quantities still track Appendix A,
        where collisions make U_stock visibly smaller than E[remote]."""
        config = DistributedSimConfig(
            nodes=3,
            trace=scaled_trace(remote_stock_probability=0.5, seed=8),
            buffer_mb=0.8,
            transactions_per_node=1_500,
            warmup_transactions_per_node=200,
            seed=4,
        )
        result = DistributedBufferSimulation(config).run()
        assert result.remote.u_stock == pytest.approx(
            result.expectations.u_stock, rel=0.15
        )
        assert result.remote.u_stock < result.remote.rc_stock / 2  # collisions

    @pytest.mark.parametrize("seed", [11, 23])
    def test_benchmark_scale_tolerances(self, seed):
        """The perf benchmark's dist-cluster shape (32 nodes x 1 200 tx)
        holds its Appendix A tolerances on both claim seeds.  Under a
        second per seed on the array kernels, so it runs in tier-1."""
        result = DistributedBufferSimulation(benchmark_config(seed)).run()
        remote, expected = result.remote, result.expectations
        assert remote.rc_stock == pytest.approx(expected.rc_stock, rel=0.05)
        assert remote.u_stock == pytest.approx(expected.u_stock, rel=0.05)
        assert remote.l_stock == pytest.approx(expected.l_stock, abs=0.02)
        assert 0.0 < result.mean_miss_rate("stock") < 1.0

    def test_rows_render(self, report):
        rows = report.as_rows()
        assert {row["quantity"] for row in rows} == {
            "RC_stock",
            "L_stock",
            "U_stock",
            "U_cust",
        }


class TestMissRateNeutrality:
    """The paper reuses single-node miss rates per node."""

    def test_nodes_behave_alike(self, report):
        """All nodes see statistically similar miss rates."""
        assert report.max_node_spread("stock") < 0.12
        assert report.max_node_spread("customer") < 0.12

    def test_matches_single_node_simulation(self, report):
        """Per-node rates track an isolated single-node simulation."""
        single = BufferSimulation(
            SimulationConfig(
                trace=scaled_trace(seed=11),
                buffer_mb=0.8,
                batches=3,
                batch_size=15_000,
                warmup_references=12_000,
            )
        ).run()
        for relation in ("stock", "customer"):
            assert report.mean_miss_rate(relation) == pytest.approx(
                single.miss_rate(relation), abs=0.12
            )


class TestConfiguration:
    def test_single_node_degenerates(self):
        config = DistributedSimConfig(
            nodes=1,
            trace=scaled_trace(),
            buffer_mb=0.8,
            transactions_per_node=400,
            warmup_transactions_per_node=100,
        )
        result = DistributedBufferSimulation(config).run()
        assert result.remote.rc_stock == 0.0
        assert result.remote.l_stock == 1.0
        assert result.remote.u_cust == 0.0

    def test_single_node_is_a_plain_kernel_run(self):
        """With one node nothing is routed or injected: the node's miss
        rates are those of its bare trace through the same kernel."""
        config = DistributedSimConfig(
            nodes=1,
            trace=scaled_trace(),
            buffer_mb=0.8,
            transactions_per_node=400,
            warmup_transactions_per_node=100,
        )
        result = DistributedBufferSimulation(config).run()
        assert result.remote.remote_stock_calls == 0
        assert result.remote.remote_payments == 0
        assert result.remote.all_local_new_orders == result.remote.new_orders

        trace = TraceGenerator(config.trace.replace(remote_stock_probability=0.0))
        kernel = make_kernel(
            config.policy,
            pages_for_megabytes(config.buffer_mb, config.trace.page_size),
            trace.page_id_space,
            len(TRANSACTION_ORDER),
        )
        kernel.process_batch(trace.encoded_batch(transactions=100))
        kernel.reset_counters()
        measured = trace.encoded_batch(transactions=400)
        kernel.process_batch(measured)
        assert result.per_node_miss == [
            relation_miss_rates(kernel.batch_misses, measured.accesses)
        ]

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            DistributedSimConfig(nodes=0, trace=scaled_trace())

    def test_invalid_transactions(self):
        with pytest.raises(ValueError):
            DistributedSimConfig(
                nodes=2, trace=scaled_trace(), transactions_per_node=0
            )

    def test_negative_warmup_rejected_at_construction(self):
        with pytest.raises(ValueError, match="warmup_transactions_per_node"):
            DistributedSimConfig(
                nodes=2, trace=scaled_trace(), warmup_transactions_per_node=-5
            )

    @pytest.mark.parametrize("megabytes", [0.0, -1.0, float("nan")])
    def test_bad_buffer_size_rejected_at_construction(self, megabytes):
        """Rejected where it is written, not inside a shard worker later."""
        message = f"buffer_mb must be positive and finite, got {megabytes!r}"
        with pytest.raises(ValueError, match=message):
            DistributedSimConfig(nodes=2, trace=scaled_trace(), buffer_mb=megabytes)

    def test_no_warmup_measures_from_the_first_transaction(self):
        """A warm-up of 0 is valid: the whole trace is the measured
        window, so the node sees exactly its configured transactions."""
        config = DistributedSimConfig(
            nodes=2,
            trace=scaled_trace(),
            buffer_mb=0.8,
            transactions_per_node=300,
            warmup_transactions_per_node=0,
        )
        result = simulate_node(config, 0)
        mix = TraceGenerator(config.trace).encoded_batch(transactions=300).tx_indices
        assert result.remote.new_orders == np.count_nonzero(
            mix == TRANSACTION_ORDER.index(TransactionType.NEW_ORDER)
        )
        assert result.remote.payments == np.count_nonzero(
            mix == TRANSACTION_ORDER.index(TransactionType.PAYMENT)
        )

    def test_item_replication_is_not_a_field(self):
        """Item references are always node-local in the simulation; the
        throughput models keep their own ``item_replicated``."""
        with pytest.raises(TypeError):
            DistributedSimConfig(trace=scaled_trace(), item_replicated=False)


class TestKernelSelection:
    """A node's buffer is always an array kernel of the named policy."""

    def test_invalid_kernel(self):
        """``kernel`` is not a config field any more."""
        for kernel in ("auto", "array", "object", "simd"):
            with pytest.raises(TypeError):
                DistributedSimConfig(trace=scaled_trace(), kernel=kernel)

    def test_policy_must_name_a_kernel(self):
        """Rejected at construction, not inside a shard worker; names are
        exact (``"LRU"`` used to select the object pool)."""
        for policy in ("arc", "LRU"):
            with pytest.raises(ValueError, match="no array kernel.*'lru'"):
                DistributedSimConfig(trace=scaled_trace(), policy=policy)


class TestReferenceAccounting:
    """What a node's buffer sees is its own trace, minus what it ships,
    plus what lands on it — reference for reference."""

    def test_accounting_closes(self, monkeypatch):
        config = DistributedSimConfig(
            nodes=4,
            trace=scaled_trace(remote_stock_probability=0.3),
            buffer_mb=0.8,
            transactions_per_node=500,
            warmup_transactions_per_node=100,
            seed=6,
        )
        windows = []  # one dict per window, filled by the spies below
        kept = []
        seen = []

        def spy(cls, name, record):
            inner = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                out = inner(self, *args, **kwargs)
                record(out, *args)
                return out

            monkeypatch.setattr(cls, name, wrapper)

        generated = []

        def route(out, batch, owner):
            windows.append({"generated": batch})
            kept.append(out)

        spy(
            TraceGenerator,
            "encoded_batch",
            generated.append,
        )
        spy(simulation_module._NodeSimulation, "_route", route)
        volumes = []
        spy(
            simulation_module._NodeSimulation,
            "_inbound_volumes",
            lambda out, rounds: volumes.extend(out),
        )
        spy(
            TraceGenerator,
            "remote_stock_refs",
            lambda refs, count: windows[-1].update(stock=refs),
        )
        spy(
            TraceGenerator,
            "remote_payment_refs",
            lambda out, count: windows[-1].update(
                customer=out[0], blocks=out[1], payments_in=count
            ),
        )
        kernel_class = type(
            make_kernel("lru", 8, TraceGenerator(scaled_trace()).page_id_space, 5)
        )
        spy(kernel_class, "process_batch", lambda _, batch: seen.append(batch))

        result = simulate_node(config, 2)

        # One generated batch per node, routed as two windows: warm-up
        # then measured, back to back.
        assert len(generated) == 1
        assert len(windows) == len(kept) == len(seen) == 2
        assert np.array_equal(
            np.concatenate([w["generated"].refs for w in windows]),
            generated[0].refs,
        )
        assert [w["generated"].transactions for w in windows] == [100, 500]
        assert sum(w["generated"].accesses for w in windows).tolist() == (
            generated[0].accesses.tolist()
        )
        stock, customer = RELATION_INDEX["stock"], RELATION_INDEX["customer"]
        for window, (keep, remote), prepared in zip(windows, kept, seen):
            generated = window["generated"]
            dropped = generated.refs[~keep]
            relation = (dropped >> 1) & 0xF
            shipped_lines = int(np.count_nonzero(relation == stock))
            shipped_customers = int(np.count_nonzero(relation == customer))
            # Only stock lines and Payment customer blocks ever leave.
            assert shipped_lines + shipped_customers == dropped.size
            assert shipped_lines == remote.remote_stock_calls
            assert (
                remote.remote_payments
                <= shipped_customers
                <= 3 * remote.remote_payments
            )
            stock_in, customer_in = window["stock"].size, window["customer"].size
            assert window["blocks"].size == window["payments_in"] <= customer_in
            assert prepared.references == (
                generated.references
                - shipped_lines
                - shipped_customers
                + stock_in
                + customer_in
            )
            # Per relation too: only Stock and Customer counts move.
            delta = prepared.accesses - generated.accesses
            assert delta[stock] == stock_in - shipped_lines
            assert delta[customer] == customer_in - shipped_customers
            assert np.count_nonzero(delta) <= 2
        assert result.remote == kept[-1][1]

        # And in order: each round is the node's kept references, then
        # the stock lines, then the customer blocks landing in it.
        inbound_stock, inbound_payments = volumes
        assert inbound_stock.sum() > 0 and inbound_payments.sum() > 0
        round_index = 0
        for window, (keep, _), prepared in zip(windows, kept, seen):
            generated = window["generated"]
            stock_refs = iter(window["stock"].tolist())
            customer_refs = iter(window["customer"].tolist())
            blocks = iter(window["blocks"].tolist())
            expected = []
            start = 0
            for length in generated.tx_lengths.tolist():
                span = slice(start, start + length)
                expected += generated.refs[span][keep[span]].tolist()
                start += length
                for _ in range(int(inbound_stock[round_index])):
                    expected.append(next(stock_refs))
                for _ in range(int(inbound_payments[round_index])):
                    expected += [next(customer_refs) for _ in range(next(blocks))]
                round_index += 1
            assert prepared.refs.tolist() == expected
        assert round_index == 600


def report_digest(report):
    """SHA-256 of a report's per-node miss rates and remote statistics.

    Floats go through ``json`` as their shortest round-trip repr, so the
    digest moves with any change of the bits.
    """
    document = {
        "per_node_miss": report.per_node_miss,
        "remote": vars(report.remote),
    }
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


class TestNodeDigests:
    """Every node result is pinned bit for bit.

    The digests were taken while each node generated its warm-up and
    measured windows as two batches and built its own trace tables.
    How the node loop generates its trace is an implementation detail:
    the values must not move with it, nor with the hash seed.
    """

    BENCHMARK_DIGESTS = {
        11: "c8e99b1500e5dc75b6d9aa94fe82deb792c7d1a36e81f2776c3034641b09155e",
        23: "18e80522bd2650597be74ffc5198a722cfea8f5ecb9a49e6c9254d2f18fe40fa",
    }

    @pytest.mark.parametrize("seed", sorted(BENCHMARK_DIGESTS))
    def test_benchmark_digest(self, seed):
        report = DistributedBufferSimulation(benchmark_config(seed)).run()
        assert report_digest(report) == self.BENCHMARK_DIGESTS[seed]

    def test_report_digest(self, report):
        assert report_digest(report) == (
            "b029e653206c81ae90e8ffe9a93a3eb9902d85eaef6615d5a108b37d6f09ea86"
        )

    def test_sharded_equals_serial(self, report):
        with ExecutionEngine(jobs=1) as engine:
            assert run_sharded(report_config(), engine) == report

"""Multi-node buffer simulation (validation of two paper assumptions).

The paper's distributed model leans on two things it never simulates:

1. **Appendix A's expectations** — the expected remote-call counts
   (RC_stock, RC_cust), all-local probability (L_stock) and unique-site
   counts (U_stock, Theorem 1) are derived analytically;
2. **miss-rate reuse** — each node's buffer is assumed to behave like a
   single-node buffer, so the Figure 8 miss rates feed the distributed
   throughput model unchanged.

This module simulates an N-node cluster for real: each node runs its
own TPC-C trace against its own buffer pool, and the benchmark's remote
behaviour is injected — each New-Order stock access is redirected to a
uniformly chosen remote node with probability ``p*(N-1)/N``, and each
Payment's customer accesses with probability ``0.15*(N-1)/N``.  The run
measures per-node miss rates *and* the empirical remote-call
statistics, so both assumptions can be checked against the formulas.

**Decomposition.** The simulation is written so every node is fully
self-contained — :func:`simulate_node` depends only on
``(config, node)`` — which is what lets :mod:`repro.distributed.sharded`
fan nodes out across processes and fold results bit-identical to the
serial run.  Cross-node traffic is modelled from both ends without any
shared state:

* *Outbound* (sender side): a per-node routing RNG decides — one
  vectorized draw per batch of transactions — which stock lines /
  Payments go remote; those references are counted in
  :class:`RemoteStatistics` and masked out of the node's own reference
  array.  The drawn site label only feeds Theorem 1's distinct-site
  count, so no receiver is ever contacted.
* *Inbound* (receiver side): each node draws the number of remote
  accesses *landing on it* per round from the exact compound-binomial
  law of the outbound process — ``Binomial(N-1, mix_share)`` senders,
  thinned by the per-line remote-and-targets-me probability ``p/N``
  (exact because the New-Order line count is fixed per config) — and
  synthesises statistically equivalent encoded references from its own
  generic input streams, spliced in at their round's transaction
  boundary.  Those streams are independent of the per-transaction
  trace streams, so the injected accesses never perturb the trace.

The routed, spliced array is what the buffer sees: one
``process_batch`` call per window on an array kernel.

The two ends use independently seeded per-node generators, so the
cluster-wide totals agree in distribution with a shared-RNG
implementation while each node stays deterministic in isolation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.buffer.kernels import (
    make_kernel,
    pages_for_megabytes,
    relation_miss_rates,
    require_kernel_policy,
    require_megabytes,
)
from repro.constants import REMOTE_PAYMENT_PROBABILITY
from repro.distributed.remote import RemoteCallExpectations
from repro.obs.instruments import (
    DIST_NODES,
    DIST_REMOTE_PAYMENTS,
    DIST_REMOTE_STOCK_CALLS,
)
from repro.workload.mix import TRANSACTION_ORDER, TransactionType
from repro.workload.stream import EncodedBatch
from repro.workload.trace import (
    REF_REL_MASK,
    REF_REL_SHIFT,
    RELATION_INDEX,
    TraceConfig,
    TraceGenerator,
)

_STOCK = RELATION_INDEX["stock"]
_CUSTOMER = RELATION_INDEX["customer"]
_NEW_ORDER = TRANSACTION_ORDER.index(TransactionType.NEW_ORDER)
_PAYMENT = TRANSACTION_ORDER.index(TransactionType.PAYMENT)


@dataclass(frozen=True, kw_only=True)
class DistributedSimConfig:
    """Configuration of one multi-node buffer simulation (keyword-only).

    Derive sweep points from a base config with :meth:`replace`.
    """

    nodes: int = 4
    trace: TraceConfig = field(default_factory=lambda: TraceConfig(warehouses=2))
    buffer_mb: float = 4.0
    policy: str = "lru"
    transactions_per_node: int = 2_000
    warmup_transactions_per_node: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.transactions_per_node <= 0:
            raise ValueError("transactions_per_node must be positive")
        if self.warmup_transactions_per_node < 0:
            raise ValueError(
                "warmup_transactions_per_node must be non-negative, got "
                f"{self.warmup_transactions_per_node}"
            )
        if self.trace.remote_stock_probability < 0:
            raise ValueError("remote probability must be non-negative")
        require_megabytes(self.buffer_mb, "buffer_mb")
        require_kernel_policy(self.policy)

    def replace(self, **overrides) -> "DistributedSimConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class RemoteStatistics:
    """Empirical Appendix-A quantities measured during the run.

    All fields are *outbound*-measured: they count the remote work each
    node's own transactions generate, which makes them per-node
    computable and order-independently mergeable (:meth:`merge`).
    """

    new_orders: int
    remote_stock_calls: int
    all_local_new_orders: int
    unique_site_sum: int
    payments: int
    remote_payments: int

    @classmethod
    def merge(cls, parts: Sequence["RemoteStatistics"]) -> "RemoteStatistics":
        """Field-wise sum over per-node statistics (any order)."""
        return cls(
            new_orders=sum(p.new_orders for p in parts),
            remote_stock_calls=sum(p.remote_stock_calls for p in parts),
            all_local_new_orders=sum(p.all_local_new_orders for p in parts),
            unique_site_sum=sum(p.unique_site_sum for p in parts),
            payments=sum(p.payments for p in parts),
            remote_payments=sum(p.remote_payments for p in parts),
        )

    @property
    def rc_stock(self) -> float:
        """Empirical RC_stock (2 calls per remote tuple: read + write)."""
        if self.new_orders == 0:
            return 0.0
        return 2.0 * self.remote_stock_calls / self.new_orders

    @property
    def l_stock(self) -> float:
        """Empirical probability that every stock tuple is local."""
        if self.new_orders == 0:
            return 1.0
        return self.all_local_new_orders / self.new_orders

    @property
    def u_stock(self) -> float:
        """Empirical expected unique remote sites per New-Order."""
        if self.new_orders == 0:
            return 0.0
        return self.unique_site_sum / self.new_orders

    @property
    def u_cust(self) -> float:
        """Empirical expected unique remote sites per Payment."""
        if self.payments == 0:
            return 0.0
        return self.remote_payments / self.payments


@dataclass(frozen=True)
class NodeResult:
    """One node's share of a distributed run (the shard work product)."""

    node: int
    miss: dict[str, float]
    remote: RemoteStatistics


@dataclass(frozen=True)
class DistributedSimReport:
    """Results of one multi-node run."""

    config: DistributedSimConfig
    per_node_miss: list[dict[str, float]]
    remote: RemoteStatistics
    expectations: RemoteCallExpectations

    def mean_miss_rate(self, relation: str) -> float:
        rates = [node.get(relation, 0.0) for node in self.per_node_miss]
        return float(np.mean(rates))

    def max_node_spread(self, relation: str) -> float:
        """Largest miss-rate difference between any two nodes."""
        rates = [node.get(relation, 0.0) for node in self.per_node_miss]
        return float(max(rates) - min(rates))

    def as_rows(self) -> list[dict[str, object]]:
        rows = []
        for name, empirical, analytic in (
            ("RC_stock", self.remote.rc_stock, self.expectations.rc_stock),
            ("L_stock", self.remote.l_stock, self.expectations.l_stock),
            ("U_stock", self.remote.u_stock, self.expectations.u_stock),
            ("U_cust", self.remote.u_cust, self.expectations.u_cust),
        ):
            rows.append(
                {
                    "quantity": name,
                    "simulated": round(float(empirical), 5),
                    "Appendix A": round(float(analytic), 5),
                }
            )
        return rows


def fold_report(
    config: DistributedSimConfig, results: Sequence[NodeResult]
) -> DistributedSimReport:
    """Assemble a report from one :class:`NodeResult` per node.

    Results may arrive in any order (node shards complete out of order);
    the fold sorts by node id, so the report is identical however the
    work was partitioned.
    """
    by_node = sorted(results, key=lambda r: r.node)
    if [r.node for r in by_node] != list(range(config.nodes)):
        raise ValueError(
            f"need exactly one result per node 0..{config.nodes - 1}, "
            f"got nodes {[r.node for r in by_node]}"
        )
    return DistributedSimReport(
        config=config,
        per_node_miss=[dict(r.miss) for r in by_node],
        remote=RemoteStatistics.merge([r.remote for r in by_node]),
        expectations=RemoteCallExpectations(
            nodes=config.nodes,
            remote_stock_probability=config.trace.remote_stock_probability,
        ),
    )


def simulate_node(config: DistributedSimConfig, node: int) -> NodeResult:
    """Run one node of the cluster in isolation (the shard unit body).

    Module-level and picklable, so shard work units can name it.
    """
    if not 0 <= node < config.nodes:
        raise ValueError(f"node must be in [0, {config.nodes}), got {node}")
    result = _NodeSimulation(config, node).run()
    DIST_NODES.inc()
    DIST_REMOTE_STOCK_CALLS.inc(result.remote.remote_stock_calls)
    DIST_REMOTE_PAYMENTS.inc(result.remote.remote_payments)
    return result


class _NodeSimulation:
    """One node's buffer, trace and both halves of its remote traffic.

    Everything is batch-level: the node's whole trace is generated as
    one :class:`EncodedBatch` and split at the warm-up boundary into
    the warm-up and the measured window; routing is one keep-mask per
    window, inbound traffic is spliced in as encoded references, and
    the prepared array goes to the buffer in a single call.  The trace
    generator's layouts and encoded-reference tables are built once
    per process and shared by every node (see ``TraceGenerator``).
    """

    def __init__(self, config: DistributedSimConfig, node: int):
        self._config = config
        self._node = node
        node_trace = replace(
            config.trace,
            remote_stock_probability=0.0,
            seed=config.trace.seed + 1000 * node,
        )
        self._trace = TraceGenerator(node_trace)
        self._buffer = make_kernel(
            config.policy,
            pages_for_megabytes(config.buffer_mb, config.trace.page_size),
            self._trace.page_id_space,
            len(TRANSACTION_ORDER),
        )
        # Independent per-node streams for the two halves of the remote
        # model; seeding by (seed, salt, node) keeps nodes uncorrelated.
        self._route_rng = np.random.default_rng((config.seed, 7, node))
        self._inbound_rng = np.random.default_rng((config.seed, 11, node))

    def _inbound_volumes(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """Remote accesses landing on this node, per round.

        Exact distribution of the outbound process summed over the
        other ``N-1`` nodes: a sender runs a New-Order (Payment) with
        its mix share, each of its ``items_per_order`` stock lines (its
        one customer block) goes remote with probability ``p*(N-1)/N``
        and targets this node uniformly among ``N-1`` peers — a
        per-line hit probability of ``p/N``.  Drawing the sender count
        first and thinning the pooled lines preserves the compound
        structure (binomial thinning keeps the law exact because the
        line count per New-Order is fixed).
        """
        n = self._config.nodes
        if n == 1:
            zero = np.zeros(rounds, dtype=np.int64)
            return zero, zero
        mix = self._config.trace.mix
        rng = self._inbound_rng
        senders_no = rng.binomial(n - 1, mix.new_order, size=rounds)
        inbound_stock = rng.binomial(
            senders_no * self._config.trace.items_per_order,
            self._config.trace.remote_stock_probability / n,
        )
        senders_pay = rng.binomial(n - 1, mix.payment, size=rounds)
        inbound_payments = rng.binomial(
            senders_pay, REMOTE_PAYMENT_PROBABILITY / n
        )
        return inbound_stock, inbound_payments

    def run(self) -> NodeResult:
        config = self._config
        warmup = config.warmup_transactions_per_node
        rounds = warmup + config.transactions_per_node
        inbound = self._inbound_volumes(rounds)
        head, tail = self._trace.encoded_batch(transactions=rounds).split(warmup)
        if warmup:
            self._window(head, slice(0, warmup), inbound)
            self._buffer.reset_counters()
        measured, remote = self._window(tail, slice(warmup, rounds), inbound)
        miss = relation_miss_rates(self._buffer.batch_misses, measured.accesses)
        return NodeResult(node=self._node, miss=miss, remote=remote)

    def _window(
        self,
        batch: EncodedBatch,
        rounds: slice,
        inbound: tuple[np.ndarray, np.ndarray],
    ) -> tuple[EncodedBatch, RemoteStatistics]:
        """Route and replay one window: ``batch`` holds its ``rounds``.

        Returns the prepared batch as the buffer saw it and the
        window's outbound statistics.
        """
        trace = self._trace
        owner = np.repeat(np.arange(batch.transactions), batch.tx_lengths)
        keep, remote = self._route(batch, owner)
        inbound_stock, inbound_payments = (volumes[rounds] for volumes in inbound)
        payment_refs, payment_lengths = trace.remote_payment_refs(
            int(inbound_payments.sum())
        )
        # Each round is the node's own transaction, then the stock lines
        # and then the Payment customer blocks that land on it: a stable
        # sort on the round index of the three concatenated streams.
        round_ids = np.arange(batch.transactions)
        landing = np.concatenate(
            [
                owner[keep],
                np.repeat(round_ids, inbound_stock),
                np.repeat(np.repeat(round_ids, inbound_payments), payment_lengths),
            ]
        )
        refs = np.concatenate(
            [
                batch.refs[keep],
                trace.remote_stock_refs(int(inbound_stock.sum())),
                payment_refs,
            ]
        )[np.argsort(landing, kind="stable")]
        prepared = EncodedBatch.of_refs(refs, batch.highest_page_id)
        self._buffer.process_batch(prepared)
        return prepared, remote

    def _route(
        self, batch: EncodedBatch, owner: np.ndarray
    ) -> tuple[np.ndarray, RemoteStatistics]:
        """Outbound half: which of the batch's references stay local.

        Each New-Order stock line goes to a uniformly chosen peer with
        probability ``p*(N-1)/N`` (one Bernoulli vector and one site
        vector per batch); each Payment ships its customer block with
        probability ``0.15*(N-1)/N`` (one Bernoulli per Payment).  The
        site labels index the ``N-1`` peers, which is all Theorem 1's
        distinct-site count needs — no receiver is ever contacted.
        """
        n = self._config.nodes
        new_order = batch.tx_indices == _NEW_ORDER
        payments = np.flatnonzero(batch.tx_indices == _PAYMENT)
        keep = np.ones(batch.references, dtype=bool)
        shipped_by = sites = np.empty(0, dtype=np.int64)
        remote_payments = 0
        if n > 1:
            rng = self._route_rng
            relation = (batch.refs >> REF_REL_SHIFT) & REF_REL_MASK
            lines = np.flatnonzero((relation == _STOCK) & new_order[owner])
            p_line = self._config.trace.remote_stock_probability * (n - 1) / n
            shipped = lines[rng.random(lines.size) < p_line]
            sites = rng.integers(0, n - 1, size=shipped.size)
            shipped_by = owner[shipped]
            keep[shipped] = False
            goes_remote = rng.random(payments.size) < (
                REMOTE_PAYMENT_PROBABILITY * (n - 1) / n
            )
            remote_payments = int(goes_remote.sum())
            ships_customer = np.zeros(batch.transactions, dtype=bool)
            ships_customer[payments[goes_remote]] = True
            keep &= ~((relation == _CUSTOMER) & ships_customer[owner])
        new_orders = int(new_order.sum())
        return keep, RemoteStatistics(
            new_orders=new_orders,
            remote_stock_calls=int(shipped_by.size),
            all_local_new_orders=new_orders - int(np.unique(shipped_by).size),
            unique_site_sum=int(np.unique(shipped_by * n + sites).size),
            payments=int(payments.size),
            remote_payments=remote_payments,
        )


class DistributedBufferSimulation:
    """Simulates N nodes, each with a private buffer pool.

    Every node runs an independent (differently seeded) copy of the
    TPC-C trace over its local warehouses, with remote traffic modelled
    per node from both ends (see the module docstring).  This serial
    runner folds the very same :func:`simulate_node` results that
    :mod:`repro.distributed.sharded` computes in worker processes, so
    the two are bit-identical by construction.
    """

    def __init__(self, config: DistributedSimConfig):
        self._config = config

    @property
    def config(self) -> DistributedSimConfig:
        return self._config

    def run(self) -> DistributedSimReport:
        config = self._config
        return fold_report(
            config, [simulate_node(config, node) for node in range(config.nodes)]
        )

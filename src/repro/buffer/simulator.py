"""Trace-driven buffer-pool simulation (paper Section 4, Figure 8).

Drives the TPC-C page-reference trace through a simulated buffer pool
and estimates per-relation miss rates with batch-means confidence
intervals.  The paper's setup — LRU, 30 batches of 100 000 references,
90% confidence, 20 warehouses, 4K pages — is the default; tests and
quick benches scale the trace down via the config.

Besides the overall per-relation miss rates, the simulator records the
miss rates of each (transaction type, relation) pair: the throughput
model needs the Order-Status / Delivery / Stock-Level access streams
"in isolation" because their temporal-locality (P-type) accesses behave
very differently from the NURand-driven ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dataclass_replace

import numpy as np

from repro.buffer.kernels import (
    TX_STRIDE_SHIFT,
    make_kernel,
    pages_for_megabytes,
    require_kernel_policy,
    require_megabytes,
)
from repro.obs import instruments
from repro.obs.tracing import get_tracer
from repro.stats.batch_means import BatchMeans, BatchMeansSummary
from repro.workload.mix import TRANSACTION_ORDER, TransactionType
from repro.workload.trace import RELATION_NAMES, TraceConfig, TraceGenerator


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Configuration of one buffer-simulation run (keyword-only).

    ``buffer_mb`` is converted to pages using the trace's page size.
    ``warmup_references`` defaults to enough references to fill and
    churn the buffer (four times its capacity, at least one batch).
    Derive sweep points from a base config with :meth:`replace` instead
    of re-spelling every field.  ``policy`` names one of the array
    kernels of :mod:`repro.buffer.kernels`
    (:data:`~repro.buffer.kernels.ARRAY_KERNEL_POLICIES`).
    """

    trace: TraceConfig = field(default_factory=TraceConfig)
    buffer_mb: float = 52.0
    policy: str = "lru"
    batches: int = 30
    batch_size: int = 100_000
    warmup_references: int | None = None
    confidence: float = 0.90

    def __post_init__(self) -> None:
        if self.batches < 2:
            raise ValueError(f"need at least 2 batches, got {self.batches}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        require_megabytes(self.buffer_mb, "buffer_mb")
        require_kernel_policy(self.policy)

    def replace(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields replaced (validation re-runs).

        Fields of the nested trace config can be overridden directly by
        prefixing with ``trace_``, e.g. ``config.replace(trace_seed=7)``.
        """
        trace_overrides = {
            name[len("trace_"):]: overrides.pop(name)
            for name in list(overrides)
            if name.startswith("trace_")
        }
        if trace_overrides:
            trace = overrides.pop("trace", self.trace)
            overrides["trace"] = trace.replace(**trace_overrides)
        return _dataclass_replace(self, **overrides)

    @property
    def buffer_pages(self) -> int:
        return pages_for_megabytes(self.buffer_mb, self.trace.page_size)

    @property
    def effective_warmup(self) -> int:
        if self.warmup_references is not None:
            return self.warmup_references
        return max(self.batch_size, 4 * self.buffer_pages)


@dataclass(frozen=True)
class RelationMissRate:
    """Miss-rate estimate for one relation."""

    relation: str
    accesses: int
    misses: int
    summary: BatchMeansSummary | None

    @property
    def miss_rate(self) -> float:
        """Point estimate over all measured references."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate


@dataclass(frozen=True)
class MissRateReport:
    """Results of one simulation run."""

    config: SimulationConfig
    relations: dict[str, RelationMissRate]
    by_transaction: dict[tuple[str, str], float]
    total_references: int
    total_transactions: int = 0

    def misses_per_transaction(self, relation: str) -> float:
        """Physical reads per transaction for one relation.

        Unlike the miss *ratio*, this quantity is directly comparable
        across systems that count accesses differently (e.g. the
        executable engine, which touches a page once per call rather
        than once per tuple).
        """
        entry = self.relations.get(relation)
        if entry is None or self.total_transactions == 0:
            return 0.0
        return entry.misses / self.total_transactions

    def miss_rate(self, relation: str) -> float:
        """Overall miss rate of a relation (0.0 if never referenced)."""
        entry = self.relations.get(relation)
        return entry.miss_rate if entry is not None else 0.0

    def transaction_miss_rate(self, tx: TransactionType, relation: str) -> float:
        """Miss rate of one relation within one transaction type's stream."""
        return self.by_transaction.get((tx.value, relation), 0.0)

    def overall_miss_rate(self) -> float:
        accesses = sum(entry.accesses for entry in self.relations.values())
        misses = sum(entry.misses for entry in self.relations.values())
        return misses / accesses if accesses else 0.0

    def as_rows(self) -> list[dict[str, object]]:
        """Flat rows for report tables (one per relation)."""
        rows = []
        for name, entry in sorted(self.relations.items()):
            half_width = entry.summary.half_width if entry.summary else float("nan")
            rows.append(
                {
                    "relation": name,
                    "accesses": entry.accesses,
                    "miss rate": round(entry.miss_rate, 5),
                    "ci half-width": round(half_width, 5),
                }
            )
        return rows


class _MeasurementState:
    """A warmed-up simulation that can run batches incrementally.

    Owns the trace, the replacement-policy state (an array kernel), and
    all accounting.  ``run_batches`` extends the
    measurement without restarting anything, so
    :meth:`BufferSimulation.run_until_precise` only pays for the
    *additional* batches on each doubling — and because the trace
    stream continues deterministically, an incremental run is
    bit-identical to a fresh run of the final length.

    Per-``(transaction, relation)`` accesses are a matrix added to
    once per batch; the kernel's misses are a flat stride-16 list
    indexed by ``(tx_index << TX_STRIDE_SHIFT) + relation``.
    """

    def __init__(self, config: SimulationConfig):
        self._config = config
        self._trace = TraceGenerator(config.trace)
        self._n_relations = len(RELATION_NAMES)
        self._tx_names = tuple(tx_type.value for tx_type in TRANSACTION_ORDER)
        self._kernel = make_kernel(
            config.policy,
            config.buffer_pages,
            self._trace.page_id_space,
            len(TRANSACTION_ORDER),
        )
        self._tx_accesses = np.zeros(
            (len(self._tx_names), self._n_relations), dtype=np.int64
        )
        self._total_accesses = [0] * self._n_relations
        self._total_misses = [0] * self._n_relations
        self._batch_stats = [
            BatchMeans(config.confidence) for _ in range(self._n_relations)
        ]
        self._total_references = 0
        self._total_transactions = 0
        self.batches_run = 0
        self._warm_up()

    def _warm_up(self) -> None:
        """Run references through the buffer until the warmup is spent."""
        self._kernel.process_batch(
            self._trace.encoded_batch(min_refs=self._config.effective_warmup)
        )
        self._kernel.reset_counters()

    def run_batches(self, count: int) -> None:
        """Measure ``count`` additional batches."""
        for _ in range(count):
            self._run_batch()
        self.batches_run += count

    def _run_batch(self) -> None:
        trace = self._trace
        kernel = self._kernel
        kernel.begin_batch()
        batch = trace.encoded_batch(min_refs=self._config.batch_size)
        sim_transactions = instruments.SIM_TRANSACTIONS
        sim_tx_refs = instruments.SIM_TX_REFS
        # The per-transaction instruments are observe-only; when the
        # registry is disabled the calls are no-ops, so skipping them
        # entirely is output-identical and keeps them off the hot path.
        if sim_transactions.enabled or sim_tx_refs.enabled:
            tx_names = self._tx_names
            started = np.bincount(batch.tx_indices, minlength=len(tx_names))
            for tx_index in np.flatnonzero(started).tolist():
                sim_transactions.inc(int(started[tx_index]), tx=tx_names[tx_index])
            # One counted observation per distinct (type, length) pair.
            pairs, counts = np.unique(
                (batch.tx_indices << 32) | batch.tx_lengths, return_counts=True
            )
            for pair, count in zip(pairs.tolist(), counts.tolist()):
                sim_tx_refs.observe(
                    pair & 0xFFFFFFFF, count=count, tx=tx_names[pair >> 32]
                )
        kernel.process_batch(batch)
        self._tx_accesses += batch.tx_accesses
        self._total_references += batch.references
        self._total_transactions += batch.transactions
        self._fold_batch(batch.accesses.tolist(), kernel.batch_misses)

    def _fold_batch(
        self, batch_accesses: list[int], batch_misses: list[int]
    ) -> None:
        for relation in range(self._n_relations):
            accesses = batch_accesses[relation]
            if accesses:
                self._batch_stats[relation].add_batch(
                    batch_misses[relation] / accesses
                )
            self._total_accesses[relation] += accesses
            self._total_misses[relation] += batch_misses[relation]

    def meets_precision(self, relation: str, relative_half_width: float) -> bool:
        """Whether a relation's CI meets the target (vacuously true when
        the relation was never accessed or has fewer than two batches)."""
        try:
            index = RELATION_NAMES.index(relation)
        except ValueError:
            return True
        if self._total_accesses[index] == 0:
            return True
        stats = self._batch_stats[index]
        if stats.batches < 2:
            return True
        return stats.summary().meets_precision(relative_half_width)

    def build_report(self, config: SimulationConfig) -> MissRateReport:
        """Fold the accumulated tallies into a report (and obs counters)."""
        relations = {}
        for index, name in enumerate(RELATION_NAMES):
            if self._total_accesses[index] == 0:
                continue
            stats = self._batch_stats[index]
            summary = stats.summary() if stats.batches >= 2 else None
            relations[name] = RelationMissRate(
                relation=name,
                accesses=self._total_accesses[index],
                misses=self._total_misses[index],
                summary=summary,
            )

        tx_misses = self._kernel.tx_misses
        by_transaction = {}
        for tx_index, tx_name in enumerate(self._tx_names):
            base = tx_index << TX_STRIDE_SHIFT
            for relation, relation_name in enumerate(RELATION_NAMES):
                accesses = int(self._tx_accesses[tx_index, relation])
                if accesses:
                    by_transaction[(tx_name, relation_name)] = (
                        tx_misses[base + relation] / accesses
                    )

        self._fold_counters(config, self._kernel.evictions_by_relation())
        return MissRateReport(
            config=config,
            relations=relations,
            by_transaction=by_transaction,
            total_references=self._total_references,
            total_transactions=self._total_transactions,
        )

    def _fold_counters(
        self, config: SimulationConfig, evictions: dict[int, int]
    ) -> None:
        """Fold the run's exact measured totals into the obs counters.

        Folding the same tallies the report is built from (rather than
        counting each reference again on the hot path) guarantees the
        snapshot reconciles exactly with the reported miss rates.
        """
        if not instruments.SIM_BUFFER_ACCESSES.enabled:
            return
        run_labels = {
            "policy": config.policy,
            "packing": config.trace.packing,
            "buffer_mb": f"{config.buffer_mb:g}",
        }
        for index, name in enumerate(RELATION_NAMES):
            if self._total_accesses[index]:
                instruments.SIM_BUFFER_ACCESSES.inc(
                    self._total_accesses[index], relation=name, **run_labels
                )
            if self._total_misses[index]:
                instruments.SIM_BUFFER_MISSES.inc(
                    self._total_misses[index], relation=name, **run_labels
                )
            evicted = evictions.get(index, 0)
            if evicted:
                instruments.SIM_BUFFER_EVICTIONS.inc(
                    evicted, relation=name, **run_labels
                )


class BufferSimulation:
    """Runs a :class:`SimulationConfig` to a :class:`MissRateReport`."""

    def __init__(self, config: SimulationConfig):
        self._config = config

    @property
    def config(self) -> SimulationConfig:
        return self._config

    def run_until_precise(
        self,
        relative_half_width: float = 0.05,
        relations: tuple[str, ...] = ("customer", "stock", "item"),
        max_batches: int = 120,
    ) -> MissRateReport:
        """Run batches until the paper's precision criterion is met.

        The paper requires every reported miss rate to have a relative
        confidence-interval half-width of at most 5% at 90% confidence.
        Batches are added (beyond the configured count) until the named
        relations meet the target or ``max_batches`` is reached.  The
        measurement state is kept across doublings, so each round only
        simulates the additional batches; the result is bit-identical
        to a fresh run of the final batch count.
        """
        if not 0 < relative_half_width < 1:
            raise ValueError(
                f"relative_half_width must be in (0, 1), got {relative_half_width}"
            )
        config = self._config
        with get_tracer().span(
            "sim.run_until_precise",
            policy=config.policy,
            buffer_mb=config.buffer_mb,
            packing=config.trace.packing,
        ):
            state = _MeasurementState(config)
            state.run_batches(config.batches)
            while True:
                batches = state.batches_run
                precise = all(
                    state.meets_precision(relation, relative_half_width)
                    for relation in relations
                )
                if precise or batches >= max_batches:
                    return state.build_report(config.replace(batches=batches))
                state.run_batches(min(max_batches, batches * 2) - batches)

    def run(self) -> MissRateReport:
        """Warm up, then measure ``batches`` batches of references."""
        config = self._config
        with get_tracer().span(
            "sim.run",
            policy=config.policy,
            buffer_mb=config.buffer_mb,
            packing=config.trace.packing,
        ):
            state = _MeasurementState(config)
            state.run_batches(config.batches)
            return state.build_report(config)


def run_simulation_config(config: SimulationConfig) -> MissRateReport:
    """Run one simulation config to completion (module-level work unit).

    This is the picklable entry point the parallel execution engine
    ships to worker processes: configs are frozen dataclasses and
    reports plain dataclasses, so both cross process boundaries.
    """
    return BufferSimulation(config).run()

"""Equivalence properties of the vectorized trace/kernel fast paths.

Three contracts keep the vectorized implementations honest:

* **Emitter byte-identity** — the batch assembler behind
  ``encoded_batch``/``stream`` emits the :class:`EncodedBatch` blocks
  pinned below (SHA-256 of the columns, and every batch's
  ``highest_page_id``), taken while a scalar per-transaction encoder
  still held it to the same bytes, for any interleaving of batch
  bounds, and independent of how the stream is partitioned into
  batches.  ``tests/property/test_order_state_oracle.py`` checks the
  order bookkeeping under the blocks against an independent model.
* **Plan-chunk independence** — the vectorized emitter pre-draws its
  inputs in chunks; the emitted bytes do not depend on the chunk size,
  which is what lets a short transaction-bounded batch plan only what
  it needs.
* **Kernel batch parity** — ``process_batch`` over a whole encoded
  batch leaves every kernel in exactly the state that one
  ``process_block`` call per transaction would: outcomes, victims and
  per-transaction attribution do not depend on where a batch is cut.
"""

import hashlib

import numpy as np
import pytest

from repro.buffer import kernels as kernels_module
from repro.buffer.kernels import ARRAY_KERNEL_POLICIES, make_kernel
from repro.workload import trace as trace_module
from repro.workload.mix import TransactionMix
from repro.workload.stream import EncodedBatch
from repro.workload.trace import (
    N_STATIC_RELATIONS,
    RELATION_NAMES,
    PageIdSpace,
    TraceConfig,
    TraceGenerator,
)

from ..buffer.kernel_probe import process_block, resident_page_ids

#: Mixed reference- and transaction-bounded batch requests, sized to
#: cross planner-chunk boundaries several times.
BATCH_SPEC = [
    ("refs", 3_000),
    ("tx", 17),
    ("refs", 40_000),
    ("tx", 1),
    ("refs", 20_000),
    ("tx", 4_100),
    ("refs", 9_999),
]


def emit(emitter_next, spec):
    batches = []
    for kind, value in spec:
        if kind == "refs":
            batches.append(emitter_next(min_refs=value))
        else:
            batches.append(emitter_next(transactions=value))
    return batches


def assert_batches_equal(a: EncodedBatch, b: EncodedBatch, label: str):
    assert np.array_equal(a.refs, b.refs), f"{label}: refs differ"
    assert np.array_equal(a.tx_indices, b.tx_indices), f"{label}: tx_indices"
    assert np.array_equal(a.tx_lengths, b.tx_lengths), f"{label}: tx_lengths"
    assert np.array_equal(a.tx_accesses, b.tx_accesses), f"{label}: tx_accesses"
    assert a.highest_page_id == b.highest_page_id, f"{label}: highest_page_id"


IDENTITY_CONFIGS = {
    "w4": TraceConfig(warehouses=4, seed=3),
    "w2-optimized": TraceConfig(warehouses=2, seed=11, packing="optimized"),
    "w1-random": TraceConfig(warehouses=1, seed=29, packing="random"),
}

#: Configs that stress the order state, pinned by digest only: queues
#: that start empty under a Delivery-heavy mix (most Deliveries skip
#: districts), a tiny customer population with many remote stock lines
#: (customers re-order inside one planner chunk), and the paper's 20
#: warehouses through a spec that crosses more than ten planner chunks.
STATE_STRESS_CONFIGS = {
    "w2-delivery-heavy": TraceConfig(
        warehouses=2,
        seed=5,
        prime_pending=0,
        mix=TransactionMix.from_percent(
            new_order=30, payment=30, order_status=5, delivery=30, stock_level=5
        ),
    ),
    "w2-remote-small": TraceConfig(
        warehouses=2,
        seed=19,
        remote_stock_probability=0.1,
        customers_per_district=60,
        items=1000,
    ),
    "w20-default": TraceConfig(warehouses=20, seed=11),
}

#: More than ten 4 096-transaction planner chunks (about 45 000
#: transactions), cut by both kinds of bound.
LONG_BATCH_SPEC = [
    ("refs", 500_000),
    ("tx", 9_000),
    ("refs", 65_536),
    ("tx", 1),
    ("refs", 700_000),
    ("tx", 5_000),
    ("refs", 65_536),
]

PINNED_SPECS = {name: BATCH_SPEC for name in IDENTITY_CONFIGS} | {
    "w2-delivery-heavy": BATCH_SPEC,
    "w2-remote-small": BATCH_SPEC,
    "w20-default": LONG_BATCH_SPEC,
}

#: SHA-256 over ``refs``/``tx_indices``/``tx_lengths``/``tx_accesses``
#: (int64 bytes, in that order) of the ``PINNED_SPECS`` batches.  The
#: first three were computed on the commit before the scalar path lost
#: its production callers, the state-stress ones on the commit before
#: the order state became columnar.
PINNED_DIGESTS = {
    "w4": "a7ff1c794dfbf13238445ef2b433384ee24efcda45ab705aba5d35cf96791ed7",
    "w2-optimized": "9acb61d89403af11984a71a26255e32cd432434d88b74178b3bdaf79a91c6891",
    "w1-random": "f97291e9de03bb2453ad0082660f91422315cd0848a39a5bc0eab1f1fb2200d8",
    "w2-delivery-heavy": "a99ba759ffd91f111286b3a52680be2ae702307486694898361a60155f666ef7",
    "w2-remote-small": "fa0d8eeefb3778760e4edaa28184be977fd62265633b1a1fdae9a75e60349a44",
    "w20-default": "603e8ff8214ebd2b89b0173909233ce191f0cc72732c64e3a6b8b03a700bdd3b",
}

#: ``highest_page_id`` of every ``PINNED_SPECS`` batch, recorded on the
#: last commit with the scalar reference (which compared it per batch).
PINNED_HIGHEST_PAGE_IDS = {
    "w4": [116821, 116825, 117065, 117065, 117193, 118145, 118201],
    "w2-optimized": [59443, 59447, 59687, 59687, 59799, 60755, 60811],
    "w1-random": [30754, 30758, 30958, 30958, 31094, 32026, 32090],
    "w2-delivery-heavy": [59439, 59447, 59647, 59647, 59735, 60371, 60419],
    "w2-remote-small": [1039, 1043, 1243, 1243, 1347, 2303, 2359],
    "w20-default": [578713, 580749, 581125, 581125, 585169, 586321, 586705],
}


def batches_digest(batches) -> str:
    digest = hashlib.sha256()
    for batch in batches:
        for column in (
            batch.refs, batch.tx_indices, batch.tx_lengths, batch.tx_accesses
        ):
            digest.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestEmitterByteIdentity:
    @pytest.mark.parametrize("name", list(PINNED_DIGESTS))
    def test_emitted_bytes_are_pinned(self, name):
        config = (IDENTITY_CONFIGS | STATE_STRESS_CONFIGS)[name]
        batches = emit(TraceGenerator(config).encoded_batch, PINNED_SPECS[name])
        assert batches_digest(batches) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", list(PINNED_HIGHEST_PAGE_IDS))
    def test_highest_page_ids_are_pinned(self, name):
        config = (IDENTITY_CONFIGS | STATE_STRESS_CONFIGS)[name]
        batches = emit(TraceGenerator(config).encoded_batch, PINNED_SPECS[name])
        assert [b.highest_page_id for b in batches] == PINNED_HIGHEST_PAGE_IDS[name]

    def test_batch_size_independent(self):
        """One partitioning of the stream is byte-equal to any other."""
        config = TraceConfig(warehouses=2, seed=7)
        coarse = TraceGenerator(config)
        fine = TraceGenerator(config)
        coarse_refs = np.concatenate(
            [coarse.encoded_batch(min_refs=30_000).refs for _ in range(2)]
        )
        fine_refs = np.concatenate(
            [fine.encoded_batch(min_refs=1_000).refs for _ in range(70)]
        )
        n = min(coarse_refs.size, fine_refs.size)
        assert np.array_equal(coarse_refs[:n], fine_refs[:n])

    @pytest.mark.parametrize(
        "config",
        [
            TraceConfig(warehouses=2, seed=11, remote_stock_probability=0.1),
            TraceConfig(warehouses=1, seed=29, packing="random"),
        ],
        ids=["w2-remote", "w1-random"],
    )
    def test_plan_chunk_size_independent(self, config, monkeypatch):
        """Byte-identical batches whatever the planner's chunk sizes."""
        spec = BATCH_SPEC + [("tx", 300), ("tx", 1_000)]
        reference = None
        for chunk, floor in ((4096, 256), (4096, 4096), (1500, 7), (256, 256), (97, 1)):
            monkeypatch.setattr(trace_module, "PLAN_CHUNK_TRANSACTIONS", chunk)
            monkeypatch.setattr(trace_module, "MIN_PLAN_TRANSACTIONS", floor)
            batches = emit(TraceGenerator(config).encoded_batch, spec)
            if reference is None:
                reference = batches
            for i, (a, b) in enumerate(zip(reference, batches)):
                assert_batches_equal(a, b, f"chunk {chunk}/{floor}, batch {i}")

    def test_short_batch_plans_only_what_it_needs(self):
        """``transactions=k`` for small ``k`` takes ``max(256, k)`` mix
        draws off the buffered stream, not a full 4 096 chunk."""
        trace = TraceGenerator(TraceConfig(warehouses=1, seed=17))
        trace.encoded_batch(transactions=5)
        assert trace._mix_next == trace_module.MIN_PLAN_TRANSACTIONS
        trace.encoded_batch(transactions=1_000)  # 251 left over, 749 planned
        assert trace._mix_next == trace_module.MIN_PLAN_TRANSACTIONS + 749
        by_refs = TraceGenerator(TraceConfig(warehouses=1, seed=17))
        by_refs.encoded_batch(min_refs=100)
        assert by_refs._mix_next == trace_module.PLAN_CHUNK_TRANSACTIONS

    def test_object_stream_matches_encoded(self):
        """``references()``, the object view, decodes the very trace that
        ``stream()`` emits, whichever way the batches are cut."""
        config = TraceConfig(warehouses=2, seed=13)
        stream_trace = TraceGenerator(config)
        batch = next(stream_trace.stream(batch_size=5_000))
        decode = stream_trace.page_id_space.decode_ref
        objects = TraceGenerator(config).references(batch.tx_lengths.size)
        assert [tuple(ref) for ref in objects] == [
            tuple(decode(ref)) for ref in batch.refs.tolist()
        ]

    def test_decode_ref_arrays_matches_scalar_decode(self):
        trace = TraceGenerator(TraceConfig(warehouses=1, seed=5))
        space = trace.page_id_space
        refs = trace.encoded_batch(min_refs=5_000).refs
        relation, page, write = space.decode_ref_arrays(refs)
        for i in (0, 1, 17, len(refs) // 2, len(refs) - 1):
            assert (
                int(relation[i]),
                int(page[i]),
                bool(write[i]),
            ) == tuple(space.decode_ref(int(refs[i])))


N_REL = len(RELATION_NAMES)
FUZZ_SPACE = PageIdSpace([40] * N_STATIC_RELATIONS)


def _random_batch(rng, n_pages: int, n_refs: int, zipf: bool) -> EncodedBatch:
    """A synthetic encoded batch with random transaction segmentation."""
    if zipf:
        pids = np.minimum(rng.zipf(1.3, size=n_refs) - 1, n_pages - 1)
    else:
        pids = rng.integers(0, n_pages, size=n_refs)
    pids = pids.astype(np.int64)
    relations = pids % N_REL
    writes = rng.integers(0, 2, size=n_refs).astype(np.int64)
    refs = (pids << 5) | (relations << 1) | writes
    n_tx = max(1, n_refs // 5)
    cuts = (
        np.sort(rng.integers(0, n_refs + 1, size=n_tx))
        if n_refs > 1
        else np.empty(0, dtype=np.int64)
    )
    bounds = np.concatenate([[0], cuts, [n_refs]])
    lengths = np.diff(bounds).astype(np.int64)
    tx_indices = rng.integers(0, 4, size=lengths.size).astype(np.int64)
    return EncodedBatch(refs, tx_indices, lengths, None, int(pids.max()))


def _feed_scalar(kernel, batch: EncodedBatch) -> None:
    pos = 0
    for tx_index, length in zip(
        batch.tx_indices.tolist(), batch.tx_lengths.tolist()
    ):
        process_block(kernel, batch.refs[pos : pos + length].tolist(), tx_index << 4)
        pos += length


class TestProcessBatchParity:
    def test_sliced_lru_batch_equals_scalar_blocks(self, monkeypatch):
        """A batch longer than the LRU slice limit is classified in
        pieces; outcomes and per-transaction attribution are unchanged."""
        monkeypatch.setattr(kernels_module, "_LRU_SLICE_FLOOR", 64)
        monkeypatch.setattr(kernels_module, "_LRU_SLICE_CAPACITIES", 4)
        rng = np.random.default_rng(7)
        for trial in range(25):
            capacity = int(rng.integers(1, 30))
            scalar = make_kernel("lru", capacity, FUZZ_SPACE, 4)
            batched = make_kernel("lru", capacity, FUZZ_SPACE, 4)
            for segment in range(2):
                batch = _random_batch(
                    rng, int(rng.integers(2, 120)), int(rng.integers(200, 900)),
                    bool(rng.integers(0, 2)),
                )
                _feed_scalar(scalar, batch)
                batched.process_batch(batch)
                context = (trial, segment)
                assert scalar.batch_misses == batched.batch_misses, context
                assert scalar.tx_misses == batched.tx_misses, context
                assert scalar.eviction_counts == batched.eviction_counts, context
                assert (
                    resident_page_ids(scalar) == resident_page_ids(batched)
                ), context

    @pytest.mark.parametrize("policy", ARRAY_KERNEL_POLICIES)
    def test_batch_equals_scalar_blocks(self, policy):
        """Whole-batch processing leaves the same state as per-tx blocks,
        under random streams and capacities."""
        rng = np.random.default_rng(hash(policy) % (2**32))
        for trial in range(60):
            n_pages = int(rng.integers(2, 60))
            capacity = int(rng.integers(1, 20))
            scalar = make_kernel(policy, capacity, FUZZ_SPACE, 4)
            batched = make_kernel(policy, capacity, FUZZ_SPACE, 4)
            for segment in range(int(rng.integers(1, 5))):
                batch = _random_batch(
                    rng,
                    n_pages,
                    int(rng.integers(1, 300)),
                    bool(rng.integers(0, 2)),
                )
                _feed_scalar(scalar, batch)
                batched.process_batch(batch)
                context = (policy, trial, segment)
                assert scalar.batch_misses == batched.batch_misses, context
                assert scalar.tx_misses == batched.tx_misses, context
                assert (
                    scalar.eviction_counts == batched.eviction_counts
                ), context
                assert (
                    resident_page_ids(scalar) == resident_page_ids(batched)
                ), context
                assert len(scalar) == len(batched), context

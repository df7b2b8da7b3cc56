"""Unit tests for the dense array kernels (repro.buffer.kernels).

The exhaustive stream-level parity checks live in
``tests/property/test_kernel_parity.py``; here we test the kernel
registry, the dense page-id interning, table growth, the bound on
every kernel's state, the simulator's policy validation, and parity of
the simulator's report and the kernels' shared tally with a replay of
the same trace through the reference policy object
(``tests/buffer/policy_replay.py``), the LRU kernel's recency order,
the LFU and LRU-K admission FIFO, and the dominance counter behind the
LRU classifier.
"""

import collections

import numpy as np
import pytest

from repro.buffer.kernels import (
    _PAGE_MASK,
    _TICK_BITS,
    _TICK_MASK,
    ARRAY_KERNEL_POLICIES,
    TX_STRIDE_SHIFT,
    ClockArrayKernel,
    FifoArrayKernel,
    LfuArrayKernel,
    LruArrayKernel,
    LruKArrayKernel,
    MruArrayKernel,
    TwoQArrayKernel,
    _GRID,
    _block_count_lt,
    _grid_count_bounds,
    make_kernel,
)
from repro.buffer import kernels as kernels_module
from repro.buffer.simulator import BufferSimulation, SimulationConfig
from repro.obs.metrics import default_registry
from repro.workload.mix import TRANSACTION_ORDER
from repro.workload.stream import EncodedBatch
from repro.workload.trace import (
    N_GROWING_RELATIONS,
    N_STATIC_RELATIONS,
    REF_PID_SHIFT,
    RELATION_NAMES,
    PageIdSpace,
    TraceConfig,
    TraceGenerator,
)

from .kernel_probe import process_block, resident_page_ids
from .policy_oracle import LruPolicy, make_policy
from .policy_replay import replay


def small_space() -> PageIdSpace:
    return PageIdSpace([7, 11, 13, 17, 19])


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


def page_keys(space: PageIdSpace, refs) -> list[tuple[int, int]]:
    relation, page, _ = space.decode_ref_arrays(refs)
    return list(zip(relation.tolist(), page.tolist()))


def policy_replay(config: SimulationConfig):
    """The run's trace through the reference policy object, public API only.

    Same warm-up and measurement windows as ``BufferSimulation.run``.
    Returns the measured ``(hits, misses, evictions)`` by relation
    index, the miss rate of every (transaction type, relation) pair, as
    ``MissRateReport.by_transaction`` keys them, and the misses behind
    those rates, as a kernel's ``tx_misses`` lays them out.
    """
    trace = TraceGenerator(config.trace)
    space = trace.page_id_space
    policy = make_policy(config.policy, config.buffer_pages)
    warmup = trace.encoded_batch(min_refs=config.effective_warmup)
    replay(policy, page_keys(space, warmup.refs))
    totals = (collections.Counter(), collections.Counter(), collections.Counter())
    tx_accesses = collections.Counter()
    tx_misses = collections.Counter()
    for _ in range(config.batches):
        batch = trace.encoded_batch(min_refs=config.batch_size)
        keys = page_keys(space, batch.refs)
        ends = np.cumsum(batch.tx_lengths).tolist()
        for tx, start, end in zip(batch.tx_indices.tolist(), [0] + ends, ends):
            counts = replay(policy, keys[start:end])
            for total, count in zip(totals, counts):
                total.update(count)
            hits, misses, _ = counts
            for relation in hits | misses:
                tx_accesses[tx, relation] += hits[relation] + misses[relation]
                tx_misses[tx, relation] += misses[relation]
    by_transaction = {
        (TRANSACTION_ORDER[tx].value, RELATION_NAMES[relation]): tx_misses[tx, relation]
        / count
        for (tx, relation), count in tx_accesses.items()
    }
    tx_miss_row = [0] * (len(TRANSACTION_ORDER) << TX_STRIDE_SHIFT)
    for (tx, relation), count in tx_misses.items():
        tx_miss_row[(tx << TX_STRIDE_SHIFT) + relation] = count
    return totals, by_transaction, tx_miss_row


def kernel_replay(config: SimulationConfig):
    """The run's trace through a bare kernel: the shared tally, unfolded."""
    trace = TraceGenerator(config.trace)
    kernel = make_kernel(
        config.policy,
        config.buffer_pages,
        trace.page_id_space,
        len(TRANSACTION_ORDER),
    )
    kernel.process_batch(trace.encoded_batch(min_refs=config.effective_warmup))
    kernel.reset_counters()
    for _ in range(config.batches):
        kernel.process_batch(trace.encoded_batch(min_refs=config.batch_size))
    return kernel


def run_with_evictions(config: SimulationConfig):
    """A run's report and its evictions per relation index.

    Evictions only exist as the ``sim.buffer.evictions_total`` counter
    the run folds.
    """
    with default_registry().collecting() as session:
        report = BufferSimulation(config).run()
    evictions = {
        RELATION_NAMES.index(sample["labels"]["relation"]): sample["value"]
        for entry in session.snapshot.series
        if entry["name"] == "sim.buffer.evictions_total"
        for sample in entry["samples"]
    }
    return report, evictions


def assert_matches_policy(config: SimulationConfig) -> None:
    """Integer accesses / misses / evictions per relation, and the
    per-transaction miss rates, equal the policy object's — in the
    report, and in a bare kernel's own counters."""
    report, evictions = run_with_evictions(config)
    (hits, misses, policy_evictions), by_transaction, tx_misses = policy_replay(config)
    measured = {
        RELATION_NAMES.index(name): (entry.accesses, entry.misses)
        for name, entry in report.relations.items()
    }
    assert measured == {
        relation: (hits[relation] + misses[relation], misses[relation])
        for relation in hits | misses
    }
    assert evictions == policy_evictions
    assert report.by_transaction == by_transaction
    kernel = kernel_replay(config)
    assert kernel.evictions_by_relation() == policy_evictions
    assert kernel.tx_misses == tx_misses


class TestPageIdSpace:
    def test_static_ids_contiguous(self):
        space = small_space()
        assert space.static_bases == (0, 7, 18, 31, 48)
        assert space.static_total == 67

    def test_roundtrip_static(self):
        space = small_space()
        for relation, pages in enumerate([7, 11, 13, 17, 19]):
            for page in range(pages):
                assert space.decode(space.encode(relation, page)) == (relation, page)

    def test_roundtrip_growing(self):
        space = small_space()
        for relation in range(N_STATIC_RELATIONS, len(RELATION_NAMES)):
            for page in (0, 1, 5, 1000):
                page_id = space.encode(relation, page)
                assert page_id >= space.static_total
                assert space.decode(page_id) == (relation, page)

    def test_growing_ids_interleave_densely(self):
        space = small_space()
        ids = sorted(
            space.encode(relation, page)
            for relation in range(N_STATIC_RELATIONS, len(RELATION_NAMES))
            for page in range(3)
        )
        expected = list(
            range(space.static_total, space.static_total + 3 * N_GROWING_RELATIONS)
        )
        assert ids == expected

    def test_ref_roundtrip(self):
        space = small_space()
        for relation, page, write in [(0, 3, False), (4, 18, True), (7, 42, True)]:
            ref = space.encode_ref(relation, page, write)
            assert space.decode_ref(ref) == (relation, page, write)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="static page counts"):
            PageIdSpace([1, 2, 3])

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            PageIdSpace([4, 4, 0, 4, 4])


class TestRegistry:
    def test_supported_policies(self):
        assert ARRAY_KERNEL_POLICIES == (
            "2q", "clock", "fifo", "lfu", "lru", "lru2", "lru3", "mru"
        )

    def test_make_kernel_types(self):
        space = small_space()
        assert isinstance(make_kernel("lru", 4, space, 5), LruArrayKernel)
        assert isinstance(make_kernel("fifo", 4, space, 5), FifoArrayKernel)
        assert isinstance(make_kernel("clock", 4, space, 5), ClockArrayKernel)
        assert isinstance(make_kernel("lfu", 4, space, 5), LfuArrayKernel)
        assert isinstance(make_kernel("2q", 4, space, 5), TwoQArrayKernel)
        assert isinstance(make_kernel("lru2", 4, space, 5), LruKArrayKernel)
        assert isinstance(make_kernel("lru3", 4, space, 5), LruKArrayKernel)
        assert isinstance(make_kernel("mru", 4, space, 5), MruArrayKernel)

    def test_make_kernel_unknown_policy(self):
        with pytest.raises(ValueError, match="no array kernel"):
            make_kernel("arc", 4, small_space(), 5)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            make_kernel("lru", 0, small_space(), 5)


class TestSlotTable:
    def test_grows_for_high_page_ids(self):
        space = small_space()
        kernel = make_kernel("lru", 4, space, 5)
        page_id = space.encode(N_STATIC_RELATIONS, 50_000)
        kernel.ensure_page_capacity(page_id)
        ref = space.encode_ref(N_STATIC_RELATIONS, 50_000, True)
        process_block(kernel, [ref], 0)
        assert resident_page_ids(kernel) == [page_id]

    def test_process_block_grows_without_presizing(self):
        space = small_space()
        kernel = make_kernel("fifo", 4, space, 5)
        ref = space.encode_ref(N_STATIC_RELATIONS + 1, 9_999, True)
        process_block(kernel, [ref], 0)
        assert len(kernel) == 1

    def test_counter_reset_keeps_residency(self):
        space = small_space()
        kernel = make_kernel("lru", 4, space, 5)
        process_block(kernel, [space.encode_ref(0, 1, False)], 0)
        assert kernel.batch_misses[0] == 1
        kernel.reset_counters()
        assert kernel.batch_misses[0] == 0
        assert kernel.tx_misses == [0] * len(kernel.tx_misses)
        assert len(kernel) == 1  # residency survives the reset

    def test_capacity_one(self):
        space = small_space()
        kernel = make_kernel("lru", 1, space, 5)
        a = space.encode_ref(0, 1, False)
        b = space.encode_ref(1, 2, False)
        process_block(kernel, [a, b, a], 0)
        assert kernel.batch_misses[0] == 2  # a missed twice (evicted by b)
        assert kernel.batch_misses[1] == 1
        assert kernel.evictions_by_relation() == {0: 1, 1: 1}
        assert len(kernel) == 1


class TestBoundedState:
    @pytest.mark.parametrize("policy", ARRAY_KERNEL_POLICIES)
    def test_no_structure_outgrows_the_pool(self, policy):
        """Hits must not accumulate state: after ``50 x capacity``
        references, mostly hits, everything a kernel holds is either a
        per-page table (bounded by the id space) or has at most
        ``capacity`` entries."""
        capacity = 100  # above the 80 per-transaction miss counters
        space = PageIdSpace([400] * N_STATIC_RELATIONS)
        kernel = make_kernel(policy, capacity, space, len(TRANSACTION_ORDER))
        rng = np.random.default_rng(17)
        n = 50 * capacity
        # Hits on a working set that fits, then a cold tail that makes
        # every policy evict (MRU gives up its hot pages as soon as
        # there is any pressure, so the pressure comes last).
        page_ids = np.concatenate(
            [
                rng.integers(0, 60, size=n - 2 * capacity),
                rng.integers(0, space.static_total, size=2 * capacity),
            ]
        )
        kernel.process_batch(
            EncodedBatch.of_refs(page_ids << REF_PID_SHIFT, space.static_total)
        )
        assert sum(kernel.batch_misses) <= 0.3 * n
        assert sum(kernel.eviction_counts) > 0
        per_page = len(kernel._relation)
        outgrown = {
            name: len(value)
            for name, value in vars(kernel).items()
            if hasattr(value, "__len__")
            and len(value) % per_page
            and len(value) > capacity
        }
        assert not outgrown


def mixed_page_stream(rng: np.random.Generator, pages: int, n: int) -> np.ndarray:
    """``n`` page ids below ``pages``: uniform, skewed and scan runs."""
    runs = []
    while sum(run.size for run in runs) < n:
        kind = int(rng.integers(0, 3))
        length = int(rng.integers(200, 3_000))
        if kind == 0:
            run = rng.integers(0, pages, size=length)
        elif kind == 1:
            hot = rng.permutation(pages)
            run = hot[(pages * rng.random(length) ** 3).astype(np.int64)]
        else:
            start = int(rng.integers(0, pages))
            run = (start + np.arange(length)) % pages
        runs.append(run)
    return np.concatenate(runs)[:n]


class TestLruRecencyOrder:
    """The LRU kernel's state is its residents in recency order."""

    @pytest.mark.parametrize(
        "capacity, pages", [(50, 100), (90, 360), (200, 500), (400, 1_200)]
    )
    def test_sliced_batches_keep_the_policy_order(self, capacity, pages):
        """Batches several slices long leave ``_res_ids`` in the order
        of ``LruPolicy``'s ordered dict, least recent first, with
        ``_slot`` its inverse plus one and 0 off the residents.  The
        order follows from the trace alone, so the misses and evictions
        are checked too: they are where a first touch of a resident is
        classified."""
        space = PageIdSpace([pages, 1, 1, 1, 1])  # relation 0 ids are pages
        kernel = make_kernel("lru", capacity, space, len(TRANSACTION_ORDER))
        policy = LruPolicy(capacity)
        rng = np.random.default_rng(capacity)
        policy_evictions = 0
        for _ in range(4):
            page_ids = mixed_page_stream(rng, pages, 20_000)
            kernel.begin_batch()
            kernel.process_batch(
                EncodedBatch.of_refs(page_ids << REF_PID_SHIFT, space.static_total)
            )
            _, misses, evictions = replay(
                policy, [(0, page) for page in page_ids.tolist()]
            )
            policy_evictions += evictions[0]
            assert kernel.batch_misses[0] == misses[0]
            assert kernel.eviction_counts[0] == policy_evictions
            order = kernel._res_ids
            assert order.tolist() == [page for _, page in policy._pages]
            expected_slot = np.zeros(kernel._slot.size, dtype=np.int64)
            expected_slot[order] = np.arange(1, order.size + 1)
            assert np.array_equal(kernel._slot, expected_slot)
            assert len(kernel) == order.size


class TestLruResidentFirstTouch:
    """A slice-start resident's first touch is a repeat across the slice
    start: it hits iff fewer than ``capacity`` distinct pages were
    touched since the page's place in the slice-start recency order."""

    @pytest.mark.parametrize("capacity", [1, 2, 3, 50])
    def test_one_slice_batches_keep_the_policy_order(self, capacity, monkeypatch):
        """Each batch is one slice: a run of fresh pages, the slice-start
        residents in a random order, then uniform references.  So a
        resident is often first touched after ``capacity`` other distinct
        pages (a certain miss), and often after fewer (a hit, or a miss
        when enough of the pages touched first were residents more
        recent than it).  After every batch the misses, the evictions,
        ``_res_ids`` and ``_slot`` equal ``LruPolicy``'s."""
        monkeypatch.setattr(kernels_module, "_LRU_SLICE_FLOOR", 4)
        monkeypatch.setattr(kernels_module, "_LRU_SLICE_CAPACITIES", 3)
        n = max(4, 3 * capacity)  # one slice per batch
        pages = 3 * capacity + 2
        space = PageIdSpace([pages, 1, 1, 1, 1])  # relation 0 ids are pages
        kernel = make_kernel("lru", capacity, space, len(TRANSACTION_ORDER))
        policy = LruPolicy(capacity)
        rng = np.random.default_rng(capacity)
        policy_evictions = 0
        # (touched after >= capacity distinct pages, hit) per resident
        # first touch, as the policy saw it.
        outcomes = collections.Counter()
        for _ in range(max(40, 600 // capacity)):
            residents = [page for _, page in policy._pages]
            fresh = rng.permutation(np.setdiff1d(np.arange(pages), residents))
            lead = fresh[: int(rng.integers(0, 2 * capacity + 2))]
            page_ids = np.concatenate(
                [lead, rng.permutation(residents), rng.integers(0, pages, n)]
            )[:n].astype(np.int64)
            first_touched, misses = set(), 0
            for page in page_ids.tolist():
                hit = policy.contains((0, page))
                if page in residents and page not in first_touched:
                    outcomes[len(first_touched) >= capacity, hit] += 1
                first_touched.add(page)
                if hit:
                    policy.touch((0, page))
                else:
                    misses += 1
                    policy_evictions += policy.admit((0, page)) is not None
            kernel.begin_batch()
            kernel.process_batch(
                EncodedBatch.of_refs(page_ids << REF_PID_SHIFT, space.static_total)
            )
            assert kernel.batch_misses[0] == misses
            assert kernel.eviction_counts[0] == policy_evictions
            order = kernel._res_ids
            assert order.tolist() == [page for _, page in policy._pages]
            expected_slot = np.zeros(kernel._slot.size, dtype=np.int64)
            expected_slot[order] = np.arange(1, order.size + 1)
            assert np.array_equal(kernel._slot, expected_slot)
        assert outcomes[True, True] == 0
        assert outcomes[True, False] > 0 and outcomes[False, True] > 0
        if capacity > 1:  # misses that only the recency order explains
            assert outcomes[False, False] > 0


class TestAdmissionFifo:
    """LFU and LRU-K keep their first-class residents in ``_young``."""

    @pytest.mark.parametrize("policy", ["lfu", "lru2", "lru3"])
    @pytest.mark.parametrize("capacity, pages", [(50, 100), (90, 360), (200, 500)])
    def test_queue_holds_every_first_class_resident_in_admission_order(
        self, policy, capacity, pages
    ):
        """After every batch: the queued ids are distinct residents, the
        first-class ones among them are every first-class resident in
        admission order, and the heap holds one entry per promoted
        resident; neither structure outgrows the pool."""
        space = PageIdSpace([pages, 1, 1, 1, 1])  # relation 0 ids are pages
        kernel = make_kernel(policy, capacity, space, len(TRANSACTION_ORDER))
        if policy == "lfu":
            key_of = kernel._key_of
            resident = key_of.__getitem__

            def admission(page):
                # On count 1 the last touch is the admission.
                return key_of[page] & _TICK_MASK

            def first_class(page):
                return key_of[page] >> _TICK_BITS == 1
        else:
            k, seen, times = kernel.k, kernel._seen, kernel._times
            resident = seen.__getitem__

            def admission(page):
                return times[page * k]

            def first_class(page):
                return seen[page] < k

        rng = np.random.default_rng(capacity)
        for _ in range(6):
            page_ids = mixed_page_stream(rng, pages, 10_000)
            kernel.process_batch(
                EncodedBatch.of_refs(page_ids << REF_PID_SHIFT, space.static_total)
            )
            residents = [page for page in range(pages) if resident(page)]
            young = list(kernel._young)
            assert len(set(young)) == len(young) <= capacity
            assert set(young) <= set(residents)
            assert [page for page in young if first_class(page)] == sorted(
                (page for page in residents if first_class(page)), key=admission
            )
            promoted = sorted(page for page in residents if not first_class(page))
            assert sorted(entry & _PAGE_MASK for entry in kernel._heap) == promoted
            assert len(kernel) == len(residents)


class TestBlockCountLt:
    """``_block_count_lt`` against a brute-force dominance count."""

    @staticmethod
    def check(ranks, q_index, q_rank):
        by_rank = np.empty_like(ranks)
        by_rank[ranks] = np.arange(ranks.size)
        q_index = np.asarray(q_index, dtype=np.int64)
        q_rank = np.asarray(q_rank, dtype=np.int64)
        below = np.arange(ranks.size)[None, :] < q_index[:, None]
        below &= ranks[None, :] < q_rank[:, None]
        counts = _block_count_lt(ranks, by_rank, q_index, q_rank)
        assert counts.tolist() == np.count_nonzero(below, axis=1).tolist()

    @pytest.mark.parametrize(
        "m", [1, 2, 15, 16, 17, 31, 64, 100, 257, 1_000, 2_048, 2_999, 3_000]
    )
    def test_every_index_and_rank_edge(self, m):
        """One query per index value and one per rank value, each
        paired with a random other coordinate, plus the four corners:
        every block edge the counter can pick is queried."""
        rng = np.random.default_rng(m)
        ranks = rng.permutation(m).astype(np.int64)
        sweep = np.arange(m + 1)
        self.check(
            ranks,
            np.concatenate([sweep, rng.integers(0, m + 1, m + 1), [0, 0, m, m]]),
            np.concatenate([rng.integers(0, m + 1, m + 1), sweep, [0, m, 0, m]]),
        )

    @pytest.mark.parametrize("m", [40, 500, 3_000])
    def test_few_queries_on_wide_blocks(self, m):
        """Few queries make wide blocks; query on their edges and
        either side of them, and at both ends of each axis."""
        rng = np.random.default_rng(m + 1)
        ranks = rng.permutation(m).astype(np.int64)
        for queries in (1, 3, 8):
            # The width ``_block_count_lt`` picks for this many queries.
            block = max(16, min(int((m * m / queries) ** (1 / 3)), m))
            edges = np.arange(0, m + 1, block)
            near = np.clip(np.concatenate([edges - 1, edges, edges + 1, [m]]), 0, m)
            q_index = rng.choice(near, queries)
            q_rank = rng.choice(near, queries)
            q_index[0], q_rank[-1] = rng.choice([0, m]), rng.choice([0, m])
            self.check(ranks, q_index, q_rank)

    def test_random_sizes(self):
        rng = np.random.default_rng(2024)
        for m in rng.integers(1, 3_001, 12).tolist():
            ranks = rng.permutation(m).astype(np.int64)
            queries = int(rng.integers(1, 400))
            self.check(
                ranks,
                rng.integers(0, m + 1, queries),
                rng.integers(0, m + 1, queries),
            )


class TestGridCountBounds:
    """``_grid_count_bounds`` against a brute-force dominance count."""

    @pytest.mark.parametrize(
        "m", [1, 2, 63, 64, 65, 127, 128, 129, 1_000, 4_095, 4_097]
    )
    def test_bounds_hold_on_every_cell_edge(self, m):
        """Queries on every cell edge and either side of it, on each axis,
        paired with random other coordinates, plus the four corners.
        ``low <= count <= high`` for all of them, so every query the
        grid settles — ``low >= need`` a miss, ``high < need`` a hit —
        agrees with the brute-force count.  The bounds are never wider
        than the two strips of cells a query's corner reaches into, and
        with cells one point wide (``m <= _GRID``) they are exact."""
        rng = np.random.default_rng(m)
        ranks = rng.permutation(m).astype(np.int64)
        width = -(-m // _GRID)
        edges = np.arange(0, m + 1, width)
        near = np.clip(np.concatenate([edges - 1, edges, edges + 1, [m]]), 0, m)
        other = rng.integers(0, m + 1, near.size)
        q_index = np.concatenate([near, other, [0, 0, m, m]])
        q_rank = np.concatenate([other, near, [0, m, 0, m]])
        below = np.arange(m)[None, :] < q_index[:, None]
        below &= ranks[None, :] < q_rank[:, None]
        counts = np.count_nonzero(below, axis=1)
        low, high = _grid_count_bounds(ranks, q_index, q_rank)
        assert np.all(low <= counts) and np.all(counts <= high)
        assert np.all(high - low <= 2 * width)
        if m <= _GRID:
            assert np.array_equal(low, high)


class TestKernelSelection:
    def test_invalid_kernel_name(self):
        """There is one back end: ``kernel`` is not a config field."""
        for kernel in ("auto", "array", "object", "vectorized"):
            with pytest.raises(TypeError):
                quick_config(kernel=kernel)

    def test_array_kernel_requires_supported_policy(self):
        """A policy without a kernel fails at construction, not in a
        worker; names are exact (``"LRU"`` used to pick the object pool)."""
        for policy in ("arc", "LRU"):
            with pytest.raises(ValueError, match="no array kernel.*'lru'"):
                quick_config(policy=policy)
        for policy in ARRAY_KERNEL_POLICIES:
            assert quick_config(policy=policy).policy == policy


class TestReportParity:
    """``BufferSimulation`` against a replay through the policy objects."""

    @pytest.mark.parametrize("policy", ARRAY_KERNEL_POLICIES)
    def test_array_matches_object(self, policy):
        assert_matches_policy(quick_config(policy=policy))

    def test_parity_across_packings_and_seeds(self):
        for packing, seed in [("sequential", 3), ("optimized", 21), ("random", 8)]:
            assert_matches_policy(
                quick_config(
                    trace=TraceConfig(warehouses=2, seed=seed, packing=packing)
                )
            )

    def test_eviction_counters_match(self):
        """The obs eviction tallies are those of the policy object."""
        _, evictions = run_with_evictions(quick_config())
        assert evictions and evictions == policy_replay(quick_config())[0][2]


class TestIncrementalPrecision:
    def test_incremental_equals_fresh_run(self):
        """run_until_precise's incremental batches match a fresh full run.

        The loose precision target forces at least one doubling beyond
        the configured batch count, so the test exercises the
        keep-state-and-extend path, then replays the final batch count
        from scratch and demands bit-identical reports.
        """
        config = quick_config(batches=2, batch_size=4_000)
        incremental = BufferSimulation(config).run_until_precise(
            relative_half_width=0.001,
            relations=("customer",),
            max_batches=8,
        )
        batches_run = incremental.config.batches
        assert batches_run > config.batches  # the doubling path actually ran
        fresh = BufferSimulation(config.replace(batches=batches_run)).run()
        assert incremental == fresh


class TestHighestPageId:
    def test_tracks_growing_relations(self):
        config = TraceConfig(warehouses=1, seed=5)
        trace = TraceGenerator(config)
        space = trace.page_id_space
        before = trace.highest_page_id()
        assert before >= space.static_total
        seen = before
        batch = trace.encoded_batch(transactions=400)
        seen = max(seen, int(batch.refs.max()) >> 5)
        assert trace.highest_page_id() >= seen
        assert batch.highest_page_id >= seen

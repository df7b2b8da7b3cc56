"""Property-based parity between array kernels and object policies.

The array kernels' contract is *exact* parity with the reference object
policies: for any reference stream, every reference must produce the
same hit/miss outcome and — when a miss evicts — the same victim page.
These tests drive random short streams through both implementations in
lock-step and compare reference by reference, plus the final residency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.kernels import ARRAY_KERNEL_POLICIES, make_kernel
from repro.workload.trace import (
    N_STATIC_RELATIONS,
    RELATION_NAMES,
    PageIdSpace,
    REF_PID_SHIFT,
)

from ..buffer.kernel_probe import process_block, resident_page_ids
from ..buffer.policy_oracle import make_policy

#: Every relation accepts pages 0..11 under this static geometry, so
#: the stream strategy does not need per-relation page bounds.
STATIC_PAGES = [12] * N_STATIC_RELATIONS

references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(RELATION_NAMES) - 1),
        st.integers(min_value=0, max_value=11),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


@given(
    st.sampled_from(ARRAY_KERNEL_POLICIES),
    st.integers(min_value=1, max_value=8),
    references,
)
@settings(max_examples=150, deadline=None)
def test_lockstep_parity(policy_name, capacity, stream):
    """Same hits, same misses, same victims, same final residency."""
    space = PageIdSpace(STATIC_PAGES)
    kernel = make_kernel(policy_name, capacity, space, len(RELATION_NAMES))
    policy = make_policy(policy_name, capacity)

    resident_before = set(resident_page_ids(kernel))
    for step, (relation, page, write) in enumerate(stream):
        ref = space.encode_ref(relation, page, write)
        page_id = ref >> REF_PID_SHIFT

        misses_before = sum(kernel.batch_misses)
        process_block(kernel, [ref], 0)
        kernel_missed = sum(kernel.batch_misses) > misses_before
        resident_after = set(resident_page_ids(kernel))
        kernel_victims = resident_before - resident_after

        key = (relation, page)
        if policy.contains(key):
            policy_victim = policy.touch(key)
            policy_missed = False
        else:
            policy_victim = policy.admit(key)
            policy_missed = True

        assert kernel_missed == policy_missed, (
            f"step {step}: kernel {'miss' if kernel_missed else 'hit'} but "
            f"policy {'miss' if policy_missed else 'hit'} on {key}"
        )
        if policy_victim is None:
            assert kernel_victims == set(), f"step {step}: phantom eviction"
        else:
            assert kernel_victims == {space.encode(*policy_victim)}, (
                f"step {step}: victim mismatch for {key}"
            )
        assert page_id in resident_after, f"step {step}: {key} not admitted"
        assert len(kernel) == len(policy)
        resident_before = resident_after

    assert resident_before == {
        space.encode(relation, page) for relation, page in _policy_residents(policy)
    }


@given(
    st.sampled_from(("lru", "mru", "fifo", "lfu", "2q", "lru2", "lru3")),
    st.integers(min_value=1, max_value=8),
    references,
)
@settings(max_examples=80, deadline=None)
def test_eviction_order_parity(policy_name, capacity, stream):
    """Residency *order* (victims first) matches, not just the set."""
    space = PageIdSpace(STATIC_PAGES)
    kernel = make_kernel(policy_name, capacity, space, len(RELATION_NAMES))
    policy = make_policy(policy_name, capacity)

    for relation, page, write in stream:
        process_block(kernel, [space.encode_ref(relation, page, write)], 0)
        key = (relation, page)
        if policy.contains(key):
            policy.touch(key)
        else:
            policy.admit(key)

    expected = [space.encode(*key) for key in _policy_eviction_order(policy)]
    assert resident_page_ids(kernel) == expected


def _policy_residents(policy):
    if hasattr(policy, "_pages"):  # LRU
        return list(policy._pages)
    if hasattr(policy, "_stack"):  # MRU
        return list(policy._stack)
    if hasattr(policy, "_probation"):  # 2Q
        return list(policy._probation) + list(policy._main)
    if hasattr(policy, "_counts"):  # LFU
        return list(policy._counts)
    if hasattr(policy, "_history"):  # LRU-K
        return list(policy._history)
    if hasattr(policy, "_resident"):  # FIFO
        return list(policy._resident)
    return list(policy._frame_of)  # CLOCK


def _policy_eviction_order(policy):
    """Resident keys, next-victim first (CLOCK has no defined order)."""
    if hasattr(policy, "_pages"):  # LRU: OrderedDict is LRU -> MRU
        return list(policy._pages)
    if hasattr(policy, "_stack"):  # MRU: newest evicts first
        return list(reversed(policy._stack))
    if hasattr(policy, "_probation"):  # 2Q: each queue's victim order
        return list(policy._probation) + list(policy._main)
    if hasattr(policy, "_counts"):  # LFU: replay the lazy heap
        import heapq

        heap = list(policy._heap)
        counts = dict(policy._counts)
        order = []
        while heap:
            count, _, page = heapq.heappop(heap)
            if counts.get(page) == count:
                del counts[page]
                order.append(page)
        return order
    if hasattr(policy, "_history"):  # LRU-K: replay the lazy heap
        import heapq

        heap = list(policy._heap)
        history = dict(policy._history)
        order = []
        while heap:
            key, _, page = heapq.heappop(heap)
            entry = history.get(page)
            if entry is not None and policy._kth_recent(entry) == key:
                del history[page]
                order.append(page)
        return order
    return list(policy._queue)  # FIFO: deque is oldest -> newest

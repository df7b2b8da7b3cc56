"""The heap-free / re-key-on-pop kernels against a brute-force oracle.

``test_kernel_parity`` compares the kernels with the object policies,
which find their victims through a push-on-every-touch lazy heap.  The
oracle here shares nothing with either: it keeps every reference
position of every resident page and, on a full-pool miss, takes the
``min`` over all residents of the *documented* priority —

* LFU: ``(references this residency, last reference)``;
* LRU-K: the K-th most recent reference, or the first one minus
  ``2**60`` while the page has fewer than K;
* MRU: the last reference, largest first.

Positions are unique, so the order is total and the victim, and the
whole victims-first residency order, are determined.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.buffer.kernels import make_kernel
from repro.workload.trace import N_STATIC_RELATIONS, PageIdSpace

from ..buffer.kernel_probe import process_block, resident_page_ids


def _lru_k(k):
    return lambda ticks: ticks[-k] if len(ticks) >= k else ticks[0] - (1 << 60)


#: Policy name -> priority of a resident page from its reference
#: positions this residency (oldest first); the minimum is the victim.
PRIORITIES = {
    "lfu": lambda ticks: (len(ticks), ticks[-1]),
    "lru2": _lru_k(2),
    "lru3": _lru_k(3),
    "mru": lambda ticks: -ticks[-1],
}

PAGES = 12
SPACE = PageIdSpace([PAGES] * N_STATIC_RELATIONS)


@given(
    st.sampled_from(sorted(PRIORITIES)),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=3 * PAGES - 1), min_size=1, max_size=200),
)
@settings(max_examples=200, deadline=None)
# Every resident promoted (one re-referenced again), then a cold miss:
# the victim can only come from the re-key heap.
@example("lfu", 3, [0, 0, 1, 1, 2, 2, 0, 3])
@example("lru2", 3, [0, 0, 1, 1, 2, 2, 0, 3])
@example("lru3", 3, [0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 3])
# A page promoted, evicted from the heap, re-admitted and promoted
# again; the heap then chooses between it and an older promotion.
@example("lfu", 2, [0, 0, 1, 1, 2, 0, 0, 3, 1])
@example("lru2", 2, [0, 0, 1, 1, 2, 0, 0, 3, 1])
@example("lru3", 2, [0, 0, 0, 1, 1, 1, 2, 0, 0, 0, 3, 1])
def test_lockstep_against_brute_force(policy, capacity, stream):
    """Same hits, same victims, same victims-first order, every step."""
    priority = PRIORITIES[policy]
    kernel = make_kernel(policy, capacity, SPACE, 1)
    residents: dict[int, list[int]] = {}
    for tick, flat in enumerate(stream, 1):
        relation, page = divmod(flat, PAGES)
        page_id = SPACE.encode(relation, page)
        evicted_before = sum(kernel.eviction_counts)
        missed_before = sum(kernel.batch_misses)
        process_block(kernel, [SPACE.encode_ref(relation, page, False)], 0)

        victim = None
        if page_id in residents:
            residents[page_id].append(tick)
        else:
            if len(residents) == capacity:
                victim = min(residents, key=lambda p: priority(residents[p]))
                del residents[victim]
            residents[page_id] = [tick]

        context = (policy, tick, page_id)
        missed = sum(kernel.batch_misses) - missed_before
        assert missed == (len(residents[page_id]) == 1), context
        assert sum(kernel.eviction_counts) - evicted_before == (victim is not None), context
        assert resident_page_ids(kernel) == sorted(
            residents, key=lambda p: priority(residents[p])
        ), context
        assert len(kernel) == len(residents), context

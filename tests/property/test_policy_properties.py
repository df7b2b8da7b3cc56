"""Property-based tests for replacement policies.

The central invariants: residency never exceeds capacity, a page is
resident iff admitted and not since evicted/removed, and the policy
answers `contains` consistently with the victims it reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ..buffer.policy_oracle import make_policy

POLICY_NAMES = ["lru", "fifo", "clock", "lfu", "2q", "lru2"]

#: An operation stream: page numbers to reference in order.
reference_strings = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=300
)


class TestResidencyInvariant:
    @given(
        st.sampled_from(POLICY_NAMES),
        st.integers(min_value=1, max_value=12),
        reference_strings,
    )
    @settings(max_examples=120, deadline=None)
    def test_shadow_model(self, name, capacity, references):
        """Track residency externally; the policy must agree."""
        policy = make_policy(name, capacity)
        resident: set[int] = set()
        for page in references:
            assert policy.contains(page) == (page in resident)
            if page in resident:
                victim = policy.touch(page)
                if victim is not None:  # 2Q promotion overflow
                    resident.discard(victim)
            else:
                victim = policy.admit(page)
                resident.add(page)
                if victim is not None:
                    assert victim in resident
                    resident.discard(victim)
            assert len(policy) == len(resident)
            assert len(resident) <= capacity

    @given(st.sampled_from(POLICY_NAMES), reference_strings)
    @settings(max_examples=60, deadline=None)
    def test_capacity_one(self, name, references):
        """Degenerate single-frame pools still work."""
        policy = make_policy(name, 1)
        for page in references:
            if policy.contains(page):
                policy.touch(page)
            else:
                policy.admit(page)
            assert len(policy) <= 1

    @given(
        st.sampled_from(POLICY_NAMES),
        st.integers(min_value=2, max_value=10),
        reference_strings,
    )
    @settings(max_examples=60, deadline=None)
    def test_remove_random_pages(self, name, capacity, references):
        """Interleave removals; residency stays consistent."""
        policy = make_policy(name, capacity)
        resident: set[int] = set()
        for index, page in enumerate(references):
            if policy.contains(page):
                if index % 3 == 0:
                    policy.remove(page)
                    resident.discard(page)
                else:
                    victim = policy.touch(page)
                    if victim is not None:
                        resident.discard(victim)
            else:
                victim = policy.admit(page)
                resident.add(page)
                if victim is not None:
                    resident.discard(victim)
            assert len(policy) == len(resident)


class TestLruSpecification:
    @given(reference_strings, st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_implementation(self, references, capacity):
        """LRU must evict exactly the least-recently-used page."""
        policy = make_policy("lru", capacity)
        order: list[int] = []  # least recent first
        for page in references:
            if policy.contains(page):
                policy.touch(page)
                order.remove(page)
                order.append(page)
            else:
                victim = policy.admit(page)
                if len(order) >= capacity:
                    expected = order.pop(0)
                    assert victim == expected
                else:
                    assert victim is None
                order.append(page)


class TestInclusionProperty:
    @given(reference_strings)
    @settings(max_examples=50, deadline=None)
    def test_lru_stack_property(self, references):
        """LRU is a stack algorithm: a bigger cache contains the smaller.

        This is the property behind 'miss rate decreases with buffer
        size' in Figure 8.
        """
        small = make_policy("lru", 4)
        large = make_policy("lru", 8)
        for page in references:
            for policy in (small, large):
                if policy.contains(page):
                    policy.touch(page)
                else:
                    policy.admit(page)
            for page_in_small in list(references):
                if small.contains(page_in_small):
                    assert large.contains(page_in_small)

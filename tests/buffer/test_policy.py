"""Unit tests for the replacement-policy oracle (``policy_oracle``)."""

import pytest

from .policy_oracle import (
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    TwoQPolicy,
    make_policy,
)

ALL_POLICIES = ["lru", "fifo", "clock", "lfu", "2q", "lru2", "lru3"]


class TestFactory:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_known_names(self, name):
        policy = make_policy(name, 8)
        assert policy.capacity == 8

    def test_case_insensitive(self):
        assert isinstance(make_policy("LRU", 4), LruPolicy)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("arc", 4)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LruPolicy(0)


class TestGenericContract:
    """Behaviour every policy must share."""

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_fills_then_stays_at_capacity(self, name):
        policy = make_policy(name, 4)
        evictions = 0
        for page in range(10):
            victim = policy.admit(page)
            evictions += victim is not None
            assert len(policy) <= 4
        assert evictions >= 10 - 4 - (1 if name == "2q" else 0)

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_admit_resident_rejected(self, name):
        policy = make_policy(name, 4)
        policy.admit("a")
        with pytest.raises(ValueError, match="resident"):
            policy.admit("a")

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_contains_and_dunder(self, name):
        policy = make_policy(name, 4)
        policy.admit("x")
        assert policy.contains("x")
        assert "x" in policy
        assert "y" not in policy

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_remove_forgets_page(self, name):
        policy = make_policy(name, 4)
        policy.admit("x")
        policy.remove("x")
        assert "x" not in policy
        policy.admit("x")  # re-admission works after removal

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_victim_is_previously_resident(self, name):
        policy = make_policy(name, 3)
        admitted = set()
        for page in range(20):
            victim = policy.admit(page)
            admitted.add(page)
            if victim is not None:
                assert victim in admitted
                assert victim not in policy


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy(3)
        for page in "abc":
            policy.admit(page)
        policy.touch("a")  # order now: b, c, a
        assert policy.admit("d") == "b"

    def test_touch_refreshes(self):
        policy = LruPolicy(2)
        policy.admit("a")
        policy.admit("b")
        policy.touch("a")
        assert policy.admit("c") == "b"


class TestFifo:
    def test_hits_do_not_save_pages(self):
        policy = FifoPolicy(2)
        policy.admit("a")
        policy.admit("b")
        policy.touch("a")
        assert policy.admit("c") == "a"


class TestClock:
    def test_second_chance(self):
        policy = ClockPolicy(3)
        for page in "abc":
            policy.admit(page)
        policy.touch("a")  # a gets a reference bit
        assert policy.admit("d") == "b"

    def test_all_referenced_degenerates_to_fifo(self):
        policy = ClockPolicy(3)
        for page in "abc":
            policy.admit(page)
        for page in "abc":
            policy.touch(page)
        assert policy.admit("d") == "a"

    def test_remove_then_fill(self):
        policy = ClockPolicy(3)
        for page in "abc":
            policy.admit(page)
        policy.remove("b")
        policy.admit("d")  # reuses the freed frame
        assert len(policy) == 3
        victim = policy.admit("e")
        assert victim in {"a", "c", "d"}


class TestLfu:
    def test_evicts_least_frequent(self):
        policy = LfuPolicy(3)
        for page in "abc":
            policy.admit(page)
        policy.touch("a")
        policy.touch("a")
        policy.touch("b")
        assert policy.admit("d") == "c"

    def test_stale_heap_entries_skipped(self):
        policy = LfuPolicy(2)
        policy.admit("a")
        policy.admit("b")
        policy.touch("a")  # heap holds stale (1, a)
        policy.touch("b")
        policy.touch("b")
        assert policy.admit("c") == "a"


class TestTwoQ:
    def test_single_touch_pages_flow_through_probation(self):
        policy = TwoQPolicy(8)  # probation 2, main 6
        policy.admit("scan1")
        policy.admit("scan2")
        policy.admit("scan3")  # evicts scan1 from probation
        assert "scan1" not in policy

    def test_second_touch_promotes(self):
        policy = TwoQPolicy(8)
        policy.admit("hot")
        policy.touch("hot")  # promoted to main
        policy.admit("a")
        policy.admit("b")
        policy.admit("c")
        assert "hot" in policy  # survived probation churn

    def test_promotion_overflow_returns_victim(self):
        policy = TwoQPolicy(4, probation_fraction=0.5)  # probation 2, main 2
        policy.admit("a")
        policy.touch("a")
        policy.admit("b")
        policy.touch("b")
        policy.admit("c")
        victim = policy.touch("c")  # main full: promoting c evicts a
        assert victim == "a"

    def test_invalid_probation_fraction(self):
        with pytest.raises(ValueError, match="probation_fraction"):
            TwoQPolicy(8, probation_fraction=1.5)


class TestLruK:
    def test_single_reference_pages_evicted_first(self):
        from .policy_oracle import LruKPolicy

        policy = LruKPolicy(3, k=2)
        policy.admit("hot")
        policy.touch("hot")  # two references: protected
        policy.admit("scan1")
        policy.admit("scan2")
        victim = policy.admit("scan3")
        assert victim == "scan1"  # oldest single-reference page
        assert "hot" in policy

    def test_kth_reference_age_decides_among_hot_pages(self):
        from .policy_oracle import LruKPolicy

        policy = LruKPolicy(2, k=2)
        policy.admit("a")   # refs of a: t1
        policy.touch("a")   # refs of a: t1, t2
        policy.admit("b")   # refs of b: t3
        policy.touch("b")   # refs of b: t3, t4
        policy.touch("a")   # refs of a: t2, t5
        # LRU-2 compares 2nd-most-recent times: a's is t2 < b's t3, so
        # a is evicted even though it was touched most recently — the
        # defining difference from plain LRU.
        assert policy.admit("c") == "a"

    def test_invalid_k(self):
        from .policy_oracle import LruKPolicy

        import pytest

        with pytest.raises(ValueError, match="k must"):
            LruKPolicy(4, k=0)

    def test_scan_resistance_beats_lru(self):
        """LRU-2 keeps a doubly-touched hot set through one-shot scans."""
        hot_pages = list(range(15))

        def run(policy):
            hits = 0
            accesses = 0
            scan_page = 10_000
            for _ in range(200):
                for page in hot_pages:
                    for _ in range(2):
                        accesses += 1
                        if policy.contains(page):
                            policy.touch(page)
                            hits += 1
                        else:
                            policy.admit(page)
                for _ in range(25):
                    scan_page += 1
                    accesses += 1
                    policy.admit(scan_page)
            return hits / accesses

        assert run(make_policy("lru2", 30)) > run(make_policy("lru", 30))


class TestScanResistance:
    def test_2q_beats_lru_on_scan_mixed_workload(self):
        """A scan-heavy mix should hurt LRU more than 2Q.

        Hot pages are touched twice in quick succession (so 2Q promotes
        them to the main queue) and a one-time scan churns through
        between rounds; LRU lets the scan flush the hot set, 2Q's
        probation queue absorbs it.
        """
        hot_pages = list(range(20))
        capacity = 40

        def run(policy):
            hits = 0
            scan_page = 1000
            accesses = 0
            for _ in range(300):
                for page in hot_pages:
                    for _ in range(2):  # double touch -> promotion in 2Q
                        accesses += 1
                        if policy.contains(page):
                            policy.touch(page)
                            hits += 1
                        else:
                            policy.admit(page)
                for _ in range(30):  # one-time scan pages
                    scan_page += 1
                    accesses += 1
                    policy.admit(scan_page)
            return hits / accesses

        lru_hits = run(make_policy("lru", capacity))
        twoq_hits = run(make_policy("2q", capacity))
        assert twoq_hits > lru_hits

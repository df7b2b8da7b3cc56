"""Unit tests for blocking-mode lock waits and deadlock resolution.

Most cases drive the LockManager's park/wake protocol by hand — the
calls the virtual scheduler makes when a statement blocks, when a
holder releases, and when a wait's budget runs out.  The final class
stages genuine AB/BA deadlocks between terminals under
``run_benchmark`` and checks each resolves with exactly one victim.
"""

import json

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.engine.errors import DeadlockError, LockConflictError
from repro.engine.locks import LockManager, LockMode, LockWait
from repro.tpcc import TpccConfig
from repro.tpcc.executor import RetryPolicy


@pytest.fixture
def locks():
    return LockManager(default_timeout=1.0)


def blocked(locks, txn_id, resource):
    """Request X on ``resource`` and park the resulting wait, as the scheduler does."""
    with pytest.raises(LockWait):
        locks.acquire(txn_id, resource, LockMode.EXCLUSIVE)
    return locks.park(txn_id, resource)


class TestBlockingWaits:
    def test_wait_until_holder_releases(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert blocked(locks, 2, "r") is None
        locks.release_all(1)
        assert locks.woken == [2]
        locks.acquire(2, "r", LockMode.EXCLUSIVE)
        assert locks.mode_held(2, "r") is LockMode.EXCLUSIVE
        stats = locks.contention()
        assert stats["waits"] == 1 and stats["timeouts"] == 0

    def test_timeout_when_holder_never_releases(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockWait) as raised:
            locks.acquire(2, "r", LockMode.EXCLUSIVE)
        locks.park(2, "r")
        error = locks.time_out(raised.value)
        assert isinstance(error, LockConflictError)
        assert "timed out after 1.0s" in str(error)
        assert locks.contention()["timeouts"] == 1
        # The waiter left the waits-for graph, and no release wakes it.
        assert locks.waits_for() == {}
        locks.release_all(1)
        assert locks.woken == []

    def test_zero_timeout_is_no_wait(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError) as raised:
            locks.acquire(2, "r", LockMode.EXCLUSIVE)
        assert not isinstance(raised.value, LockWait)
        assert locks.contention()["waits"] == 0

    def test_waits_for_graph_shape(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        blocked(locks, 2, "r")
        assert locks.waits_for() == {2: {1}}
        locks.release_all(1)
        assert locks.waits_for() == {}

    def test_waiters_woken_in_park_order(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        locks.acquire(1, "s", LockMode.EXCLUSIVE)
        for waiter, resource in ((5, "s"), (3, "r"), (4, "s")):
            blocked(locks, waiter, resource)
        locks.release_all(1)
        assert locks.woken == [5, 3, 4]


class TestDeadlockResolution:
    def _stage_cycle(self, locks):
        """txn 1 holds a, txn 2 holds b, and 1 already waits for b."""
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.EXCLUSIVE)
        assert blocked(locks, 1, "b") is None

    def test_waiter_victimized_when_it_closes_the_cycle(self, locks):
        self._stage_cycle(locks)
        # txn 2 arrives on a and closes the cycle; with policy=youngest
        # txn 2 dies, at park time.
        victim, error = blocked(locks, 2, "a")
        assert victim == 2
        assert isinstance(error, DeadlockError)
        assert "waits-for cycle" in str(error)
        assert locks.waits_for() == {1: {2}}  # the victim waits no longer
        stats = locks.contention()
        assert stats["deadlocks"] == 1 and stats["victims"] == 1
        assert stats["wait_chain_max"] == 2
        assert stats["timeouts"] == 0

    def test_oldest_policy_dooms_the_other_side(self):
        locks = LockManager(default_timeout=1.0, victim_policy="oldest")
        self._stage_cycle(locks)
        # txn 2 closes the cycle; the *other* (oldest) member is doomed,
        # so txn 2 keeps waiting and wins once 1's abort releases a.
        victim, _error = blocked(locks, 2, "a")
        assert victim == 1
        assert locks.waits_for() == {2: {1}}
        locks.release_all(1)
        assert locks.woken == [2]
        locks.acquire(2, "a", LockMode.EXCLUSIVE)
        stats = locks.contention()
        assert stats["deadlocks"] == 1 and stats["victims"] == 1

    def test_fewest_locks_picks_smallest_footprint(self):
        locks = LockManager(default_timeout=1.0, victim_policy="fewest_locks")
        # txn 1 has the bigger footprint (a + extra), txn 2 just b.
        locks.acquire(1, "extra", LockMode.EXCLUSIVE)
        self._stage_cycle(locks)
        victim, _error = blocked(locks, 2, "a")
        assert victim == 2

    def test_cycle_not_recounted_while_victim_pending(self, locks):
        """The victim leaves the graph at once: no second detection, no second victim."""
        self._stage_cycle(locks)
        victim, _error = blocked(locks, 2, "a")
        # The victim still holds b until its abort runs; a third waiter
        # on b sees no cycle.
        assert blocked(locks, 3, "b") is None
        after = locks.contention()
        assert after["deadlocks"] == 1 and after["victims"] == 1
        locks.release_all(victim)
        assert locks.woken == [1, 3]

    def test_injected_deadlock_counts(self):
        from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule

        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.DEADLOCK, every=1),), seed=7
        )
        locks = LockManager(injector=FaultInjector(plan))
        with pytest.raises(DeadlockError):
            locks.acquire(1, "r", LockMode.EXCLUSIVE)
        stats = locks.contention()
        assert stats["deadlocks"] == 1 and stats["victims"] == 1


class TestCounterContinuity:
    def test_adopt_counters(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        blocked(locks, 2, "r")
        replacement = LockManager()
        replacement.adopt_counters(locks)
        assert replacement.contention() == locks.contention()
        assert replacement.locks_held(1) == 0  # locks themselves are volatile
        assert replacement.waits_for() == {}  # and so are waits

    def test_counters_monotone_through_mixed_traffic(self, locks):
        snapshots = [locks.contention()]
        locks.acquire(1, "r", LockMode.SHARED)
        snapshots.append(locks.contention())
        blocked(locks, 2, "r")
        snapshots.append(locks.contention())
        locks.release_all(1)
        locks.acquire(2, "r", LockMode.EXCLUSIVE)
        snapshots.append(locks.contention())
        locks.release_all(2)
        snapshots.append(locks.contention())
        for before, after in zip(snapshots, snapshots[1:]):
            for name, value in after.items():
                assert value >= before[name], name


class TestEventLoop:
    def test_ab_ba_deadlock_resolves(self):
        """Two terminals on one warehouse deadlock AB/BA; one victim per cycle.

        Payment reads the warehouse row (S) and later updates it (X);
        two Payments in flight each hold the S lock the other's upgrade
        needs.  Each cycle is found when its second member parks and is
        broken by exactly one victim, under every policy, and a replay
        reproduces the report byte for byte.
        """
        base = BenchmarkSpec(
            terminals=2,
            transactions=60,
            think_time_seconds=0.0,
            lock_timeout_seconds=5.0,
            retry=RetryPolicy(max_attempts=50),
            seed=4,
            tpcc=TpccConfig(
                warehouses=1,
                customers_per_district=30,
                items=200,
                initial_orders_per_district=10,
                pending_orders_per_district=5,
                buffer_pages=300,
            ),
        )
        for policy in ("youngest", "oldest", "fewest_locks"):
            spec = base.replace(victim_policy=policy)
            report = run_benchmark(spec)
            deadlocks = report.deadlocks
            assert deadlocks.policy == policy
            assert deadlocks.detected > 0
            assert deadlocks.victims == deadlocks.detected
            assert deadlocks.wait_chain_max == 2
            assert report.lock_timeouts == 0  # every wait ended in a grant or a victim
            assert report.aborts == deadlocks.victims
            assert report.committed + report.gave_up == spec.transactions
            replay = run_benchmark(spec)
            assert json.dumps(replay.to_dict(), sort_keys=True) == json.dumps(
                report.to_dict(), sort_keys=True
            )

"""Unit tests for repro.engine.locks."""

import pytest

from repro.driver import BenchmarkSpec, run_benchmark
from repro.driver.scheduler import VirtualScheduler
from repro.engine.errors import LockConflictError
from repro.engine.locks import LockManager, LockMode, LockWait
from repro.tpcc import TpccConfig


@pytest.fixture
def locks():
    return LockManager()


class TestSharedLocks:
    def test_multiple_readers(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        shared, exclusive = locks.holders("r")
        assert shared == {1, 2} and exclusive is None

    def test_reacquire_is_idempotent(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.SHARED)
        assert locks.acquisitions == 1

    def test_reader_blocks_writer(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        with pytest.raises(LockConflictError, match="S-held"):
            locks.acquire(2, "r", LockMode.EXCLUSIVE)


class TestExclusiveLocks:
    def test_writer_blocks_reader(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError, match="X-held"):
            locks.acquire(2, "r", LockMode.SHARED)

    def test_writer_blocks_writer(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(2, "r", LockMode.EXCLUSIVE)

    def test_holder_can_reread(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        locks.acquire(1, "r", LockMode.SHARED)  # no-op, already stronger
        assert locks.mode_held(1, "r") is LockMode.EXCLUSIVE


class TestUpgrade:
    def test_sole_reader_upgrades(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.mode_held(1, "r") is LockMode.EXCLUSIVE

    def test_upgrade_blocked_by_other_reader(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockConflictError):
            locks.acquire(1, "r", LockMode.EXCLUSIVE)


class TestRelease:
    def test_release_all_counts(self, locks):
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        released = locks.release_all(1)
        assert released == 2
        assert locks.releases == 2
        assert locks.locks_held(1) == 0

    def test_release_frees_resources(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        locks.release_all(1)
        locks.acquire(2, "r", LockMode.EXCLUSIVE)  # no conflict now

    def test_release_unknown_transaction(self, locks):
        assert locks.release_all(99) == 0

    def test_release_does_not_disturb_others(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        locks.release_all(1)
        assert locks.mode_held(2, "r") is LockMode.SHARED


class TestAccounting:
    def test_mode_held_none(self, locks):
        assert locks.mode_held(1, "r") is None

    def test_lock_counts_feed_cost_model(self, locks):
        """Each acquired lock is one release_locks visit in the model."""
        for resource in ("a", "b", "c"):
            locks.acquire(5, resource, LockMode.SHARED)
        assert locks.locks_held(5) == 3
        assert locks.acquisitions == 3


class TestAcquisitionTimeout:
    def test_default_is_no_wait(self):
        manager = LockManager()
        manager.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError) as raised:
            manager.acquire(2, "r", LockMode.EXCLUSIVE)
        assert not isinstance(raised.value, LockWait)  # failed fast, nothing to park
        assert manager.conflicts == 1
        assert manager.timeouts == 0 and manager.waits == 0

    def test_timeout_bounds_the_wait(self, monkeypatch):
        """The starvation guard fires at exactly park time + the budget."""
        parked_at: dict[int, float] = {}
        fired: list[tuple[float, float]] = []
        park, handle_timeout = VirtualScheduler._park, VirtualScheduler._handle_timeout

        def recording_park(scheduler, task):
            parked_at[id(task.value)] = scheduler.now
            return park(scheduler, task)

        def recording_timeout(scheduler, wait):
            timeouts = scheduler._db.locks.timeouts
            handle_timeout(scheduler, wait)
            if scheduler._db.locks.timeouts > timeouts:
                fired.append((parked_at[id(wait)], scheduler.now))

        monkeypatch.setattr(VirtualScheduler, "_park", recording_park)
        monkeypatch.setattr(VirtualScheduler, "_handle_timeout", recording_timeout)
        spec = BenchmarkSpec(
            terminals=6,
            transactions=40,
            think_time_seconds=0.0,
            lock_timeout_seconds=0.01,
            tpcc=TpccConfig(
                warehouses=1,
                customers_per_district=30,
                items=200,
                initial_orders_per_district=10,
                pending_orders_per_district=5,
                buffer_pages=300,
            ),
        )
        report = run_benchmark(spec)
        assert report.lock_timeouts == len(fired) > 0
        for parked, now in fired:
            assert now == parked + spec.lock_timeout_seconds

    def test_waiter_succeeds_when_holder_releases(self):
        manager = LockManager(default_timeout=1.0)
        manager.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockWait) as raised:
            manager.acquire(2, "r", LockMode.EXCLUSIVE)
        wait = raised.value
        assert (wait.txn_id, wait.resource, wait.timeout) == (2, "r", 1.0)
        assert manager.park(2, "r") is None
        manager.release_all(1)
        assert manager.woken == [2]  # the release woke the waiter
        manager.acquire(2, "r", LockMode.EXCLUSIVE)  # and its retry is granted
        assert manager.mode_held(2, "r") is LockMode.EXCLUSIVE
        assert manager.timeouts == 0 and manager.waits == 1

    def test_conflicts_counted_per_failed_attempt(self):
        manager = LockManager(default_timeout=1.0)
        manager.acquire(1, "r", LockMode.SHARED)
        manager.acquire(3, "r", LockMode.SHARED)
        for attempt in range(2):
            with pytest.raises(LockWait):
                manager.acquire(2, "r", LockMode.EXCLUSIVE)
            manager.park(2, "r")
            manager.release_all(1 + 2 * attempt)  # wakes the waiter each time
        manager.acquire(2, "r", LockMode.EXCLUSIVE)
        assert manager.conflicts == 2  # one per failed attempt, none for the grant
        assert manager.waits == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="default_timeout"):
            LockManager(default_timeout=-1.0)
        with pytest.raises(ValueError, match="victim_policy"):
            LockManager(victim_policy="random")

"""Property-based tests for the lock manager under no-wait.

Random S/X acquires and ``release_all`` calls by four transactions over
five resources are replayed against :class:`LockManager` and against a
brute-force model that keeps, per resource, every holder and its mode.
After every step the two must agree on each grant or conflict, on every
query (``mode_held``, ``locks_held``, ``holders``) and on the
``acquisitions`` / ``conflicts`` / ``releases`` counters; once every
transaction has released, the manager must hold no entry at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import LockConflictError
from repro.engine.locks import LockManager, LockMode

TXNS = range(1, 5)
RESOURCES = [("stock", (w, i)) for w, i in ((1, 1), (1, 2), (2, 1))] + ["district", "item"]
S, X = LockMode.SHARED, LockMode.EXCLUSIVE

acquires = st.tuples(
    st.just("acquire"),
    st.sampled_from(TXNS),
    st.sampled_from(RESOURCES),
    st.sampled_from([S, X]),
)
releases = st.tuples(st.just("release"), st.sampled_from(TXNS))
operations = st.lists(st.one_of(acquires, acquires, acquires, releases), max_size=60)


class Model:
    """Every (resource, txn) -> mode, by brute force."""

    def __init__(self) -> None:
        self.modes: dict[tuple[object, int], LockMode] = {}
        self.acquisitions = self.conflicts = self.releases = 0

    def acquire(self, txn: int, resource: object, mode: LockMode) -> bool:
        """Apply a request; True when it conflicts."""
        current = self.modes.get((resource, txn))
        if current is X or (current is S and mode is S):
            return False
        others = [
            held
            for (res, holder), held in self.modes.items()
            if res == resource and holder != txn
        ]
        if X in others or (mode is X and others):
            self.conflicts += 1
            return True
        self.modes[(resource, txn)] = mode
        self.acquisitions += 1
        return False

    def release(self, txn: int) -> int:
        mine = [key for key in self.modes if key[1] == txn]
        for key in mine:
            del self.modes[key]
        self.releases += len(mine)
        return len(mine)

    def holders(self, resource: object) -> tuple[set[int], int | None]:
        shared = {t for (r, t), m in self.modes.items() if r == resource and m is S}
        exclusive = [t for (r, t), m in self.modes.items() if r == resource and m is X]
        return shared, (exclusive[0] if exclusive else None)


def assert_agree(locks: LockManager, model: Model) -> None:
    for txn in TXNS:
        assert locks.locks_held(txn) == sum(1 for _, t in model.modes if t == txn)
        for resource in RESOURCES:
            assert locks.mode_held(txn, resource) is model.modes.get((resource, txn))
    for resource in RESOURCES:
        assert locks.holders(resource) == model.holders(resource)
    counters = locks.contention()
    assert (counters["acquisitions"], counters["conflicts"], counters["releases"]) == (
        model.acquisitions,
        model.conflicts,
        model.releases,
    )


@given(operations)
@settings(max_examples=300, deadline=None)
def test_lock_manager_matches_the_brute_force_model(ops):
    locks, model = LockManager(), Model()
    for op in ops:
        if op[0] == "acquire":
            _, txn, resource, mode = op
            expect_conflict = model.acquire(txn, resource, mode)
            try:
                locks.acquire(txn, resource, mode)
                conflicted = False
            except LockConflictError:
                conflicted = True
            assert conflicted == expect_conflict
        else:
            _, txn = op
            assert locks.release_all(txn) == model.release(txn)
        assert_agree(locks, model)
    for txn in TXNS:
        assert locks.release_all(txn) == model.release(txn)
    assert_agree(locks, model)
    assert not model.modes
    assert not locks._held and not locks._shared and not locks._exclusive

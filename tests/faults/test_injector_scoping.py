"""Driver-aware injector semantics: scopes and clocks.

Rules can be scoped to terminals, transaction types and a start time;
the scope an operation runs under is declared per context via
``scoped()`` (one statement sequence the virtual scheduler resumes
inside its own ``contextvars.Context``).  Crucially, out-of-scope
operations skip a rule *before* any probability draw, so narrowing a
scope never perturbs the seeded stream of the operations that stay in
scope.
"""

import contextvars

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule

SITE = FaultRule(FaultKind.WAL_APPEND, every=1).site


def injector_for(*rules, seed=5):
    return FaultInjector(FaultPlan(rules=tuple(rules), seed=seed))


class TestScoping:
    def test_terminal_scope(self):
        injector = injector_for(
            FaultRule(FaultKind.WAL_APPEND, every=1, terminals=(3,))
        )
        assert injector.fire(SITE) is None  # no scope declared
        with injector.scoped(terminal=2):
            assert injector.fire(SITE) is None
        with injector.scoped(terminal=3):
            assert injector.fire(SITE) is not None

    def test_tx_type_scope(self):
        injector = injector_for(
            FaultRule(FaultKind.WAL_APPEND, every=1, tx_types=("payment",))
        )
        with injector.scoped(tx_type="new_order"):
            assert injector.fire(SITE) is None
        with injector.scoped(tx_type="payment"):
            assert injector.fire(SITE) is not None

    def test_scopes_nest_and_restore(self):
        injector = injector_for(
            FaultRule(
                FaultKind.WAL_APPEND, every=1, terminals=(1,), tx_types=("payment",)
            )
        )
        with injector.scoped(terminal=1):
            assert injector.fire(SITE) is None  # tx_type missing
            with injector.scoped(tx_type="payment"):
                assert injector.fire(SITE) is not None  # both match
            assert injector.fire(SITE) is None  # inner scope restored

    def test_after_seconds_needs_a_clock(self):
        rule = FaultRule(FaultKind.WAL_APPEND, every=1, after_seconds=1.0)
        injector = injector_for(rule)
        assert injector.fire(SITE) is None  # no clock: never arms

    def test_after_seconds_arms_at_the_instant(self):
        now = [0.0]
        injector = injector_for(
            FaultRule(FaultKind.WAL_APPEND, every=1, after_seconds=1.0)
        )
        injector.set_clock(lambda: now[0])
        assert injector.fire(SITE) is None
        now[0] = 0.999
        assert injector.fire(SITE) is None
        now[0] = 1.0
        assert injector.fire(SITE) is not None

    def test_out_of_scope_skips_before_the_draw(self):
        """Scoped misses must not consume the seeded stream.

        A probability rule scoped to terminal 9 sees the same op
        sequence whether or not unrelated terminals also operate: the
        firing pattern inside terminal 9's scope is identical.
        """

        def pattern(noise_ops):
            injector = injector_for(
                FaultRule(
                    FaultKind.WAL_APPEND, probability=0.3, terminals=(9,)
                ),
                seed=123,
            )
            fired = []
            for index in range(40):
                with injector.scoped(terminal=8):
                    for _ in range(noise_ops):
                        injector.fire(SITE)
                with injector.scoped(terminal=9):
                    fired.append(injector.fire(SITE) is not None)
            return fired

        assert pattern(noise_ops=0) == pattern(noise_ops=7)

    def test_scoped_deadlock_rule_maps_to_lock_site(self):
        rule = FaultRule(FaultKind.DEADLOCK, every=1)
        assert rule.site == "lock.acquire"
        injector = injector_for(rule)
        from repro.engine.errors import DeadlockError

        with pytest.raises(DeadlockError):
            injector.check("lock.acquire")


def _interleave(*sequences):
    """Resume generators round-robin, each inside a context of its own."""
    live = [(contextvars.copy_context(), sequence) for sequence in sequences]
    while live:
        for entry in list(live):
            context, sequence = entry
            try:
                context.run(next, sequence)
            except StopIteration:
                live.remove(entry)


class TestInterleavedSequences:
    """One thread, many suspended attempts: the virtual scheduler's shape."""

    @staticmethod
    def _attempt(injector, fired, operations=5, **scope):
        with injector.scoped(**scope):
            for _ in range(operations):
                fired.append(injector.fire(SITE) is not None)
                yield

    def test_each_sequence_sees_only_its_own_scope(self):
        injector = injector_for(
            FaultRule(
                FaultKind.WAL_APPEND, every=1, terminals=(1,), tx_types=("payment",)
            )
        )
        matching, other_terminal, other_type = [], [], []
        _interleave(
            self._attempt(injector, matching, terminal=1, tx_type="payment"),
            self._attempt(injector, other_terminal, terminal=2, tx_type="payment"),
            self._attempt(injector, other_type, terminal=1, tx_type="delivery"),
        )
        assert matching == [True] * 5
        assert other_terminal == [False] * 5
        assert other_type == [False] * 5
        assert injector.fire(SITE) is None  # nothing leaked into the caller

    def test_narrowing_never_shifts_the_draw_stream_when_interleaved(self):
        def pattern(noise_sequences):
            injector = injector_for(
                FaultRule(FaultKind.WAL_APPEND, probability=0.3, terminals=(9,)),
                seed=123,
            )
            fired = []
            _interleave(
                self._attempt(injector, fired, operations=40, terminal=9),
                *[
                    self._attempt(injector, [], operations=40, terminal=terminal)
                    for terminal in range(noise_sequences)
                ],
            )
            return fired

        assert pattern(noise_sequences=0) == pattern(noise_sequences=6)

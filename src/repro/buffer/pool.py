"""Simulated buffer pool with per-relation hit statistics.

The pool tracks which pages are resident (delegated to a replacement
policy) and counts hits and misses per relation — the quantities the
paper's Figure 8 plots.  No page contents are stored; this is a
performance model, not storage (the executable engine in
:mod:`repro.engine` has a real buffer manager).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.buffer.policy import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    import numpy as np

    from repro.workload.trace import PageIdSpace


@dataclass
class PoolStatistics:
    """Hit/miss/eviction counters, per relation index and overall.

    Evictions are keyed by the relation of the *evicted* page, not the
    page whose admission displaced it.
    """

    hits: dict[int, int] = field(default_factory=dict)
    misses: dict[int, int] = field(default_factory=dict)
    evictions: dict[int, int] = field(default_factory=dict)

    def record(self, relation: int, hit: bool) -> None:
        table = self.hits if hit else self.misses
        table[relation] = table.get(relation, 0) + 1

    def record_eviction(self, relation: int) -> None:
        self.evictions[relation] = self.evictions.get(relation, 0) + 1

    def accesses(self, relation: int | None = None) -> int:
        """References seen, for one relation or in total."""
        if relation is None:
            return sum(self.hits.values()) + sum(self.misses.values())
        return self.hits.get(relation, 0) + self.misses.get(relation, 0)

    def miss_rate(self, relation: int | None = None) -> float:
        """Miss fraction for one relation (or overall); 0.0 if unobserved."""
        total = self.accesses(relation)
        if total == 0:
            return 0.0
        if relation is None:
            return sum(self.misses.values()) / total
        return self.misses.get(relation, 0) / total

    def reset(self) -> None:
        self.hits.clear()
        self.misses.clear()
        self.evictions.clear()


class SimulatedBufferPool:
    """A buffer pool over abstract page keys.

    ``access`` is the single hot-path operation: it consults the policy,
    updates recency/eviction state and the statistics, and reports
    whether the reference hit.
    """

    def __init__(self, policy: ReplacementPolicy):
        self._policy = policy
        self._stats = PoolStatistics()

    @property
    def policy(self) -> ReplacementPolicy:
        return self._policy

    @property
    def stats(self) -> PoolStatistics:
        return self._stats

    @property
    def capacity(self) -> int:
        """Capacity in pages."""
        return self._policy.capacity

    @property
    def resident_pages(self) -> int:
        return len(self._policy)

    def access(self, relation: int, page: int, write: bool = False) -> bool:
        """Reference one page; returns True on a buffer hit.

        ``write`` is accepted for interface parity with the engine's
        buffer manager; it does not affect hit accounting under any of
        the provided policies.
        """
        key = (relation, page)
        policy = self._policy
        if policy.contains(key):
            victim = policy.touch(key)  # a 2Q promotion may displace a page
            if victim is not None:
                self._stats.record_eviction(victim[0])
            self._stats.record(relation, hit=True)
            return True
        victim = policy.admit(key)
        if victim is not None:
            self._stats.record_eviction(victim[0])
        self._stats.record(relation, hit=False)
        return False

    def access_encoded(self, refs: "np.ndarray", space: "PageIdSpace") -> None:
        """Reference every int-encoded page of ``refs``, in order.

        The object-pool counterpart of an array kernel's
        ``process_batch``: replaying one prepared reference array
        through both is how the two back ends are held bit-identical.
        """
        access = self.access
        relation, page, write = space.decode_ref_arrays(refs)
        for reference in zip(relation.tolist(), page.tolist(), write.tolist()):
            access(*reference)

    def reset_stats(self) -> None:
        """Clear counters without disturbing residency (used after warmup)."""
        self._stats.reset()

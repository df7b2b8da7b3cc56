"""Property-based tests for the waits-for deadlock module.

``find_cycle`` (path-tracking DFS) is cross-checked against
``has_cycle`` (Kahn-style elimination) — two deliberately different
algorithms must agree on cycle existence for every random graph.  Any
cycle returned must be genuine (``is_cycle``), and the chosen victim
must be a member of every cycle it is asked to break, so dooming it
breaks that cycle.
"""

from typing import Iterable, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.deadlock import VICTIM_POLICIES, choose_victim, find_cycle


def is_cycle(waits_for: Mapping[int, Iterable[int]], cycle: tuple[int, ...]) -> bool:
    """Whether ``cycle`` is a genuine simple cycle of the graph."""
    if not cycle or len(set(cycle)) != len(cycle):
        return False
    for position, node in enumerate(cycle):
        successor = cycle[(position + 1) % len(cycle)]
        if successor not in set(waits_for.get(node, ())):
            return False
    return True


def has_cycle(waits_for: Mapping[int, Iterable[int]]) -> bool:
    """Cycle existence by Kahn-style elimination (independent oracle).

    Repeatedly strips nodes with no outgoing edge; a cycle exists iff
    nodes remain.  Deliberately a different algorithm from
    ``find_cycle``, so this suite can cross-check the two.
    """
    edges = {
        node: {target for target in targets if target != node}
        for node, targets in waits_for.items()
    }
    self_waiters = {
        node for node, targets in waits_for.items() if node in set(targets)
    }
    if self_waiters:
        return True
    changed = True
    while changed:
        changed = False
        for node in list(edges):
            targets = {t for t in edges[node] if t in edges and edges[t]}
            if not targets:
                del edges[node]
                changed = True
    return any(edges[node] for node in edges)


#: Random sparse digraphs over a small node universe: adjacency dicts
#: txn -> list of txns it waits on.  Small universes make cycles likely
#: enough to exercise both branches.
graphs = st.dictionaries(
    keys=st.integers(min_value=0, max_value=9),
    values=st.lists(st.integers(min_value=0, max_value=9), max_size=4),
    max_size=10,
)


def _strip_self_edges(graph):
    """A transaction never waits on itself in a real lock manager."""
    return {
        node: [t for t in targets if t != node]
        for node, targets in graph.items()
    }


class TestCycleDetection:
    @given(graphs)
    @settings(max_examples=300, deadline=None)
    def test_found_iff_exists(self, graph):
        """find_cycle returns a cycle exactly when the oracle sees one."""
        graph = _strip_self_edges(graph)
        cycle = find_cycle(graph)
        assert (cycle is not None) == has_cycle(graph)

    @given(graphs)
    @settings(max_examples=300, deadline=None)
    def test_returned_cycle_is_genuine(self, graph):
        """Whatever find_cycle returns must verify edge by edge."""
        graph = _strip_self_edges(graph)
        cycle = find_cycle(graph)
        if cycle is not None:
            assert is_cycle(graph, cycle)

    @given(graphs)
    @settings(max_examples=300, deadline=None)
    def test_start_scoped_search(self, graph):
        """A start-scoped cycle must contain a node reachable from start.

        The lock manager always asks from the transaction that just
        blocked; the cycle it gets back must be reachable from there
        (trivially true if find_cycle only walks out of ``start``).
        """
        graph = _strip_self_edges(graph)
        for start in graph:
            cycle = find_cycle(graph, start=start)
            if cycle is None:
                continue
            assert is_cycle(graph, cycle)
            reachable = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for successor in graph.get(node, ()):
                    if successor not in reachable:
                        reachable.add(successor)
                        frontier.append(successor)
            assert set(cycle) <= reachable

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_acyclic_after_removing_any_cycle_member(self, graph):
        """Removing one member of the found cycle kills that cycle.

        The whole graph may still be cyclic through other nodes, but
        the specific returned cycle must no longer verify.
        """
        graph = _strip_self_edges(graph)
        cycle = find_cycle(graph)
        if cycle is None:
            return
        for member in cycle:
            pruned = {
                node: [t for t in targets if t != member]
                for node, targets in graph.items()
                if node != member
            }
            assert not is_cycle(pruned, cycle)

    def test_self_wait_is_a_cycle_for_the_oracle(self):
        """has_cycle treats a self-edge as cyclic (defensive)."""
        assert has_cycle({1: [1]})

    def test_long_chain_does_not_recurse(self):
        """An adversarially deep chain must not hit the recursion limit."""
        n = 50_000
        graph = {i: [i + 1] for i in range(n)}
        assert find_cycle(graph) is None
        graph[n] = [0]
        cycle = find_cycle(graph)
        assert cycle is not None and len(cycle) == n + 1


#: Non-empty candidate cycles (any member set works for choose_victim).
cycles = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=8
)


class TestVictimSelection:
    @given(cycles, st.sampled_from(VICTIM_POLICIES))
    @settings(max_examples=300, deadline=None)
    def test_victim_is_a_member(self, cycle, policy):
        """The victim always belongs to the cycle it breaks."""
        held = {txn: txn % 3 for txn in cycle}
        victim = choose_victim(cycle, policy, lambda txn: held[txn])
        assert victim in set(cycle)

    @given(cycles, st.sampled_from(VICTIM_POLICIES))
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, cycle, policy):
        """Same cycle, same policy, same footprint -> same victim."""
        held = {txn: txn % 3 for txn in cycle}
        first = choose_victim(cycle, policy, lambda txn: held[txn])
        second = choose_victim(tuple(reversed(cycle)), policy, lambda t: held[t])
        assert first == second

    @given(cycles)
    @settings(max_examples=200, deadline=None)
    def test_policy_semantics(self, cycle):
        """youngest = max id, oldest = min id, fewest_locks = min footprint."""
        members = set(cycle)
        assert choose_victim(cycle, "youngest") == max(members)
        assert choose_victim(cycle, "oldest") == min(members)
        held = {txn: txn % 3 for txn in cycle}
        victim = choose_victim(cycle, "fewest_locks", lambda txn: held[txn])
        fewest = min(held[txn] for txn in members)
        assert held[victim] == fewest
        # Ties break toward the youngest member.
        assert victim == max(t for t in members if held[t] == fewest)

    def test_unknown_policy_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="victim policy"):
            choose_victim((1, 2), "coin_flip")

    def test_empty_cycle_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="empty cycle"):
            choose_victim((), "youngest")

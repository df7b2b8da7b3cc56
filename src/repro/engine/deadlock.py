"""Waits-for-graph deadlock detection and victim selection.

The lock manager's blocking mode builds a waits-for graph — an edge
``a -> b`` meaning transaction ``a`` waits for a lock transaction ``b``
holds — and resolves deadlocks by finding a cycle and aborting one
member.  The graph algorithms live here, free of any lock-manager
state, so the chaos suite can property-test them against randomly
generated graphs (a cycle is found iff one exists; the chosen victim
is a member of the cycle, so removing it breaks every cycle through
it).

Victim policies mirror the classic textbook choices:

* ``youngest`` — abort the newest transaction (highest id); it has
  done the least work, and because ids are assigned monotonically the
  oldest member eventually wins every conflict (no livelock).
* ``oldest`` — abort the longest-running transaction (lowest id);
  cheapest way to unblock a long convoy at the cost of wasted work.
* ``fewest_locks`` — abort the member holding the fewest locks (ties
  broken by youngest), the smallest-footprint rollback.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

#: Recognized victim-selection policy names.
VICTIM_POLICIES = ("youngest", "oldest", "fewest_locks")


def find_cycle(
    waits_for: Mapping[int, Iterable[int]], start: int | None = None
) -> tuple[int, ...] | None:
    """One waits-for cycle, or None when the graph is acyclic.

    The returned tuple lists distinct transactions in wait order:
    ``cycle[i]`` waits for ``cycle[i + 1]`` and the last member waits
    for the first.  With ``start`` given, only cycles reachable from
    that node are considered (the lock manager asks about the
    transaction that just blocked); without it every node seeds a
    search.  Iterative DFS, so adversarially long chains cannot hit
    the interpreter recursion limit.
    """
    edges = {node: sorted(set(targets)) for node, targets in waits_for.items()}
    seeds = [start] if start is not None else sorted(edges)
    visited: set[int] = set()
    for seed in seeds:
        if seed in visited:
            continue
        # Path-tracking DFS: `path` is the current chain, `on_path` its
        # membership set; a successor already on the path closes a cycle.
        path: list[int] = []
        on_path: set[int] = set()
        stack: list[tuple[int, int]] = [(seed, 0)]
        while stack:
            node, edge_index = stack.pop()
            successors = edges.get(node, [])
            if edge_index == 0:
                path.append(node)
                on_path.add(node)
            advanced = False
            for index in range(edge_index, len(successors)):
                successor = successors[index]
                if successor in on_path:
                    cycle_start = path.index(successor)
                    return tuple(path[cycle_start:])
                if successor not in visited:
                    stack.append((node, index + 1))
                    stack.append((successor, 0))
                    advanced = True
                    break
            if not advanced:
                visited.add(node)
                path.pop()
                on_path.discard(node)
    return None


def choose_victim(
    cycle: Iterable[int],
    policy: str,
    locks_held: Callable[[int], int] = lambda _txn: 0,
) -> int:
    """The cycle member to abort under ``policy``.

    Deterministic for a given cycle: ties under ``fewest_locks`` fall
    back to the youngest (highest-id) member, so concurrent detections
    of the same cycle always doom the same transaction.
    """
    members = sorted(set(cycle))
    if not members:
        raise ValueError("cannot choose a victim from an empty cycle")
    if policy == "youngest":
        return members[-1]
    if policy == "oldest":
        return members[0]
    if policy == "fewest_locks":
        return min(members, key=lambda txn: (locks_held(txn), -txn))
    raise ValueError(
        f"victim policy must be one of {VICTIM_POLICIES}, got {policy!r}"
    )


__all__ = [
    "VICTIM_POLICIES",
    "choose_victim",
    "find_cycle",
]

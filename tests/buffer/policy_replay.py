"""A reference replay of page keys through a ``policy_oracle`` object."""

from collections import Counter


def replay(policy, keys):
    """Reference every ``(relation, page)`` key in order: ``touch`` a
    resident page, else ``admit`` it.

    Returns ``(hits, misses, evictions)`` Counters by relation index;
    an eviction counts against the relation of the page it evicted.
    """
    hits, misses, evictions = Counter(), Counter(), Counter()
    for key in keys:
        if policy.contains(key):
            hits[key[0]] += 1
            victim = policy.touch(key)  # a 2Q promotion may displace a page
        else:
            misses[key[0]] += 1
            victim = policy.admit(key)
        if victim is not None:
            evictions[victim[0]] += 1
    return hits, misses, evictions

"""Host-speed correction for a box whose speed changes under the benchmark.

The sandbox this benchmark is written for shares its cores: the same
pure-Python loop takes 1.0, 1.5 or 2.2 times its best time depending on
what the neighbours do, in phases that last from milliseconds to minutes.
A run is shorter than a phase, so no amount of repeating inside a run
averages it out, and raw medians of ten runs differ by 20 % and more.

The benchmark therefore runs a small fixed *reference kernel* between the
laps of every timed region and scales each lap's time by how slow the
kernel was around it::

    host seconds = seconds * REFERENCE_S / (reference kernel seconds)

Every time the benchmark reports is in these host seconds — seconds on a
host where the kernel takes ``REFERENCE_S`` — so a slow phase stretches a
lap and its yardstick alike.  The raw seconds are kept beside them in the
result files.  The kernel is interpreter-bound (dict, list, integer and
tuple traffic), like the code it stands for.
"""

from __future__ import annotations

import os
import statistics
import time

#: What the kernel takes on this sandbox when nothing disturbs it.
REFERENCE_S = 0.0036


def reference_seconds(runs: int = 3) -> float:
    """How long the reference kernel takes right now (median of ``runs``).

    The median drops the millisecond spikes and keeps the level, which is
    what a lap of tens or hundreds of milliseconds has felt.
    """
    return statistics.median(_kernel() for _ in range(runs))


def _kernel() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    kept: list[tuple[int, int]] = []
    total = 0
    for i in range(40_000):
        key = i & 1023
        total += table.get(key, 0)
        table[key] = total & 0xFFFF
        if not key:
            kept.append((i, total))
    return time.perf_counter() - start


def settle_on_fastest_core() -> None:
    """Pin this process to the allowed core that is fastest right now.

    One core, because the virtual scheduler hands control from thread to
    thread some 50 000 times in driver-contended: left to the kernel,
    those threads spread over both cores some of the time, every hand-off
    becomes a cross-core wake-up, and the same run takes 2.1 s or 3.5 s.
    The other workloads are single-threaded anyway.  The fastest, because
    the two cores change speed independently of each other.
    """
    timings = {}
    for core in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {core})
        timings[core] = reference_seconds()
    os.sched_setaffinity(0, {min(timings, key=timings.get)})


class HostClock:
    """Times consecutive laps, each with the kernel run before and after it."""

    def __init__(self) -> None:
        self._kernel_s = reference_seconds()
        self._start = time.perf_counter()

    def restart(self) -> None:
        """Begin a lap now, without sampling the kernel again."""
        self._start = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """(raw seconds, host seconds) since the last lap ended.

        A long lap leans on its two kernel samples alone, so they are
        taken with more runs: about 8 % of the lap, 3 to 15 runs.
        """
        raw = time.perf_counter() - self._start
        runs = max(3, min(15, round(raw / 0.05)))
        before, self._kernel_s = self._kernel_s, reference_seconds(runs)
        self._start = time.perf_counter()
        return raw, raw * REFERENCE_S / ((before + self._kernel_s) / 2)

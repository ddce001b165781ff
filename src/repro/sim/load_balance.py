"""The hoisted allocator's admission loop (Figure 14).

With a hoisted allocator, a replicate region receives a new thread only when
it holds a free allocation buffer, so each region's share of the input
follows its throughput.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence


def hoisted_counts(
    threads: int, service_times: Sequence[float], buffers: int
) -> List[int]:
    """Threads each region admits when ``threads`` unit-cost threads enter
    regions with the given service times, ``buffers // regions`` each.

    A thread goes round-robin to the next region with a free buffer.  Once
    every buffer is taken, the earliest completion frees one; on a tie, the
    lower region index goes first.
    """
    regions = len(service_times)
    if buffers < regions:
        raise ValueError(f"{buffers} buffers cannot feed {regions} regions")
    free = [buffers // regions] * regions
    idle = sum(free)
    counts = [0] * regions
    events: List[tuple] = []  # (completion time, region)
    clock = 0.0
    region = 0
    for _ in range(threads):
        while not free[region]:
            region = (region + 1) % regions
        free[region] -= 1
        idle -= 1
        counts[region] += 1
        heapq.heappush(events, (clock + service_times[region], region))
        region = (region + 1) % regions
        if not idle:
            clock, done = heapq.heappop(events)
            free[done] += 1
            idle += 1
    return counts

"""Replicate-region load-balancing simulation (Figure 14).

With a hoisted allocator, replicate regions receive new threads only when
they free an allocation buffer, which creates a throughput-proportional
feedback loop.  This module simulates that allocator at the granularity of
thread service times: ``regions`` servers with different service rates share
one buffer pool; work is admitted round-robin into free buffers and each
region's share of the total input is reported — the quantity plotted in
Figure 14.

The admission loop itself lives in :mod:`repro.sim.policies`; this module
wires it to the Figure 14 experiment: per-region service-time skew, share
percentages, and makespans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.policies import HoistedBufferPolicy, RoundRobinPolicy, run_admission


@dataclass
class RegionLoad:
    """Per-region share of the admitted work."""

    region: int
    threads: int
    share_percent: float


class LoadBalanceSimulator:
    """Discrete-event model of a hoisted allocator feeding replicate regions."""

    def __init__(self, regions: int = 8, buffers: int = 64,
                 base_service_time: float = 1.0, slow_region: int = 0,
                 slow_factor: float = 1.3):
        self.regions = regions
        self.buffers = buffers
        self.service_times = [
            base_service_time * (slow_factor if r == slow_region else 1.0)
            for r in range(regions)
        ]

    def run(self, total_threads: int, hoisted: bool = True) -> List[RegionLoad]:
        """Distribute ``total_threads`` and return per-region load shares.

        ``hoisted=False`` models Plasticine-style fixed work partitioning,
        where every region is statically assigned an equal share regardless
        of its throughput.
        """
        result = run_admission(
            task_costs=total_threads,  # unit-cost threads, O(regions) memory
            worker_scales=self.service_times,
            buffers=[self.buffers // self.regions] * self.regions,
            policy=HoistedBufferPolicy() if hoisted else RoundRobinPolicy(),
            collect_assignments=False,
        )
        shares = result.shares_percent()
        return [RegionLoad(region=r, threads=result.counts[r],
                           share_percent=shares[r])
                for r in range(self.regions)]

    def completion_time(self, loads: List[RegionLoad]) -> float:
        """Makespan for a given assignment (used for the 21% slowdown claim)."""
        return max(load.threads * self.service_times[load.region]
                   for load in loads)

    def sweep(self, sizes: List[int]) -> Dict[int, List[RegionLoad]]:
        """Figure 14's x-axis sweep over input sizes."""
        return {size: self.run(size) for size in sizes}

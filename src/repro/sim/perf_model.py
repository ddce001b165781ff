"""vRDA performance model (Section VI-A methodology).

The paper evaluates with ``runtime = size / throughput + init`` on workloads
of abundant, non-communicating threads, so throughput is set by the binding
bottleneck among:

* **DRAM**: HBM2 streaming bandwidth for bulk transfers plus a per-access
  burst/activation cost for demand word accesses (hash-table is activation
  limited),
* **compute**: how many threads the mapped SIMD lanes retire per cycle given
  the measured dynamic iteration count per thread, and
* **on-chip network/SRAM**: vector-link bandwidth through the merge contexts
  on the critical inner loop.

DRAM traffic and iteration counts are *measured* by running the functional
executor on a scaled-down instance (the executor profile), then applied to
the paper-scale dataset per the runtime model above.  :func:`model_inputs`
turns one run into the model's inputs; the serving engine and the
evaluation tables both price runs through it.  The ``ideal_*`` flags
reproduce Table V's D / SN / SND ideal-model columns by removing the
corresponding bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.machine import DEFAULT_MACHINE, MachineConfig
from repro.core.memory import MemoryStats
from repro.dataflow.resources import ResourceBreakdown, estimate_resources


@dataclass
class WorkloadProfile:
    """Dynamic per-thread characteristics measured on a small instance."""

    threads: int
    app_bytes_per_thread: float
    dram_bulk_bytes_per_thread: float
    dram_random_accesses_per_thread: float
    iterations_per_thread: float
    pipeline_ops_per_iteration: float = 8.0

    @classmethod
    def from_run(cls, stats: MemoryStats, threads: int, app_bytes_per_thread: float,
                 iterations: float, pipeline_ops_per_iteration: float = 8.0
                 ) -> "WorkloadProfile":
        random_accesses = stats.dram_random_reads + stats.dram_random_writes
        bulk_bytes = stats.dram_total_bytes - random_accesses * 4
        return cls(
            threads=threads,
            app_bytes_per_thread=app_bytes_per_thread,
            dram_bulk_bytes_per_thread=max(0.0, bulk_bytes / threads),
            dram_random_accesses_per_thread=random_accesses / threads,
            iterations_per_thread=max(iterations, 1.0),
            pipeline_ops_per_iteration=pipeline_ops_per_iteration,
        )


def model_inputs(spec, program, stats: MemoryStats,
                 loop_iterations: Dict[str, int], n_threads: int, *,
                 max_outer: Optional[int] = None,
                 machine: MachineConfig = DEFAULT_MACHINE
                 ) -> Tuple[WorkloadProfile, ResourceBreakdown]:
    """What the model reads of one run of ``spec``'s compiled ``program``
    over ``n_threads`` threads: its traffic ``stats`` and ``while`` trip
    counts as a :class:`WorkloadProfile`, and the program's placed
    resources (cached per program by ``estimate_resources``)."""
    iterations = sum(loop_iterations.values()) or 1
    profile = WorkloadProfile.from_run(
        stats, threads=n_threads, app_bytes_per_thread=spec.bytes_per_thread,
        iterations=max(1.0, iterations / max(1, n_threads)))
    resources = estimate_resources(
        program, app_name=spec.name, replicate_factor=spec.replicate_factor,
        machine=machine, max_outer=max_outer)
    return profile, resources


@dataclass
class ThroughputReport:
    """Predicted throughput and the contributing bounds (GB/s of app data)."""

    app: str
    throughput_gbs: float
    dram_bound_gbs: float
    compute_bound_gbs: float
    network_bound_gbs: float
    dram_utilization: float

    def as_row(self) -> Dict[str, float]:
        return {
            "app": self.app,
            "GB/s": round(self.throughput_gbs, 1),
            "dram_bound": round(self.dram_bound_gbs, 1),
            "compute_bound": round(self.compute_bound_gbs, 1),
            "network_bound": round(self.network_bound_gbs, 1),
            "hbm2_util_%": round(self.dram_utilization * 100, 1),
        }


class VRDAPerformanceModel:
    """Bottleneck throughput model for compiled Revet applications."""

    def __init__(self, machine: MachineConfig = DEFAULT_MACHINE):
        self.machine = machine

    def throughput(self, app: str, profile: WorkloadProfile,
                   resources: ResourceBreakdown,
                   ideal_dram: bool = False, ideal_sram_network: bool = False
                   ) -> ThroughputReport:
        machine = self.machine

        # -- DRAM bound ----------------------------------------------------
        random_bytes = profile.dram_random_accesses_per_thread * machine.dram_burst_bytes
        traffic_per_thread = profile.dram_bulk_bytes_per_thread + random_bytes
        traffic_per_thread = max(traffic_per_thread, 1e-9)
        dram_bound = (machine.dram_bandwidth_gbs
                      * profile.app_bytes_per_thread / traffic_per_thread)
        # Row-activation limit for demand accesses (hash-table style).
        if profile.dram_random_accesses_per_thread > 0.5:
            activations_per_s = machine.dram_activations_per_us * 1e6 * 16
            act_threads_per_s = activations_per_s / profile.dram_random_accesses_per_thread
            act_bound = act_threads_per_s * profile.app_bytes_per_thread / 1e9
            dram_bound = min(dram_bound, act_bound)

        # -- compute bound ----------------------------------------------------
        lanes = max(resources.lanes, machine.lanes)
        threads_per_cycle = lanes / profile.iterations_per_thread
        compute_bound = (threads_per_cycle * profile.app_bytes_per_thread
                         * machine.clock_ghz)

        # -- network / SRAM bound ----------------------------------------------
        # Each outer stream moves one vector of live values through its loop
        # merge per iteration; scalar-mapped links cap at one element/cycle.
        vector_streams = max(resources.outer_parallelism, 1)
        elements_per_cycle = vector_streams * machine.lanes
        network_threads_per_cycle = elements_per_cycle / profile.iterations_per_thread
        network_bound = (network_threads_per_cycle * profile.app_bytes_per_thread
                         * machine.clock_ghz) * 1.25  # headroom from hybrid links

        bounds = []
        if not ideal_dram:
            bounds.append(dram_bound)
        if not ideal_sram_network:
            bounds.append(network_bound)
        bounds.append(compute_bound)
        throughput = min(bounds)
        utilization = min(1.0, throughput / dram_bound) if dram_bound > 0 else 0.0
        return ThroughputReport(
            app=app,
            throughput_gbs=throughput,
            dram_bound_gbs=dram_bound,
            compute_bound_gbs=compute_bound,
            network_bound_gbs=network_bound,
            dram_utilization=utilization,
        )

    def ideal_speedups(self, app: str, profile: WorkloadProfile,
                       resources: ResourceBreakdown) -> Dict[str, float]:
        """Table V's D / SN / SND ideal-model speedups over the real machine."""
        base = self.throughput(app, profile, resources).throughput_gbs
        d = self.throughput(app, profile, resources, ideal_dram=True).throughput_gbs
        sn = self.throughput(app, profile, resources,
                             ideal_sram_network=True).throughput_gbs
        snd = self.throughput(app, profile, resources, ideal_dram=True,
                              ideal_sram_network=True).throughput_gbs
        return {
            "D": round(d / base, 2),
            "SN": round(sn / base, 2),
            "SND": round(snd / base, 2),
        }

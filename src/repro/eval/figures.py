"""Evaluation harness for the paper's figures (12, 13, 14) and the Aurochs
comparison (Section VI-B(c))."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps import REGISTRY, TABLE3_APPS
from repro.baselines.aurochs import AurochsModel
from repro.compiler import CompileOptions
from repro.core.machine import DEFAULT_MACHINE, MachineConfig
from repro.dataflow.resources import estimate_resources
from repro.eval.tables import PAPER_OUTER_PARALLELISM
from repro.sim.load_balance import hoisted_counts

#: Figure 12's optimization knobs mapped to CompileOptions field names.
FIG12_VARIANTS = {
    "default": (),
    "no_if_conv": ("if_to_select",),
    "no_buffer": ("allocator_hoisting", "bufferize_replicate"),
    "no_pack": ("subword_packing",),
}


def fig12_optimization_impact(apps: Optional[List[str]] = None,
                              machine: MachineConfig = DEFAULT_MACHINE) -> List[Dict]:
    """Figure 12: CU/MU resource increase when disabling optimization passes.

    Each variant is scaled to its own outer parallelism, and the ratios set
    its resources per outer stream against the default's, so they compare
    one pipeline with another: a variant that fits fewer streams on the
    machine does not read as smaller.
    """
    rows = []
    for name in apps or TABLE3_APPS:
        spec = REGISTRY.get(name)
        baseline, base_streams = None, 1
        row = {"app": name}
        for variant, disabled in FIG12_VARIANTS.items():
            options = CompileOptions().disabled(*disabled) if disabled else CompileOptions()
            program = spec.compile(options)
            breakdown = estimate_resources(
                program, app_name=name, replicate_factor=spec.replicate_factor,
                machine=machine, max_outer=PAPER_OUTER_PARALLELISM.get(name))
            total, streams = breakdown.total, breakdown.outer_parallelism
            if variant == "default":
                baseline, base_streams = total, streams
                row["cu"] = total.cu
                row["mu"] = total.mu
            else:
                row[f"{variant}_cu_x"] = round(
                    total.cu * base_streams / max(1, baseline.cu * streams), 2)
                row[f"{variant}_mu_x"] = round(
                    total.mu * base_streams / max(1, baseline.mu * streams), 2)
        rows.append(row)
    return rows


def fig13_hierarchy_removal(max_area: int = 6) -> List[Dict]:
    """Figure 13: murmur3 performance vs area with and without hierarchy removal.

    The three curves model the paper's variants under ideal SRAM/network/DRAM:

    * ``hier_removed``: small tiles coexist in the pipeline, so performance
      scales linearly with the outer-parallel area.
    * ``shared_init``: hierarchical barriers flush the pipeline between large
      tiles; a fixed tile load/store epilogue limits scaling, but sharing the
      initialization logic keeps area slightly lower at first.
    * ``duplicated_init``: the tile loads are duplicated per region, restoring
      most of the performance at the cost of extra area.
    """
    rows = []
    barrier_overhead = 0.35       # fraction of a tile spent flushing barriers
    duplicated_area_cost = 0.45   # extra area per region for duplicated init
    for area in range(1, max_area + 1):
        removed_perf = float(area)
        shared_perf = area / (1 + barrier_overhead * area)
        duplicated_perf = area / (1 + barrier_overhead * 0.25)
        rows.append({
            "norm_area_removed": area,
            "perf_removed": round(removed_perf, 2),
            "norm_area_shared": round(area * 0.95, 2),
            "perf_shared": round(shared_perf, 2),
            "norm_area_duplicated": round(area * (1 + duplicated_area_cost), 2),
            "perf_duplicated": round(duplicated_perf, 2),
        })
    return rows


#: Figure 14's setup, inputs rather than values derived from a compiled
#: program: 8 replicate regions share 64 allocation buffers (8 each), and
#: region 0 serves each unit-cost thread 1.3x slower than the others.
FIG14_REGIONS = 8
FIG14_BUFFERS = 64
FIG14_SLOW_FACTOR = 1.3


def fig14_load_balancing(sizes: Optional[List[int]] = None) -> List[Dict]:
    """Figure 14: per-region load vs input size for the search application.

    The hoisted allocator admits threads by :func:`hoisted_counts`; static
    partitioning deals them round-robin, ignoring throughput.  A makespan is
    the largest ``count * service_time`` over the regions.
    """
    sizes = sizes or [10_000, 32_000, 100_000, 320_000, 1_000_000]
    regions = FIG14_REGIONS
    service_times = [FIG14_SLOW_FACTOR] + [1.0] * (regions - 1)
    rows = []
    for size in sizes:
        hoisted = hoisted_counts(size, service_times, FIG14_BUFFERS)
        static = [size // regions + (r < size % regions) for r in range(regions)]
        shares = [100.0 * count / max(1, size) for count in hoisted]
        rows.append({
            "input_elements": size,
            "slow_region_%": round(shares[0], 2),
            "fast_region_%": round(max(shares[1:]), 2),
            "equal_share_%": round(100.0 / regions, 2),
            "hoisted_makespan": round(_makespan(hoisted, service_times), 1),
            "static_makespan": round(_makespan(static, service_times), 1),
        })
    return rows


def _makespan(counts: List[int], service_times: List[float]) -> float:
    return max(count * time for count, time in zip(counts, service_times))


def aurochs_comparison() -> Dict[str, float]:
    """Section VI-B(c): Revet's kD-tree speedup over the Aurochs implementation."""
    model = AurochsModel()
    comparison = model.comparison()
    return {
        "live_value_duplication_x": round(comparison.live_value_duplication, 2),
        "lost_node_vectorization_x": round(comparison.lost_node_vectorization, 2),
        "timeout_overhead_x": round(comparison.timeout_overhead, 2),
        "revet_speedup_x": round(model.speedup_of_revet(), 2),
        "paper_speedup_x": 11.0,
    }

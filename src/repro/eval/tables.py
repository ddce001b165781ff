"""Evaluation harness for the paper's tables (III, IV, V).

Every function runs the *real* pipeline: compile the application, execute a
scaled-down instance on the functional executor to measure dynamic behaviour
(DRAM traffic, loop trip counts), estimate placed resources, and apply the
performance / baseline models.  Results are returned as lists of dict rows so
tests, benchmarks, and the command line can all consume them.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from repro.apps import REGISTRY, TABLE3_APPS
from repro.apps.base import AppSpec
from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import GPUModel
from repro.core.machine import DEFAULT_MACHINE, V100_AREA_MM2, MachineConfig
from repro.sim.perf_model import VRDAPerformanceModel, model_inputs

#: Outer-parallelism caps taken from Table IV (the paper scales each app to
#: ~70% utilization of its critical resource; we cap at its reported values
#: so the resource mix matches the published configurations).
PAPER_OUTER_PARALLELISM = {
    "isipv4": 27, "ip2int": 30, "murmur3": 14, "hash-table": 16,
    "search": 8, "huff-dec": 9, "huff-enc": 9, "kD-tree": 5,
}

_SMALL_THREADS = 8


def _measure(spec: AppSpec, machine: MachineConfig):
    """Compile and run a small instance of ``spec``; return the instance's
    traffic counters and the model's inputs for it (Table IV's outer
    parallelism cap applied)."""
    instance = spec.generate(_SMALL_THREADS, 0)
    program = spec.compile()
    run = program.run(instance.memory, profile=True, **instance.args)
    stats = instance.memory.stats
    profile, breakdown = model_inputs(
        spec, program, stats, run.profile.loop_iterations, _SMALL_THREADS,
        max_outer=PAPER_OUTER_PARALLELISM.get(spec.name), machine=machine)
    return stats, profile, breakdown


def table3_applications() -> List[Dict]:
    """Table III: application descriptions, sizes, and key features."""
    rows = []
    for name in TABLE3_APPS:
        spec = REGISTRY.get(name)
        rows.append({
            "app": name,
            "lines": len([line for line in spec.source.splitlines() if line.strip()]),
            "description": spec.description,
            "key_features": ", ".join(spec.key_features),
            "per_thread_bytes": spec.bytes_per_thread,
        })
    return rows


def table4_resources(apps: Optional[List[str]] = None,
                     machine: MachineConfig = DEFAULT_MACHINE) -> List[Dict]:
    """Table IV: per-application CU/MU/AG usage and HBM2 utilization."""
    rows = []
    model = VRDAPerformanceModel(machine)
    for name in apps or TABLE3_APPS:
        stats, profile, breakdown = _measure(REGISTRY.get(name), machine)
        report = model.throughput(name, profile, breakdown)
        row = breakdown.as_row()
        total_bytes = max(1, stats.dram_total_bytes)
        row["hbm2_read_%"] = round(100 * report.dram_utilization
                                   * stats.dram_read_bytes / total_bytes, 1)
        row["hbm2_write_%"] = round(100 * report.dram_utilization
                                    * stats.dram_write_bytes / total_bytes, 1)
        row["hbm2_total_%"] = round(100 * report.dram_utilization, 1)
        rows.append(row)
    return rows


def table5_performance(apps: Optional[List[str]] = None,
                       machine: MachineConfig = DEFAULT_MACHINE) -> List[Dict]:
    """Table V: Revet vs V100 vs CPU throughput plus ideal-model speedups."""
    gpu = GPUModel()
    cpu = CPUModel()
    model = VRDAPerformanceModel(machine)
    rows = []
    for name in apps or TABLE3_APPS:
        spec = REGISTRY.get(name)
        _, profile, breakdown = _measure(spec, machine)
        revet = model.throughput(name, profile, breakdown)
        ideal = model.ideal_speedups(name, profile, breakdown)
        gpu_gbs = gpu.throughput_gbs(spec)
        cpu_gbs = cpu.throughput_gbs(spec)
        rows.append({
            "app": name,
            "revet_gbs": round(revet.throughput_gbs, 1),
            "gpu_gbs": round(gpu_gbs, 1),
            "gpu_speedup": round(revet.throughput_gbs / gpu_gbs, 2),
            "cpu_gbs": round(cpu_gbs, 1),
            "cpu_speedup": round(revet.throughput_gbs / cpu_gbs, 2),
            "ideal_D": ideal["D"],
            "ideal_SN": ideal["SN"],
            "ideal_SND": ideal["SND"],
            "paper_revet_gbs": spec.paper_revet_gbs,
            "paper_gpu_speedup": round(spec.paper_revet_gbs / spec.paper_gpu_gbs, 2)
            if spec.paper_gpu_gbs else None,
        })
    return rows


def table5_summary(rows: Optional[List[Dict]] = None) -> Dict[str, float]:
    """Geomean speedups (the paper's 3.8x GPU / ~14x CPU headline numbers)."""
    rows = rows or table5_performance()
    gpu_geomean = statistics.geometric_mean(r["gpu_speedup"] for r in rows)
    cpu_geomean = statistics.geometric_mean(r["cpu_speedup"] for r in rows)
    area_adjusted = gpu_geomean * (V100_AREA_MM2 / DEFAULT_MACHINE.area_mm2)
    return {
        "gpu_speedup_geomean": round(gpu_geomean, 2),
        "cpu_speedup_geomean": round(cpu_geomean, 2),
        "area_adjusted_gpu_speedup": round(area_adjusted, 2),
    }


def format_rows(rows: List[Dict]) -> str:
    """Render rows as an aligned text table (used by __main__ entry points)."""
    if not rows:
        return "(no rows)"
    keys = list(rows[0].keys())
    widths = {k: max(len(str(k)), max(len(str(r.get(k, ""))) for r in rows))
              for k in keys}
    header = "  ".join(str(k).ljust(widths[k]) for k in keys)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys))
    return "\n".join(lines)

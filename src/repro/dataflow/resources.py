"""Dataflow resource estimation (Section V-D: splitting, link analysis, placement).

The estimator walks a compiled program's structured dataflow graph and maps
it onto physical units under the Table II splitting constraints:

* element-wise operations are packed into contexts of at most ``stages`` ops
  and at most four vector inputs (extra inputs force a split),
* every control primitive (forward merge, forward-backward merge, filter,
  counter, fork) occupies a context's pipeline head or tail,
* each SRAM allocation site maps to one or more memory units (capacity) plus
  an allocator context; fused allocation groups share one allocator,
* bulk transfers and demand DRAM accesses map to address generators,
* replicate regions duplicate their body per region and add work-distribution
  and output-merge contexts, retiming buffers, and (if not bufferized) extra
  live links through the merge tree,
* link analysis classifies links as vector or scalar (while-loop entries,
  replicate boundaries, and the outermost program links are scalar).

The result is the per-application CU/MU/AG breakdown used for Table IV and
Figure 12, plus an outer-parallelism scaler that targets ~70% utilization of
the critical resource (the paper's methodology).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.graph import DFGraph, DFNode
from repro.core.machine import DEFAULT_MACHINE, ContextLimits, MachineConfig, ResourceUsage
from repro.dataflow.lowering import CompiledProgram
from repro.ir import ops_named

#: Node ops that execute as element-wise pipeline stages.
PIPELINE_OPS = {"compute", "const"}

#: Memory node ops that map to MU access contexts.
MU_ACCESS_OPS = {"sram_read", "sram_write", "sram_alloc", "sram_free"}

#: Node ops that map to DRAM address generators.
AG_OPS = {"bulk_load", "bulk_store", "dram_read", "dram_write"}


@dataclass
class ResourceBreakdown:
    """Table IV style per-application resource report."""

    app: str
    inner: ResourceUsage = field(default_factory=ResourceUsage)
    outer: ResourceUsage = field(default_factory=ResourceUsage)
    replicate: ResourceUsage = field(default_factory=ResourceUsage)
    retime_mu: int = 0
    deadlock_mu: int = 0
    buffer_mu: int = 0
    outer_parallelism: int = 1
    lanes: int = 0
    vector_links: int = 0
    scalar_links: int = 0

    @property
    def total(self) -> ResourceUsage:
        extra = ResourceUsage(mu=self.retime_mu + self.deadlock_mu + self.buffer_mu)
        return self.inner + self.outer + self.replicate + extra

    def as_row(self) -> Dict[str, int]:
        total = self.total
        return {
            "app": self.app,
            "outer": self.outer_parallelism,
            "lanes": self.lanes,
            "inner_cu": self.inner.cu, "inner_mu": self.inner.mu, "inner_ag": self.inner.ag,
            "outer_cu": self.outer.cu, "outer_mu": self.outer.mu, "outer_ag": self.outer.ag,
            "repl_cu": self.replicate.cu, "repl_mu": self.replicate.mu,
            "retime_mu": self.retime_mu, "deadlock_mu": self.deadlock_mu,
            "buffer_mu": self.buffer_mu,
            "total_cu": total.cu, "total_mu": total.mu, "total_ag": total.ag,
        }


class ResourceEstimator:
    """Estimates physical resources for one compiled program."""

    def __init__(self, program: CompiledProgram,
                 machine: MachineConfig = DEFAULT_MACHINE):
        self.program = program
        self.machine = machine
        self.limits = ContextLimits.from_machine(machine)

    # -- single-pipeline estimation -------------------------------------------

    def pipeline_usage(self) -> Dict[str, ResourceUsage]:
        """Resources for ONE copy of the dataflow (one outer-parallel stream)."""
        usage = {"inner": ResourceUsage(), "outer": ResourceUsage(),
                 "replicate": ResourceUsage()}
        counters = {"retime_mu": 0, "deadlock_mu": 0, "buffer_mu": 0,
                    "vector_links": 0, "scalar_links": 0}
        self._walk_graph(self.program.graph, usage, counters, zone="outer",
                         replicate_factor=1)
        self._apply_module_attrs(usage, counters)
        return {**usage, **counters}

    def _walk_graph(self, graph: DFGraph, usage, counters, zone: str,
                    replicate_factor: int) -> None:
        pipeline_ops = 0
        for node in graph.nodes:
            if node.op in PIPELINE_OPS:
                pipeline_ops += 1
                continue
            self._account_node(node, usage, counters, zone, replicate_factor)
        if pipeline_ops:
            contexts = math.ceil(pipeline_ops / self.limits.max_ops)
            usage[zone if zone != "distribution" else "replicate"].cu += (
                contexts * replicate_factor)
        counters["vector_links"] += sum(1 for n in graph.nodes
                                        for _ in n.outputs) * replicate_factor

    def _account_node(self, node: DFNode, usage, counters, zone: str,
                      replicate_factor: int) -> None:
        bucket = usage[zone if zone in usage else "replicate"]
        if node.op in MU_ACCESS_OPS:
            site_words = node.params.get("buffer_words", 64)
            if node.op == "sram_alloc":
                # Allocator context + capacity: one MU per 70% of its words.
                buffers = min(node.params.get("max_buffers", 1024), 1024)
                words = site_words * buffers
                bucket.mu += max(1, math.ceil(words / (self.machine.mu_words * 0.7)))
                bucket.cu += 1  # pointer-queue / allocation context
            else:
                bucket.cu += 1  # address-generation context feeding the MU
            counters["scalar_links"] += replicate_factor
        elif node.op in AG_OPS:
            bucket.ag += 1
            bucket.cu += 1  # address computation context
        elif node.op == "filter":
            bucket.cu += 1
        elif node.op == "fork":
            bucket.cu += 1
            counters["deadlock_mu"] += 1
        elif node.op == "if":
            bucket.cu += 2  # filter + forward merge contexts
            counters["scalar_links"] += 2 * replicate_factor
            for region in node.regions:
                self._walk_graph(region, usage, counters, zone, replicate_factor)
        elif node.op == "while":
            bucket.cu += 2  # forward-backward merge + exit filter
            counters["deadlock_mu"] += replicate_factor
            counters["scalar_links"] += replicate_factor  # scalar loop entry
            inner_zone = "inner"
            for region in node.regions:
                self._walk_graph(region, usage, counters, inner_zone,
                                 replicate_factor)
        elif node.op == "foreach":
            bucket.cu += 1  # counter expansion
            for region in node.regions:
                self._walk_graph(region, usage, counters, zone, replicate_factor)
        elif node.op == "replicate":
            factor = node.params.get("factor", 1)
            # Work distribution and merge trees (filters + forward merges).
            usage["replicate"].cu += max(1, factor // 2) + max(1, factor // 2)
            counters["retime_mu"] += factor
            counters["scalar_links"] += 2 * replicate_factor
            for region in node.regions:
                self._walk_graph(region, usage, counters, "inner",
                                 replicate_factor * factor)

    def _apply_module_attrs(self, usage, counters) -> None:
        """Account for optimization decisions recorded on the IR."""
        module = self.program.module
        for rep in ops_named(module, "revet.replicate"):
            live_around = rep.attrs.get("live_around_values", 0)
            bufferized = rep.attrs.get("bufferized_values", 0)
            if bufferized:
                counters["buffer_mu"] += 1
                usage["replicate"].cu += 1  # pointer extraction context
            # Values not bufferized must be permuted through the merge tree.
            unbuffered = live_around - bufferized
            if unbuffered > 0:
                usage["replicate"].cu += math.ceil(
                    unbuffered / self.limits.max_vector_inputs)
                counters["vector_links"] += unbuffered
        for loop in ops_named(module, "scf.while"):
            live = loop.attrs.get("subword_live_values")
            if live is None:
                continue
            savings = loop.attrs.get("packed_savings", 0)
            # Unpacked sub-word values each occupy a merge input buffer; every
            # four extra inputs force another merge context.
            unpacked_cost = live - savings if savings else live
            if unpacked_cost > 0 and savings == 0 and live > 0:
                usage["inner"].cu += math.ceil(live /
                                               self.limits.max_vector_inputs)

    # -- Table IV style scaling -----------------------------------------------

    def scaled_breakdown(self, app_name: str = "", replicate_factor: int = 1,
                         target_utilization: float = 0.7,
                         max_outer: Optional[int] = None) -> ResourceBreakdown:
        """Scale outer parallelism to ~70% utilization of the critical resource."""
        single = self.pipeline_usage()
        one = single["inner"] + single["outer"] + single["replicate"]
        one_extra_mu = single["retime_mu"] + single["deadlock_mu"] + single["buffer_mu"]
        per_stream = ResourceUsage(cu=max(one.cu, 1), mu=one.mu + one_extra_mu,
                                   ag=max(one.ag, 1))
        budget = {
            "CU": self.machine.num_cus * target_utilization,
            "MU": self.machine.num_mus * target_utilization,
            "AG": self.machine.num_ags * target_utilization,
        }
        streams = int(min(
            budget["CU"] / per_stream.cu if per_stream.cu else math.inf,
            budget["MU"] / per_stream.mu if per_stream.mu else math.inf,
            budget["AG"] / per_stream.ag if per_stream.ag else math.inf,
        ))
        streams = max(1, streams)
        if max_outer is not None:
            streams = min(streams, max_outer)
        breakdown = ResourceBreakdown(
            app=app_name or self.program.graph.name,
            inner=single["inner"].scaled(streams),
            outer=single["outer"].scaled(streams),
            replicate=single["replicate"].scaled(streams),
            retime_mu=single["retime_mu"] * streams,
            deadlock_mu=single["deadlock_mu"] * streams,
            buffer_mu=single["buffer_mu"] * streams,
            outer_parallelism=streams,
            lanes=streams * self.machine.lanes * max(1, replicate_factor),
            vector_links=single["vector_links"] * streams,
            scalar_links=single["scalar_links"] * streams,
        )
        return breakdown


def estimate_resources(program: CompiledProgram, app_name: str = "",
                       replicate_factor: int = 1,
                       machine: MachineConfig = DEFAULT_MACHINE,
                       max_outer: Optional[int] = None) -> ResourceBreakdown:
    """:meth:`ResourceEstimator.scaled_breakdown` of ``program``, made once
    per program and argument set and kept in
    ``program.resource_estimates`` (the graph does not change after
    lowering); callers share the result and must not modify it."""
    key = (app_name, replicate_factor, machine, max_outer)
    breakdown = program.resource_estimates.get(key)
    if breakdown is None:
        breakdown = program.resource_estimates[key] = ResourceEstimator(
            program, machine).scaled_breakdown(
                app_name=app_name, replicate_factor=replicate_factor,
                max_outer=max_outer)
    return breakdown

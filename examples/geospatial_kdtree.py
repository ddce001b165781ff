#!/usr/bin/env python
"""Geospatial analytics scenario: k-d tree range counting plus the evaluation
pipeline (resource estimate, throughput model, and the Aurochs comparison).

This is the workload the paper uses to show why dataflow threads beat both
the GPU (no fork/recursion, so traversal becomes a kernel per level) and
Aurochs (no thread-local SRAM, no nested foreach).
"""

from repro.apps import REGISTRY
from repro.baselines.aurochs import AurochsModel
from repro.baselines.gpu import GPUModel
from repro.sim.perf_model import VRDAPerformanceModel, model_inputs


def main() -> None:
    spec = REGISTRY.get("kD-tree")
    threads = 12
    instance = spec.generate(threads, seed=7)
    program = spec.compile()
    run = program.run(instance.memory, profile=True, **instance.args)

    expected = spec.reference(instance)
    actual = instance.memory.segment_data("out")[: len(expected)]
    print("query results match brute force:", actual == expected)
    print("counts:", actual)

    # The run's traffic and trip counts, and the placed resources (Table
    # IV's outer-parallelism cap of 5), are what the model reads.
    profile, resources = model_inputs(
        spec, program, instance.memory.stats, run.profile.loop_iterations,
        threads, max_outer=5)
    print("resources:", resources.as_row())

    model = VRDAPerformanceModel()
    report = model.throughput("kD-tree", profile, resources)
    print("vRDA model   : %.1f GB/s" % report.throughput_gbs)
    print("V100 model   : %.1f GB/s" % GPUModel().throughput_gbs(spec))
    print("Aurochs gap  : %.1fx slower than Revet" % AurochsModel().speedup_of_revet())


if __name__ == "__main__":
    main()

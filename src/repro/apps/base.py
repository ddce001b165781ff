"""Application framework: the Table III benchmark suite.

Each application provides:

* its Revet source (compiled by :func:`repro.compiler.compile_source`),
* an input generator producing a :class:`repro.core.memory.MemorySystem`,
* a pure-Python reference implementation used as the correctness oracle,
* metadata used by the evaluation harness (per-thread data size, key
  features, and the baseline-model parameters from Table III/V).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.compiler import CompileOptions, compile_source
from repro.core.memory import MemorySystem
from repro.dataflow.lowering import CompiledProgram


@dataclass
class AppSpec:
    """Static description of one benchmark application."""

    name: str
    description: str
    source: str
    key_features: List[str]
    #: Bytes of DRAM data touched per thread (Table III "Per-Thread" column).
    bytes_per_thread: int
    #: Average dynamic inner-loop iterations per thread (drives the models).
    avg_iterations_per_thread: float
    #: Paper-reported throughputs (GB/s) used for shape comparison only.
    paper_revet_gbs: float
    paper_gpu_gbs: float
    paper_cpu_gbs: float
    #: Generate inputs: returns (memory, program kwargs, context dict).
    generate: Callable[[int, int], "AppInstance"]
    #: Reference implementation: operates on the same memory, returns the
    #: expected contents of the output segment.
    reference: Callable[["AppInstance"], List[int]]
    #: Name of the DRAM segment holding the program's output.
    output_segment: str = "out"
    #: Bytes processed per "element" when reporting throughput.
    replicate_factor: int = 1

    def compile(self, options: Optional[CompileOptions] = None) -> CompiledProgram:
        return compile_source(self.source, options=options)

    def make_instance(self, n_threads: int, seed: int = 0) -> "AppInstance":
        """Generate one deterministic problem instance (serving entry point)."""
        return self.generate(n_threads, seed)


@dataclass
class AppInstance:
    """One generated problem instance."""

    memory: MemorySystem
    args: Dict[str, int]
    context: Dict[str, object] = field(default_factory=dict)
    total_bytes: int = 0


class AppRegistry:
    """Global registry of Table III applications."""

    def __init__(self):
        self._apps: Dict[str, AppSpec] = {}

    def register(self, spec: AppSpec) -> AppSpec:
        self._apps[spec.name] = spec
        return spec

    def get(self, name: str) -> AppSpec:
        """The app registered as ``name``; every one of them is servable."""
        if name not in self._apps:
            raise KeyError(
                f"unknown app '{name}'; servable apps: {self.names()}")
        return self._apps[name]

    def names(self) -> List[str]:
        return list(self._apps.keys())

    #: The benchmark harness (``bench/workloads.py``) lists apps by this name.
    servable_names = names

    def all(self) -> List[AppSpec]:
        return list(self._apps.values())


REGISTRY = AppRegistry()


def seeded_rng(seed: int) -> random.Random:
    """Deterministic RNG for input generation."""
    return random.Random(seed)


def run_app(spec: AppSpec, instance: AppInstance,
            options: Optional[CompileOptions] = None, profile: bool = False):
    """Compile and execute one application instance; returns executor/streams."""
    program = spec.compile(options)
    return program.run(instance.memory, profile=profile, **instance.args)


def check_app(spec: AppSpec, n_threads: int = 8, seed: int = 0,
              options: Optional[CompileOptions] = None) -> bool:
    """Run a small instance and compare against the reference oracle."""
    instance = spec.generate(n_threads, seed)
    expected = spec.reference(instance)
    run_app(spec, instance, options=options)
    actual = instance.memory.segment_data(spec.output_segment)[: len(expected)]
    return actual == expected

#!/usr/bin/env python
"""Quickstart: compile a tiny Revet program and run it on the dataflow machine.

The program squares every element of a DRAM array using one thread per
element.  It shows the three steps every Revet user takes: stage data in a
:class:`MemorySystem`, compile source with :func:`compile_source`, and run the
compiled dataflow program.
"""

from repro.compiler import compile_source
from repro.core.memory import MemorySystem

SOURCE = """
DRAM<int> data;
DRAM<int> out;

void main(int n) {
  foreach (n) { int i =>
    int v = data[i];
    out[i] = v * v;
  };
}
"""


def main() -> None:
    values = list(range(1, 11))
    memory = MemorySystem()
    memory.dram_alloc("data", data=values)
    memory.dram_alloc("out", size=len(values))

    program = compile_source(SOURCE)
    executor = program.run(memory, n=len(values), profile=True)

    print("input :", values)
    print("output:", memory.segment_data("out"))
    print("dataflow nodes:", sum(1 for _ in program.graph.walk()))
    print("DRAM traffic  :", memory.stats.dram_total_bytes, "bytes")
    print("node firings  :", sum(executor.profile.node_firings.values()))


if __name__ == "__main__":
    main()

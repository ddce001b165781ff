"""strlen: the paper's running example (Figure 7), kept as a ninth app.

It is not part of the Table III evaluation set but exercises the full
feature stack (views, iterators, nested foreach, replicate, and the
hierarchy-elimination pragma), so the examples and tests use it heavily.
"""

from __future__ import annotations

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

TILE = 8

SOURCE = """
DRAM<char> input;
DRAM<int> offsets;
DRAM<int> lengths;

void main(int count) {
  foreach (count by 8) { int outer =>
    ReadView<8> in_view(offsets, outer);
    WriteView<8> out_view(lengths, outer);
    foreach (8) { int idx =>
      pragma(eliminate_hierarchy);
      int len = 0;
      int off = in_view[idx];
      replicate (4) {
        ReadIt<16> it(input, off);
        while (*it) {
          len = len + 1;
          it++;
        };
      };
      out_view[idx] = len;
    };
  };
}
"""


def generate(count: int, seed: int = 0, max_length: int = 40) -> AppInstance:
    rng = seeded_rng(seed)
    count = max(TILE, (count // TILE) * TILE or TILE)
    strings = []
    blob = bytearray()
    offsets = []
    for _ in range(count):
        length = rng.randint(0, max_length)
        text = bytes(rng.randint(97, 122) for _ in range(length))
        offsets.append(len(blob))
        blob.extend(text + b"\0")
        strings.append(text)
    memory = MemorySystem()
    memory.load_bytes("input", bytes(blob))
    memory.dram_alloc("offsets", data=offsets)
    memory.dram_alloc("lengths", size=count)
    return AppInstance(
        memory=memory,
        args={"count": count},
        context={"strings": strings},
        total_bytes=len(blob) + count * 8,
    )


def reference(instance: AppInstance):
    return [len(s) for s in instance.context["strings"]]


SPEC = REGISTRY.register(AppSpec(
    name="strlen",
    description="Figure 7 running example: parallel strlen over packed strings",
    source=SOURCE,
    key_features=["ReadView", "WriteView", "ReadIt", "replicate",
                  "eliminate_hierarchy"],
    bytes_per_thread=20,
    avg_iterations_per_thread=20.0,
    paper_revet_gbs=0.0,
    paper_gpu_gbs=0.0,
    paper_cpu_gbs=0.0,
    generate=generate,
    reference=reference,
    output_segment="lengths",
    replicate_factor=4,
))

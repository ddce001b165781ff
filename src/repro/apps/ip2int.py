"""ip2int: parse dotted-quad IPv4 strings into 32-bit integers (Table III)."""

from __future__ import annotations

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

RECORD_BYTES = 16

SOURCE = """
DRAM<char> input;
DRAM<int> out;

void main(int count) {
  foreach (count) { int i =>
    int base = i * 16;
    ReadIt<16> it(input, base);
    int value = 0;
    int result = 0;
    int c = 1;
    while (c != 0) {
      c = *it;
      it++;
      if (c >= 48 && c <= 57) {
        value = value * 10 + (c - 48);
      } else {
        if (c == 46) {
          result = result * 256 + value;
          value = 0;
        }
      }
    };
    result = result * 256 + value;
    out[i] = result;
  };
}
"""


def generate(count: int, seed: int = 0) -> AppInstance:
    rng = seeded_rng(seed)
    addresses = [[rng.randint(0, 255) for _ in range(4)] for _ in range(count)]
    records = []
    for quad in addresses:
        text = ".".join(map(str, quad)).encode()
        records.append(text + b"\0" * (RECORD_BYTES - len(text)))
    memory = MemorySystem()
    memory.load_bytes("input", b"".join(records))
    memory.dram_alloc("out", size=count)
    return AppInstance(memory=memory, args={"count": count},
                       context={"addresses": addresses},
                       total_bytes=count * (RECORD_BYTES + 4))


def reference(instance: AppInstance):
    return [
        (a << 24) | (b << 16) | (c << 8) | d
        for a, b, c, d in instance.context["addresses"]
    ]


SPEC = REGISTRY.register(AppSpec(
    name="ip2int",
    description="Parse IPv4 addresses into integers",
    source=SOURCE,
    key_features=["replicate", "ReadIt", "while"],
    bytes_per_thread=13,
    avg_iterations_per_thread=14.0,
    paper_revet_gbs=508.0,
    paper_gpu_gbs=381.0,
    paper_cpu_gbs=9.1,
    generate=generate,
    reference=reference,
    replicate_factor=2,
))

"""isipv4: DFA-style validation of dotted-quad strings (Table III row 1)."""

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
    int digits = 0;
    int dots = 0;
    int valid = 1;
    int c = 1;
    while (c != 0) {
      c = *it;
      it++;
      if (c != 0) {
        if (c >= 48 && c <= 57) {
          value = value * 10 + (c - 48);
          digits = digits + 1;
          if (value > 255 || digits > 3) { valid = 0; }
        } else {
          if (c == 46) {
            if (digits == 0) { valid = 0; }
            dots = dots + 1;
            value = 0;
            digits = 0;
          } else {
            valid = 0;
          }
        }
      }
    };
    if (dots != 3 || digits == 0) { valid = 0; }
    out[i] = valid;
  };
}
"""


def _record(text: str) -> bytes:
    data = text.encode()[: RECORD_BYTES - 1]
    return data + b"\0" * (RECORD_BYTES - len(data))


def generate(count: int, seed: int = 0) -> AppInstance:
    rng = seeded_rng(seed)
    records = []
    texts = []
    for _ in range(count):
        if rng.random() < 0.9:
            text = ".".join(str(rng.randint(0, 255)) for _ in range(4))
        else:
            text = "INVALID"
        texts.append(text)
        records.append(_record(text))
    memory = MemorySystem()
    memory.load_bytes("input", b"".join(records))
    memory.dram_alloc("out", size=count)
    return AppInstance(memory=memory, args={"count": count},
                       context={"texts": texts},
                       total_bytes=count * (RECORD_BYTES + 4))


def reference(instance: AppInstance):
    results = []
    for text in instance.context["texts"]:
        value = digits = dots = 0
        valid = 1
        for ch in text:
            if ch.isdigit():
                value = value * 10 + (ord(ch) - 48)
                digits += 1
                if value > 255 or digits > 3:
                    valid = 0
            elif ch == ".":
                if digits == 0:
                    valid = 0
                dots += 1
                value = 0
                digits = 0
            else:
                valid = 0
        if dots != 3 or digits == 0:
            valid = 0
        results.append(valid)
    return results


SPEC = REGISTRY.register(AppSpec(
    name="isipv4",
    description="DFA regex: validate IPv4 dotted-quad strings",
    source=SOURCE,
    key_features=["replicate", "ReadIt", "while"],
    bytes_per_thread=13,
    avg_iterations_per_thread=14.0,
    paper_revet_gbs=443.0,
    paper_gpu_gbs=121.0,
    paper_cpu_gbs=7.3,
    generate=generate,
    reference=reference,
    replicate_factor=2,
))

"""search: exact-match substring search with Boyer-Moore-Horspool skips.

Each thread scans one 256-byte chunk of text for the pattern, matching
backwards from the end of the window and skipping ahead using the
bad-character table — the nested data-dependent ``while`` loops the paper
highlights (Section VI-B(b)).
"""

from __future__ import annotations

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

CHUNK_BYTES = 256

SOURCE = """
DRAM<char> text;
DRAM<char> pattern;
DRAM<int> skip;
DRAM<int> out;

void main(int count, int m) {
  foreach (count) { int i =>
    int base = i * 256;
    int pos = 0;
    int matches = 0;
    while (pos <= 256 - m) {
      int j = m - 1;
      int mismatch = 0;
      while (j >= 0 && mismatch == 0) {
        int a = text[base + pos + j];
        int b = pattern[j];
        if (a != b) { mismatch = 1; } else { j = j - 1; }
      };
      if (mismatch == 0) {
        matches = matches + 1;
        pos = pos + 1;
      } else {
        int last = text[base + pos + m - 1];
        pos = pos + skip[last];
      }
    };
    out[i] = matches;
  };
}
"""


def build_skip_table(pattern: bytes):
    """Horspool bad-character table: skip distance per trailing byte."""
    m = len(pattern)
    table = [m] * 256
    for i in range(m - 1):
        table[pattern[i]] = m - 1 - i
    return table


def generate(count: int, seed: int = 0, pattern: bytes = b"moby dick") -> AppInstance:
    rng = seeded_rng(seed)
    alphabet = b"abcdefghij klmnopqrstuvwxyz"
    chunks = []
    for _ in range(count):
        chunk = bytearray(rng.choice(alphabet) for _ in range(CHUNK_BYTES))
        for _ in range(rng.randint(0, 3)):
            offset = rng.randint(0, CHUNK_BYTES - len(pattern))
            chunk[offset : offset + len(pattern)] = pattern
        chunks.append(bytes(chunk))
    memory = MemorySystem()
    memory.load_bytes("text", b"".join(chunks))
    memory.load_bytes("pattern", pattern)
    memory.dram_alloc("skip", data=build_skip_table(pattern))
    memory.dram_alloc("out", size=count)
    return AppInstance(
        memory=memory,
        args={"count": count, "m": len(pattern)},
        context={"chunks": chunks, "pattern": pattern},
        total_bytes=count * (CHUNK_BYTES + 4),
    )


def reference(instance: AppInstance):
    pattern = instance.context["pattern"]
    results = []
    for chunk in instance.context["chunks"]:
        count = 0
        pos = 0
        while pos <= len(chunk) - len(pattern):
            if chunk[pos : pos + len(pattern)] == pattern:
                count += 1
            pos += 1
        results.append(count)
    return results


SPEC = REGISTRY.register(AppSpec(
    name="search",
    description="Exact-match search over 256 B chunks (Boyer-Moore style)",
    source=SOURCE,
    key_features=["PeekReadIt", "nested while"],
    bytes_per_thread=256,
    avg_iterations_per_thread=60.0,
    paper_revet_gbs=481.0,
    paper_gpu_gbs=51.0,
    paper_cpu_gbs=120.6,
    generate=generate,
    reference=reference,
))

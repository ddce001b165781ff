"""murmur3: MurmurHash3 (x86, 32-bit) over 64-byte blobs (Table III)."""

from __future__ import annotations

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

WORDS_PER_BLOB = 16  # 64 bytes

SOURCE = """
DRAM<int> input;
DRAM<int> out;

void main(int count) {
  foreach (count) { int i =>
    int base = i * 16;
    ReadIt<16> it(input, base);
    int h = 0;
    int j = 0;
    while (j < 16) {
      int k = *it;
      it++;
      k = (k * 0xcc9e2d51) & 0xffffffff;
      k = ((k << 15) | (k >> 17)) & 0xffffffff;
      k = (k * 0x1b873593) & 0xffffffff;
      h = h ^ k;
      h = ((h << 13) | (h >> 19)) & 0xffffffff;
      h = (h * 5 + 0xe6546b64) & 0xffffffff;
      j++;
    };
    h = h ^ 64;
    h = h ^ (h >> 16);
    h = (h * 0x85ebca6b) & 0xffffffff;
    h = h ^ (h >> 13);
    h = (h * 0xc2b2ae35) & 0xffffffff;
    h = h ^ (h >> 16);
    out[i] = h;
  };
}
"""

MASK = 0xFFFFFFFF


def murmur3_block(words, seed: int = 0) -> int:
    """Reference MurmurHash3 x86_32 over a 16-word (64-byte) block."""
    h = seed
    for k in words:
        k = (k * 0xCC9E2D51) & MASK
        k = ((k << 15) | (k >> 17)) & MASK
        k = (k * 0x1B873593) & MASK
        h ^= k
        h = ((h << 13) | (h >> 19)) & MASK
        h = (h * 5 + 0xE6546B64) & MASK
    h ^= 64
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & MASK
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & MASK
    h ^= h >> 16
    return h


def generate(count: int, seed: int = 0) -> AppInstance:
    rng = seeded_rng(seed)
    words = [rng.randint(0, MASK) for _ in range(count * WORDS_PER_BLOB)]
    memory = MemorySystem()
    memory.dram_alloc("input", data=words)
    memory.dram_alloc("out", size=count)
    return AppInstance(memory=memory, args={"count": count},
                       context={"words": words},
                       total_bytes=count * (WORDS_PER_BLOB * 4 + 4))


def reference(instance: AppInstance):
    words = instance.context["words"]
    return [
        murmur3_block(words[i * WORDS_PER_BLOB:(i + 1) * WORDS_PER_BLOB])
        for i in range(len(words) // WORDS_PER_BLOB)
    ]


SPEC = REGISTRY.register(AppSpec(
    name="murmur3",
    description="MurmurHash3 data hashing over 64 B blobs",
    source=SOURCE,
    key_features=["ReadIt", "while"],
    bytes_per_thread=64,
    avg_iterations_per_thread=16.0,
    paper_revet_gbs=628.0,
    paper_gpu_gbs=218.0,
    paper_cpu_gbs=122.2,
    generate=generate,
    reference=reference,
))

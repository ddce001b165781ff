"""hash-table: open-addressed hash-table lookups (Table III)."""

from __future__ import annotations

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

HASH_MULT = 0x9E3779B1

SOURCE = """
DRAM<int> keys;
DRAM<int> values;
DRAM<int> queries;
DRAM<int> out;

void main(int count, int mask) {
  foreach (count) { int i =>
    int q = queries[i];
    int slot = (q * 0x9E3779B1) & mask;
    int result = 0 - 1;
    int probing = 1;
    while (probing == 1) {
      int k = keys[slot];
      if (k == q) {
        result = values[slot];
        probing = 0;
      } else {
        if (k == 0) {
          probing = 0;
        } else {
          slot = (slot + 1) & mask;
        }
      }
    };
    out[i] = result;
  };
}
"""


def _build_table(rng, table_size: int, load: float):
    keys = [0] * table_size
    values = [0] * table_size
    mask = table_size - 1
    inserted = {}
    target = int(table_size * load)
    while len(inserted) < target:
        key = rng.randint(1, 1 << 30)
        if key in inserted:
            continue
        value = rng.randint(1, 1 << 30)
        slot = (key * HASH_MULT) & mask
        while keys[slot] != 0:
            slot = (slot + 1) & mask
        keys[slot] = key
        values[slot] = value
        inserted[key] = value
    return keys, values, inserted


def generate(count: int, seed: int = 0, table_size: int = 1024,
             load: float = 0.25) -> AppInstance:
    rng = seeded_rng(seed)
    keys, values, inserted = _build_table(rng, table_size, load)
    present = list(inserted.keys())
    queries = []
    for _ in range(count):
        if present and rng.random() < 0.5:
            queries.append(rng.choice(present))
        else:
            queries.append(rng.randint(1, 1 << 30))
    memory = MemorySystem()
    memory.dram_alloc("keys", data=keys)
    memory.dram_alloc("values", data=values)
    memory.dram_alloc("queries", data=queries)
    memory.dram_alloc("out", size=count)
    return AppInstance(
        memory=memory,
        args={"count": count, "mask": table_size - 1},
        context={"queries": queries, "inserted": inserted},
        total_bytes=count * 16,
    )


def reference(instance: AppInstance):
    inserted = instance.context["inserted"]
    # A query either hits (returns the stored value) or probes to an empty
    # slot (returns -1); linear probing guarantees this matches the kernel.
    return [inserted.get(q, -1) for q in instance.context["queries"]]


SPEC = REGISTRY.register(AppSpec(
    name="hash-table",
    description="Hash-table lookup with int32 keys/values at 25% load",
    source=SOURCE,
    key_features=["ReadIt", "while", "data-dependent probing"],
    bytes_per_thread=16,
    avg_iterations_per_thread=1.3,
    paper_revet_gbs=42.0,
    paper_gpu_gbs=40.0,
    paper_cpu_gbs=7.4,
    generate=generate,
    reference=reference,
))

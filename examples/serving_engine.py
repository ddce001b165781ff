#!/usr/bin/env python
"""Serving-engine tour: cached, batched request serving on the vRDA executor.

Builds a small mixed trace by hand (registered apps plus one raw-source
request with pre-staged memory) and serves it through the
:class:`repro.runtime.Engine`.  Run it twice mentally: every repeated
request after the first is served from the program and result caches.

The engine executes programs for real; the CPU, V100 and Aurochs columns the
paper compares against are printed by ``python -m repro.eval table5``.
"""

from repro.core.memory import MemorySystem
from repro.runtime import Engine, Request
from repro.runtime.telemetry import family_total

SQUARE = """
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
    engine = Engine()

    # Registered Table III apps.
    requests = [
        Request(app="hash-table", n_threads=2, seed=0),
        Request(app="hash-table", n_threads=2, seed=0),   # result-cache hit
        Request(app="search", n_threads=2, seed=1),
        Request(app="search", n_threads=2, seed=2),       # same program, one compile
        Request(app="kD-tree", n_threads=2, seed=0),
    ]

    # A raw-source request brings its own staged memory and arguments.
    memory = MemorySystem()
    memory.dram_alloc("data", data=[1, 2, 3, 4, 5])
    memory.dram_alloc("out", size=5)
    requests.append(Request(source=SQUARE, memory=memory, args={"n": 5}))

    responses = engine.process(requests)
    for response in responses:
        line = f"#{response.request_id} {response.app or '<raw source>':12s}"
        if response.error:
            print(f"{line} ERROR: {response.error}")
            continue
        tags = []
        if response.result_cache_hit:
            tags.append("result-cache")
        elif response.program_cache_hit:
            tags.append("program-cache")
        print(f"{line} modeled {response.modeled_gbs:8.1f} GB/s "
              f"({response.modeled_runtime_s * 1e6:7.1f} us)"
              + (f"  [{' '.join(tags)}]" if tags else ""))

    print("\nraw-source output:", memory.segment_data("out"))
    # Every count lives in the engine's metrics registry.
    served = family_total(engine.metrics.snapshot(), "engine_requests_total")
    print("program cache    :", engine.program_cache_stats._asdict())
    print("result cache     :", engine.result_cache_stats._asdict())
    print("requests served  :", int(served))


if __name__ == "__main__":
    main()

"""kD-tree: count points inside query rectangles (Table III row 8).

The tree is stored in DRAM as node arrays (split dimension, split value,
children, and leaf point ranges).  Each thread answers one rectangle query by
traversing the tree with an explicit per-thread SRAM stack — the
data-structure-traversal workload the paper uses to compare against Aurochs
and the GPU.  (The paper's implementation spawns children with ``fork``; the
explicit stack exercises the same data-dependent traversal on our machine
model, and ``fork`` is exercised separately by the hierarchy-elimination path
— see DESIGN.md.)
"""

from __future__ import annotations

from typing import List

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

LEAF_SIZE = 8

SOURCE = """
DRAM<int> node_dim;
DRAM<int> node_split;
DRAM<int> node_left;
DRAM<int> node_right;
DRAM<int> node_start;
DRAM<int> node_count;
DRAM<int> px;
DRAM<int> py;
DRAM<int> queries;
DRAM<int> out;

void main(int count) {
  foreach (count) { int q =>
    int xmin = queries[q * 4];
    int xmax = queries[q * 4 + 1];
    int ymin = queries[q * 4 + 2];
    int ymax = queries[q * 4 + 3];
    SRAM<64> stack;
    stack[0] = 0;
    int sp = 1;
    int found = 0;
    while (sp > 0) {
      sp = sp - 1;
      int node = stack[sp];
      int l = node_left[node];
      if (l < 0) {
        int s = node_start[node];
        int c = node_count[node];
        int k = 0;
        while (k < c) {
          int x = px[s + k];
          int y = py[s + k];
          if (x >= xmin && x <= xmax && y >= ymin && y <= ymax) {
            found = found + 1;
          }
          k = k + 1;
        };
      } else {
        int d = node_dim[node];
        int split = node_split[node];
        int lo = xmin;
        int hi = xmax;
        if (d == 1) { lo = ymin; hi = ymax; }
        if (lo <= split) {
          stack[sp] = l;
          sp = sp + 1;
        }
        if (hi > split) {
          stack[sp] = node_right[node];
          sp = sp + 1;
        }
      }
    };
    out[q] = found;
  };
}
"""


class _TreeBuilder:
    """Builds a 2-D k-d tree over integer points into flat node arrays."""

    def __init__(self):
        self.dim: List[int] = []
        self.split: List[int] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.start: List[int] = []
        self.count: List[int] = []
        self.px: List[int] = []
        self.py: List[int] = []

    def build(self, points: List[tuple], depth: int = 0) -> int:
        node = len(self.dim)
        for array in (self.dim, self.split, self.left, self.right, self.start,
                      self.count):
            array.append(0)
        if len(points) <= LEAF_SIZE:
            self.left[node] = -1
            self.right[node] = -1
            self.start[node] = len(self.px)
            self.count[node] = len(points)
            for x, y in points:
                self.px.append(x)
                self.py.append(y)
            return node
        axis = depth % 2
        ordered = sorted(points, key=lambda p: p[axis])
        median = len(ordered) // 2
        split_value = ordered[median - 1][axis]
        low = [p for p in ordered if p[axis] <= split_value]
        high = [p for p in ordered if p[axis] > split_value]
        if not high:  # all coordinates equal: fall back to a leaf
            self.left[node] = -1
            self.right[node] = -1
            self.start[node] = len(self.px)
            self.count[node] = len(points)
            for x, y in points:
                self.px.append(x)
                self.py.append(y)
            return node
        self.dim[node] = axis
        self.split[node] = split_value
        self.left[node] = self.build(low, depth + 1)
        self.right[node] = self.build(high, depth + 1)
        return node


def generate(count: int, seed: int = 0, num_points: int = 512,
             coord_range: int = 1000, query_span: int = 120) -> AppInstance:
    rng = seeded_rng(seed)
    points = [(rng.randint(0, coord_range), rng.randint(0, coord_range))
              for _ in range(num_points)]
    builder = _TreeBuilder()
    builder.build(points)
    queries = []
    flat_queries = []
    for _ in range(count):
        x0 = rng.randint(0, coord_range - query_span)
        y0 = rng.randint(0, coord_range - query_span)
        rect = (x0, x0 + query_span, y0, y0 + query_span)
        queries.append(rect)
        flat_queries.extend(rect)
    memory = MemorySystem()
    memory.dram_alloc("node_dim", data=builder.dim)
    memory.dram_alloc("node_split", data=builder.split)
    memory.dram_alloc("node_left", data=builder.left)
    memory.dram_alloc("node_right", data=builder.right)
    memory.dram_alloc("node_start", data=builder.start)
    memory.dram_alloc("node_count", data=builder.count)
    memory.dram_alloc("px", data=builder.px)
    memory.dram_alloc("py", data=builder.py)
    memory.dram_alloc("queries", data=flat_queries)
    memory.dram_alloc("out", size=count)
    return AppInstance(
        memory=memory,
        args={"count": count},
        context={"points": points, "queries": queries},
        total_bytes=count * 64,
    )


def reference(instance: AppInstance):
    points = instance.context["points"]
    results = []
    for xmin, xmax, ymin, ymax in instance.context["queries"]:
        results.append(sum(1 for x, y in points
                           if xmin <= x <= xmax and ymin <= y <= ymax))
    return results


SPEC = REGISTRY.register(AppSpec(
    name="kD-tree",
    description="Count points inside rectangles via k-d tree traversal",
    source=SOURCE,
    key_features=["fork", "SRAM stack", "nested while"],
    bytes_per_thread=64,
    avg_iterations_per_thread=24.0,
    paper_revet_gbs=52.0,
    paper_gpu_gbs=1.5,
    paper_cpu_gbs=3.4,
    generate=generate,
    reference=reference,
))

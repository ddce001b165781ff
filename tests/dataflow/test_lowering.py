"""Control-flow to dataflow lowering: what crosses a region op, and why.

``if``/``while``/``fork``/exit filters/``replicate`` reorder, drop or
duplicate rows, so every value read later has to cross them and nothing else
should (each crossing is a partition and a merge per loop turn).  See the
"Live values" section of ``repro/dataflow/lowering.py``.
"""

import functools

import pytest

from repro.apps import REGISTRY
from repro.compiler import CompileOptions, compile_source
from repro.core.graph import LEAF_OPS, REGION_OPS, DFGraph
from repro.core.memory import MemorySystem
from repro.dataflow.lowering import _Scope
from repro.errors import LoweringError
from repro.ir import I32, Value

OPTIONS = {"default": CompileOptions(), "none": CompileOptions.none()}
EXECUTORS = ["token", "columnar"]
CROSSING_OPS = ("if", "while", "filter", "fork", "replicate")


# -- (a) every port of every crossing op is needed --------------------------


def _unneeded_ports(graph):
    """Ports of crossing ops that carry a link nobody uses.

    A region input is needed when a node of some region consumes it, or when
    a region hands it back unchanged and the parent reads that output; a
    filter/fork port is needed when the parent reads its output.
    """
    unneeded = []
    for parent, node in graph.walk():
        if node.op not in CROSSING_OPS:
            continue
        read = ({v.uid for n in parent.nodes for v in n.inputs}
                | {v.uid for v in parent.outputs})
        if not node.regions:
            carried = node.outputs[1:] if node.op == "fork" else node.outputs
            idle = [out.name for out in carried if out.uid not in read]
        else:
            needed = set()
            for region in node.regions:
                consumed = {v.uid for n in region.nodes for v in n.inputs}
                needed.update(p for p, v in enumerate(region.inputs)
                              if v.uid in consumed)
            # Only a while's body hands its inputs back (cond yields a flag).
            for region in node.regions[-1:] if node.op == "while" else node.regions:
                needed.update(region.inputs.index(v)
                              for v, out in zip(region.outputs, node.outputs)
                              if v in region.inputs and out.uid in read)
            idle = [v.name for p, v in enumerate(node.regions[0].inputs)
                    if p not in needed]
        unneeded += [(node.op, name) for name in idle]
    return unneeded


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_every_crossing_port_is_needed(app, options):
    program = REGISTRY.get(app).compile(OPTIONS[options])
    assert _unneeded_ports(program.graph) == []


def test_huff_dec_inner_if_carries_only_live_values():
    """41 ports when everything in scope crossed; 15 values are live."""
    program = REGISTRY.get("huff-dec").compile()
    (inner_if,) = [node for _, node in program.graph.walk() if node.op == "if"]
    assert len(inner_if.inputs) <= 17
    assert len(inner_if.outputs) <= len(inner_if.inputs)


# -- (b), (c) values that die across a region op -----------------------------


def _run(source, options, executor, segments, **args):
    memory = MemorySystem()
    for name, data in segments.items():
        memory.dram_alloc(name, data=list(data))
    compile_source(source, options=OPTIONS[options]).run(
        memory, executor=executor, **args)
    return memory


DATA = [0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 3, 8]

EXIT_IN_ARM = """
DRAM<int> a;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int x = a[i];
    int scale = x * 3;
    int y = x + 1;
    if (x > 2) {
      if (x > 5) { exit(); }
      y = y + scale;
    }
    out[i] = y;
  };
}
"""

WHILE_IN_ARM = """
DRAM<int> a;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int x = a[i];
    int trips = x & 3;
    int acc = 0;
    if (x > 4) {
      int j = 0;
      while (j < trips) {
        acc = acc + x;
        j = j + 1;
      };
    } else {
      acc = 0 - x;
    }
    out[i] = acc + 1;
  };
}
"""

FORK_IN_ARM = """
DRAM<int> a;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int x = a[i];
    int copies = (x & 1) + 1;
    int base = i * 2;
    int slot = base;
    if (x > 3) {
      int child = fork(copies);
      slot = base + child;
    }
    out[slot] = x;
  };
}
"""

IF_RESULT_INTO_WHILE_YIELD = """
DRAM<int> a;
DRAM<int> hits;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int x = a[i];
    int j = 0;
    int found = 0;
    while (j < 4) {
      if (x > j * 3) {
        hits[i * 4 + j] = x;
        found = found + x;
      }
      j = j + 1;
    };
    out[i] = found;
  };
}
"""

INIT_ALSO_READ_AS_ITSELF = """
DRAM<int> a;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int limit = a[i];
    int j = limit;
    int sum = 0;
    while (j > 0) {
      sum = sum + limit;
      j = j - 1;
    };
    out[i] = sum + limit;
  };
}
"""


def _exit_in_arm(data):
    out = [0] * len(data)
    for i, x in enumerate(data):
        if x > 5:
            continue  # the thread exited before its store
        out[i] = x + 1 + (3 * x if x > 2 else 0)
    return {"out": out}


def _while_in_arm(data):
    return {"out": [((x & 3) * x if x > 4 else -x) + 1 for x in data]}


def _fork_in_arm(data):
    out = [0] * (2 * len(data))
    for i, x in enumerate(data):
        for child in range((x & 1) + 1 if x > 3 else 1):
            out[2 * i + child] = x
    return {"out": out}


def _if_result_into_while_yield(data):
    hits = [0] * (4 * len(data))
    out = []
    for i, x in enumerate(data):
        taken = [j for j in range(4) if x > j * 3]
        for j in taken:
            hits[4 * i + j] = x
        out.append(x * len(taken))
    return {"hits": hits, "out": out}


def _init_also_read_as_itself(data):
    return {"out": [x * x + x for x in data]}


CASES = {
    "exit-in-arm": (EXIT_IN_ARM, _exit_in_arm),
    "while-in-arm": (WHILE_IN_ARM, _while_in_arm),
    "fork-in-arm": (FORK_IN_ARM, _fork_in_arm),
    "if-result-into-while-yield": (IF_RESULT_INTO_WHILE_YIELD,
                                   _if_result_into_while_yield),
    "init-also-read-as-itself": (INIT_ALSO_READ_AS_ITSELF,
                                 _init_also_read_as_itself),
}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_values_dying_across_region_ops(case, options, executor):
    source, reference = CASES[case]
    expected = reference(DATA)
    segments = {"a": DATA}
    segments.update({name: [0] * len(values)
                     for name, values in expected.items()})
    memory = _run(source, options, executor, segments, n=len(DATA))
    assert {name: memory.segment_data(name) for name in expected} == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_small_programs_carry_nothing_unneeded(case):
    program = compile_source(CASES[case][0], options=CompileOptions.none())
    assert _unneeded_ports(program.graph) == []


# -- a pruned value is an error, not a stale read ----------------------------


def test_value_that_did_not_cross_cannot_be_read():
    graph = DFGraph("g")
    kept_link, dropped_link = graph.add_input("kept"), graph.add_input("dropped")
    kept, dropped = Value(I32, name="kept"), Value(I32, name="dropped")
    scope = _Scope(graph, kept_link)
    scope.bind(kept, kept_link)
    scope.bind(dropped, dropped_link)
    node = graph.add_node("filter", [kept_link, kept_link], num_outputs=1)

    scope.rebind([id(kept)], [kept_link], node.outputs)

    assert scope.lookup(kept) is node.outputs[0]
    assert scope.struct_ref is node.outputs[0]
    with pytest.raises(LoweringError, match="not live across"):
        scope.lookup(dropped)


# -- the node vocabulary is exactly what the lowering emits -----------------

VOCABULARY_OPTIONS = {
    "default": CompileOptions(),
    "none": CompileOptions.none(),
    "unflattened": CompileOptions().disabled("hierarchy_elimination"),
}


@functools.lru_cache(maxsize=None)
def _emitted_ops(app):
    """Node ops in ``app``'s graph under each of the three option sets."""
    source = REGISTRY.get(app).source
    return frozenset(op for options in VOCABULARY_OPTIONS.values()
                     for op in compile_source(source, options=options)
                     .graph.count_ops())


@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_app_lowers_into_the_node_vocabulary(app):
    """An op the lowering emits but the vocabulary lacks fails here, by app
    (``DFNode`` refuses it at compile time)."""
    assert _emitted_ops(app) <= LEAF_OPS | REGION_OPS


def test_every_node_op_is_emitted_by_some_app():
    """An op in the vocabulary that no compiled program contains is dead:
    no executor handler for it should exist either."""
    emitted = frozenset().union(*map(_emitted_ops, REGISTRY.names()))
    assert emitted == LEAF_OPS | REGION_OPS


# -- constants are immediates; one copy of each pure leaf; no dead leaf ------

PURE_OPS = ("compute", "const")


def _graphs(graph):
    """``graph`` and, depth first, every region graph under it."""
    yield graph
    for node in graph.nodes:
        for region in node.regions:
            yield from _graphs(region)


def _readers(graph):
    """Link uid -> the nodes of ``graph`` that read it."""
    readers = {}
    for node in graph.nodes:
        for v in node.inputs:
            readers.setdefault(v.uid, []).append(node)
    return readers


@functools.lru_cache(maxsize=None)
def _compiled(app, options):
    return REGISTRY.get(app).compile(OPTIONS[options])


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_a_constant_read_only_by_computes_is_an_immediate(app, options):
    """A ``const`` node survives only for a reader that needs a link: a
    non-``compute`` node, a region output, or the one link operand of a
    ``compute`` whose other operands are all immediates."""
    stray = []
    for graph in _graphs(_compiled(app, options).graph):
        readers, outputs = _readers(graph), {v.uid for v in graph.outputs}
        for node in graph.nodes:
            out = node.outputs[0] if node.op == "const" else None
            if out is None or out.uid in outputs:
                continue
            users = readers.get(out.uid, [])
            if all(user.op == "compute" and len(user.inputs) > 1 for user in users):
                stray.append((graph.name, node.params["value"]))
    assert stray == []


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_one_copy_of_each_pure_leaf_per_region(app, options):
    seen = {}
    for graph in _graphs(_compiled(app, options).graph):
        for node in graph.nodes:
            if node.op not in PURE_OPS:
                continue
            key = (id(graph), node.op, tuple(sorted(node.params.items())),
                   tuple(v.uid for v in node.inputs))
            assert key not in seen, f"{node!r} repeats {seen[key]!r}"
            seen[key] = node


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_no_dead_pure_leaf(app, options):
    for graph in _graphs(_compiled(app, options).graph):
        read = set(_readers(graph)) | {v.uid for v in graph.outputs}
        dead = [node for node in graph.nodes
                if node.op in PURE_OPS and node.outputs[0].uid not in read]
        assert dead == []


DEAD_ARITHMETIC = """
DRAM<int> a;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int x = a[i];
    int unused = x * 3 + 1;
    int halved = x / 2;
    int quotient = x / i;
    if (x > 2) {
      int wasted = (x - 1) * 5;
      out[i] = x;
    }
  };
}
"""


def test_dead_leaves_go_but_a_div_by_a_link_stays():
    """Unread ``x * 3 + 1``, ``x / 2`` and, inside the ``if``,
    ``(x - 1) * 5`` are dropped; ``x / i`` may raise (thread 0 divides by
    zero), so it stays and still raises."""
    program = compile_source(DEAD_ARITHMETIC, options=CompileOptions.none())
    body = next(node for _, node in program.graph.walk()
                if node.op == "foreach").regions[0]
    assert sorted(node.params.get("fn", node.op) for node in body.nodes) == [
        "add", "div", "dram_read", "gt", "if"]
    (div,) = [node for node in body.nodes if node.params.get("fn") == "div"]
    assert "imm" not in div.params and len(div.inputs) == 2
    then = next(node for node in body.nodes if node.op == "if").regions[0]
    assert sorted(node.params.get("fn", node.op) for node in then.nodes) == [
        "add", "dram_write"]
    for executor in EXECUTORS:
        with pytest.raises(ZeroDivisionError):
            _run(DEAD_ARITHMETIC, "none", executor,
                 {"a": DATA, "out": [0] * len(DATA)}, n=len(DATA))


CAPTURED_CONSTANT = """
DRAM<int> a;
DRAM<int> out;
void main(int n) {
  foreach (n) { int i =>
    int step = 3;
    int x = a[i];
    int j = 0;
    while (j < x) {
      j = j + step;
    };
    out[i] = j;
  };
}
"""


@pytest.mark.parametrize("options", sorted(OPTIONS))
def test_a_captured_constant_stays_an_immediate(options):
    """``step`` is read inside the loop: it is an immediate there, not a
    port of the ``while`` (only ``j``'s initial 0 enters as a ``const``)."""
    program = compile_source(CAPTURED_CONSTANT, options=OPTIONS[options])
    (loop,) = [node for _, node in program.graph.walk() if node.op == "while"]
    assert [v.producer.params["value"] for v in loop.inputs
            if v.producer is not None and v.producer.op == "const"] == [0]
    body = loop.regions[1]
    (add,) = [node for node in body.nodes if node.op == "compute"]
    assert add.params["imm"] == ((1, 3),)
    memory = _run(CAPTURED_CONSTANT, options, "columnar",
                  {"a": DATA, "out": [0] * len(DATA)}, n=len(DATA))
    assert memory.segment_data("out") == [-(-x // 3) * 3 for x in DATA]


#: ``sum(ExecutionProfile.node_firings.values())`` at 8 threads, seed 1,
#: default options.
NODE_FIRINGS = {
    "hash-table": 77, "huff-dec": 15337, "huff-enc": 1602, "ip2int": 741,
    "isipv4": 905, "kD-tree": 2380, "murmur3": 839, "search": 3028,
    "strlen": 938,
}


@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_node_firings_are_pinned(app):
    spec = REGISTRY.get(app)
    instance = spec.make_instance(8, 1)
    runner = _compiled(app, "default").run(
        instance.memory, profile=True, link_stats=False, **instance.args)
    assert sum(runner.profile.node_firings.values()) == NODE_FIRINGS[app]

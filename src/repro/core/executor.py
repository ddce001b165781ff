"""Functional streaming executor for structured dataflow graphs.

The executor gives the *untimed* semantics of a compiled Revet program: it
runs a :class:`repro.core.graph.DFGraph` to completion, node by node in
topological order, using the streaming primitives of
:mod:`repro.core.primitives`.  Region nodes (``while``, ``foreach``,
``replicate``) are executed recursively; memory operations act on a shared
:class:`repro.core.memory.MemorySystem`.

The executor also counts node firings and ``while`` trip counts in an
:class:`ExecutionProfile`.  The performance model
(:func:`repro.sim.perf_model.model_inputs`) reads the trip counts, with the
memory system's traffic counters, to derive throughput, which is how the
paper's ``runtime = size / throughput + init`` evaluation model is
reproduced without re-running token-level timing for full-size datasets.

Serving fast path
-----------------

A cold serving request executes one graph exactly once, but region bodies
re-run once per loop iteration, so naive per-visit work (re-deriving the
topological order, ``getattr``-resolving the handler for every node firing,
re-resolving ``compute`` opcodes) dominates the cold path.  A
:class:`NodeSchedule` precompiles all of that once per program — the topo
order of every graph in the hierarchy, the set of ops to bind handlers for,
each ``compute`` node's :mod:`repro.core.opcodes` entry with its immediates
bound, and each maximal run of consecutive ``compute`` steps as one
:class:`ComputeRun` — and is cached per graph (keyed on the graph's
structural version), so every executor over the same compiled program
shares one schedule.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import primitives as prim
from repro.core.graph import DFGraph, DFNode
from repro.core.memory import MemorySystem
from repro.core.opcodes import Opcode, immediate, is_word, resolve
from repro.core.sltf import Barrier, Data, Stream, Token, encode
from repro.errors import GraphError, PrimitiveError


@dataclass
class ExecutionProfile:
    """Per-node and per-loop counts gathered by the executor.

    ``vector_exits`` counts the firings in which the columnar executor left
    its whole-array path, keyed ``"<op>:<reason>"`` (see
    :meth:`repro.core.columnar.ColumnarExecutor._exit`); the token executor
    leaves it empty.
    """

    node_firings: Dict[str, int] = field(default_factory=dict)
    loop_iterations: Dict[str, int] = field(default_factory=dict)
    vector_exits: Dict[str, int] = field(default_factory=dict)

    def record_loop(self, label: str, iterations: int) -> None:
        self.loop_iterations[label] = self.loop_iterations.get(label, 0) + iterations


class ComputeRun:
    """A maximal run of two or more consecutive ``compute`` steps of one
    graph, which the columnar executor fires as one step.

    Operands are numbered slots: the run's external input links (``inputs``,
    in first-use order), then its distinct immediates (``constants``, as
    0-d ``int64`` arrays), then each member's output.  ``members`` holds one
    ``(node, vector kernel, operand slots, link operand slots)`` per node,
    in schedule order: the kernel is the unbound table entry's, called with
    every operand in place.
    """

    __slots__ = ("inputs", "constants", "members")

    def __init__(self, steps: Sequence[tuple]):
        self.inputs: List[int] = []
        self.constants: List[Any] = []
        external: Dict[int, int] = {}
        produced: Dict[int, int] = {}
        links_of = []
        for k, (node, _, in_uids, out_uids) in enumerate(steps):
            links = []
            for uid in in_uids:
                if uid in produced:
                    # An earlier member's output: its slot is known below.
                    links.append(~produced[uid])
                    continue
                if uid not in external:
                    external[uid] = len(self.inputs)
                    self.inputs.append(uid)
                links.append(external[uid])
            links_of.append(links)
            produced[out_uids[0]] = k
        imm_slot: Dict[int, int] = {}
        for node, _, _, _ in steps:
            for _, value in node.params.get("imm", ()):
                if value not in imm_slot:
                    imm_slot[value] = len(self.inputs) + len(self.constants)
                    self.constants.append(immediate(value))
        first_output = len(self.inputs) + len(self.constants)
        self.members = []
        for (node, _, _, _), links in zip(steps, links_of):
            link_slots = tuple(r if r >= 0 else first_output + ~r for r in links)
            args = list(link_slots)
            for pos, value in sorted(node.params.get("imm", ())):
                args.insert(pos, imm_slot[value])
            self.members.append((node, resolve(node.params["fn"]).vector,
                                 tuple(args), link_slots))


class NodeSchedule:
    """A precompiled execution plan for one structured-graph hierarchy.

    Built once per compiled program and shared by every executor over it:

    * the memoized topological order of the root graph and every nested
      region graph (``steps``), and the same order with each maximal run of
      consecutive ``compute`` steps grouped into one :class:`ComputeRun`
      (``runs``),
    * each ``compute`` node's opcode table entry, its immediates bound
      (``opcode``), and
    * the set of ops that appear anywhere in the hierarchy, so an executor
      can resolve its handler table once instead of per node firing.

    Schedules are immutable snapshots: they record the structural
    :attr:`~repro.core.graph.DFGraph.version` of every graph in the
    hierarchy at build time, and :func:`schedule_for` rebuilds
    automatically when any of them has changed.  In-place *node* mutations
    (e.g. rewriting ``params['fn']`` on an existing node) are not tracked —
    graphs are append-only after construction everywhere in this codebase.

    A schedule never references its root graph: it is the *value* under
    that graph's weak key in the :func:`schedule_for` cache, and a value
    that kept its own key alive could never be freed.  Whoever runs a
    schedule holds the root, which is what keeps its ``id()`` key in
    ``_steps`` unambiguous.
    """

    __slots__ = ("version", "ops", "_steps", "_runs", "_io", "_opcodes", "_regions")

    def __init__(self, graph: DFGraph):
        #: Structural version of the root graph at build time.
        self.version = graph.version
        self.ops: set = set()
        self._steps: Dict[int, List[tuple]] = {}
        self._runs: Dict[int, List[tuple]] = {}
        self._io: Dict[int, tuple] = {}
        self._opcodes: Dict[int, Opcode] = {}
        #: ``(graph, version at build time)`` for every graph below the
        #: root; strong references, so a dead region's id can never alias
        #: a new graph.
        self._regions: List[tuple] = []
        self._add_graph(graph)

    def stale(self, root: DFGraph) -> bool:
        """True when ``root`` or any region under it mutated after scheduling."""
        return root.version != self.version or any(
            graph.version != version for graph, version in self._regions
        )

    def _add_graph(self, graph: DFGraph) -> None:
        steps = self._steps[id(graph)] = self._prepare(graph)
        self._io[id(graph)] = ([v.uid for v in graph.inputs],
                               [v.uid for v in graph.outputs])
        for node in graph.topo_order():
            self.ops.add(node.op)
            if node.op == "const":
                _check_words(node, (node.params.get("value"),))
            elif node.op == "compute":
                imm = node.params.get("imm", ())
                _check_words(node, [value for _, value in imm])
                self._opcodes[node.uid] = resolve(node.params.get("fn")).bind(
                    imm, len(node.inputs) + len(imm))
            for region in node.regions:
                self._regions.append((region, region.version))
                self._add_graph(region)
        self._runs[id(graph)] = self._group(steps)

    def _group(self, steps: List[tuple]) -> List[tuple]:
        """``steps`` with each maximal run of two or more consecutive
        ``compute`` steps replaced by one ``(run, "compute", in_uids,
        out_uids)`` step over a :class:`ComputeRun`."""
        grouped: List[tuple] = []
        run: List[tuple] = []
        for step in steps + [None]:
            if step is not None and step[1] == "compute":
                run.append(step)
                continue
            if len(run) > 1:
                fused = ComputeRun(run)
                grouped.append((fused, "compute", fused.inputs,
                                [s[3][0] for s in run]))
            else:
                grouped.extend(run)
            run = []
            if step is not None:
                grouped.append(step)
        return grouped

    @staticmethod
    def _prepare(graph: DFGraph) -> List[tuple]:
        """One ``(node, op, input_uids, output_uids)`` step per node in topo
        order, so the run loop chases no attributes per firing."""
        return [
            (node, node.op, [v.uid for v in node.inputs],
             [v.uid for v in node.outputs])
            for node in graph.topo_order()
        ]

    def steps(self, graph: DFGraph) -> List[tuple]:
        """Prepared steps for ``graph`` (any graph in the hierarchy)."""
        return self._steps[id(graph)]

    def io(self, graph: DFGraph) -> tuple:
        """The input uids and the output uids of ``graph``."""
        return self._io[id(graph)]

    def runs(self, graph: DFGraph) -> List[tuple]:
        """``steps(graph)`` with its compute runs grouped (see ``_group``)."""
        return self._runs[id(graph)]

    def opcode(self, node: DFNode) -> Opcode:
        """The opcode table entry of ``compute`` node ``node``, bound to the
        node's immediates (:meth:`repro.core.opcodes.Opcode.bind`)."""
        return self._opcodes[node.uid]


#: One schedule per live graph; entries die with their graph, and stale
#: schedules (the graph mutated after scheduling) are rebuilt on demand.
_SCHEDULES: "weakref.WeakKeyDictionary[DFGraph, NodeSchedule]" = (
    weakref.WeakKeyDictionary()
)


def schedule_for(graph: DFGraph) -> NodeSchedule:
    """Return the cached :class:`NodeSchedule` for ``graph``, building it
    (or rebuilding it after a structural mutation anywhere in the graph's
    region hierarchy) if needed."""
    schedule = _SCHEDULES.get(graph)
    if schedule is None or schedule.stale(graph):
        schedule = NodeSchedule(graph)
        _SCHEDULES[graph] = schedule
    return schedule


def zip_streams(*streams: Sequence[Token]) -> Stream:
    """Combine parallel live-value streams into a stream of tuples."""
    if len(streams) == 1:
        return [Data((t.value,)) if isinstance(t, Data) else t for t in streams[0]]
    return prim.elementwise(lambda *vals: tuple(vals), *streams)


def unzip_stream(stream: Sequence[Token], width: int) -> List[Stream]:
    """Split a stream of tuples back into ``width`` parallel streams."""
    outs: List[Stream] = [[] for _ in range(width)]
    for tok in stream:
        if isinstance(tok, Barrier):
            for out in outs:
                out.append(tok)
        else:
            values = tok.value
            if len(values) != width:
                raise PrimitiveError(
                    f"expected {width}-tuples in zipped stream, got {values!r}"
                )
            for i, out in enumerate(outs):
                out.append(Data(values[i]))
    return outs


def merge_bundles(a: Sequence[Stream], b: Sequence[Stream]) -> List[Stream]:
    """Forward-merge two parallel bundles (the join after an ``if``).

    Wider bundles merge jointly, zipped, so each thread's live values stay
    together.
    """
    if len(a) == 1:
        return [prim.forward_merge(a[0], b[0])]
    merged = prim.forward_merge(zip_streams(*a), zip_streams(*b))
    return unzip_stream(merged, len(a))


class Executor:
    """Runs structured dataflow graphs with functional SLTF semantics."""

    #: Livelock guard: turns one ``while`` barrier group may take.  A test
    #: lowers it on one instance.
    max_loop_iterations = 1_000_000

    def __init__(
        self,
        graph: DFGraph,
        memory: Optional[MemorySystem] = None,
    ):
        self.graph = graph
        self.memory = memory if memory is not None else MemorySystem()
        self.profile = ExecutionProfile()
        self._schedule = schedule_for(graph)
        # Handler table resolved once per executor (bound methods), not once
        # per node firing.
        self._handlers: Dict[str, Callable[[DFNode, List[Stream]], List[Stream]]] = {
            op: getattr(self, f"_op_{op}") for op in self._schedule.ops
        }

    # -- public API ---------------------------------------------------------

    def run(self, inputs: Optional[Dict[str, Any]] = None) -> Dict[str, Stream]:
        """Execute the graph and return its output streams keyed by name.

        ``inputs`` maps graph-input names to either token streams or nested
        Python lists (which are encoded with :func:`repro.core.sltf.encode`
        using rank 1 for flat lists).
        """
        inputs = inputs or {}
        env: Dict[int, Stream] = {}
        for value in self.graph.inputs:
            if value.name not in inputs:
                raise GraphError(f"missing input stream '{value.name}'")
            env[value.uid] = _as_stream(inputs[value.name])
        outputs = self._run_graph(self.graph, env)
        return {v.name: outputs[v.uid] for v in self.graph.outputs}

    # -- graph / node evaluation ---------------------------------------------

    def _run_graph(self, graph: DFGraph, env: Dict[int, Stream]) -> Dict[int, Stream]:
        firings = self.profile.node_firings
        handlers = self._handlers
        for node, op, in_uids, out_uids in self._schedule.steps(graph):
            in_streams = [env[uid] for uid in in_uids]
            firings[op] = firings.get(op, 0) + 1
            out_streams = handlers[op](node, in_streams)
            if len(out_streams) != len(out_uids):
                raise GraphError(
                    f"node {node!r} produced {len(out_streams)} streams, "
                    f"expected {len(out_uids)}"
                )
            env.update(zip(out_uids, out_streams))
        return env

    def _run_subgraph(self, graph: DFGraph, inputs: Sequence[Stream]) -> List[Stream]:
        in_uids, out_uids = self._schedule.io(graph)
        if len(inputs) != len(in_uids):
            raise GraphError(
                f"region '{graph.name}' expects {len(in_uids)} inputs, "
                f"got {len(inputs)}"
            )
        # Streams are immutable by convention (every primitive builds fresh
        # lists), so region inputs are bound without a defensive copy.
        env = self._run_graph(graph, dict(zip(in_uids, inputs)))
        return [env[uid] for uid in out_uids]

    # -- element-wise and structural ops --------------------------------------

    def _op_compute(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        return [prim.elementwise(self._schedule.opcode(node).scalar, *ins)]

    def _op_const(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        return [prim.constant_like(ins[0], node.params["value"])]

    def _op_filter(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        pred = ins[-1]
        if len(ins) == 2:
            return [prim.filter_stream(ins[0], pred)]
        # Thread-exit filters touch every live link with the same predicate;
        # one shared predicate scan instead of one per link.
        return prim.filter_streams(ins[:-1], pred)

    def _op_fork(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        counts = ins[0]
        # First output: the per-child index (0 .. count-1 for each parent).
        indices: Stream = []
        for tok in counts:
            if isinstance(tok, Barrier):
                indices.append(tok)
            else:
                indices.extend(Data(i) for i in range(tok.value))
        return [indices] + [prim.fork_stream(counts, data) for data in ins[1:]]

    # -- memory ops -----------------------------------------------------------

    def _op_sram_alloc(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        site = node.params.get("site", "default")
        words = node.params.get("buffer_words", 64)
        max_buffers = node.params.get("max_buffers", 4096)
        trigger = ins[0] if ins else [Data(0), Barrier(1)]
        out = prim.map_stream(
            lambda _v: self.memory.sram_alloc(site, words, max_buffers), trigger
        )
        return [out]

    def _op_sram_free(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        site = node.params.get("site", "default")

        def do_free(ptr: Any) -> int:
            self.memory.sram_free(site, ptr)
            return 0

        return [prim.map_stream(do_free, ins[0])]

    def _op_sram_read(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        site = node.params.get("site", "default")
        return [prim.map_stream(lambda addr: self.memory.sram_read(site, addr), ins[0])]

    def _op_sram_write(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        site = node.params.get("site", "default")

        def do_write(addr: Any, value: Any) -> int:
            self.memory.sram_write(site, addr, value)
            return 0

        return [prim.elementwise(do_write, ins[0], ins[1])]

    def _op_dram_read(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        return [prim.map_stream(self.memory.dram_read, ins[0])]

    def _op_dram_write(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        def do_write(addr: Any, value: Any) -> int:
            self.memory.dram_write(addr, value)
            return 0

        return [prim.elementwise(do_write, ins[0], ins[1])]

    def _op_bulk_load(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        site = node.params.get("site", "default")
        size = node.params["size"]

        def do_load(dram_base: Any, sram_base: Any) -> int:
            self.memory.bulk_load(site, dram_base, sram_base, size)
            return 0

        return [prim.elementwise(do_load, ins[0], ins[1])]

    def _op_bulk_store(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        site = node.params.get("site", "default")
        size = node.params["size"]

        if len(ins) > 2:
            # Dynamic count (bounded by the static tile size): used for the
            # final partial flush of write iterators.
            def do_store_counted(dram_base: Any, sram_base: Any, count: Any) -> int:
                self.memory.bulk_store(site, dram_base, sram_base,
                                       max(0, min(size, count)))
                return 0

            return [prim.elementwise(do_store_counted, ins[0], ins[1], ins[2])]

        def do_store(dram_base: Any, sram_base: Any) -> int:
            self.memory.bulk_store(site, dram_base, sram_base, size)
            return 0

        return [prim.elementwise(do_store, ins[0], ins[1])]

    # -- region ops -------------------------------------------------------------

    def _op_while(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        """Forward-backward loop over parallel live-value streams.

        The paper's Figure 4 forward-backward merge, run directly on the
        parallel streams: each barrier group is admitted alone and its
        threads iterate until none recirculates, and one shared predicate
        scan partitions every live link per turn.  The profile records one
        ``record_loop`` per loop turn, including the turn that finds the
        group empty.
        """
        cond_region, body_region = node.regions
        width = len(ins)
        label = node.params.get("label", f"while#{node.uid}")
        record_loop = self.profile.record_loop
        max_iterations = self.max_loop_iterations

        first = ins[0]
        length = len(first)
        for other in ins[1:]:
            if len(other) != length:
                raise PrimitiveError(
                    "while live streams have different lengths")

        outs: List[Stream] = [[] for _ in range(width)]
        groups: List[List[Token]] = [[] for _ in range(width)]
        for j in range(length):
            tok = first[j]
            if isinstance(tok, Data):
                for i in range(width):
                    t = ins[i][j]
                    if not isinstance(t, Data):
                        raise PrimitiveError(
                            f"while live streams misaligned at {t!r}")
                    groups[i].append(t)
                continue
            for i in range(1, width):
                t = ins[i][j]
                if not isinstance(t, Barrier) or t.level != tok.level:
                    raise PrimitiveError(
                        f"while live streams have mismatched barriers at {t!r}")
            # A barrier terminates the group: iterate its threads until the
            # recirculating set is empty, then emit the exited threads.
            live = [g + [Barrier(1)] for g in groups]
            groups = [[] for _ in range(width)]
            iterations = 0
            while True:
                record_loop(label, 1)
                cond = self._run_subgraph(cond_region, live)[0]
                continuing, exiting = prim.partition_streams(live, cond)
                for i in range(width):
                    outs[i].extend(
                        t for t in exiting[i] if isinstance(t, Data))
                next_live = self._run_subgraph(body_region, continuing)
                recirc = [t for t in next_live[0] if isinstance(t, Data)]
                if not recirc:
                    break
                live = [recirc] + [
                    [t for t in s if isinstance(t, Data)]
                    for s in next_live[1:]
                ]
                for s in live:
                    s.append(Barrier(1))
                iterations += 1
                if iterations > max_iterations:
                    raise PrimitiveError(
                        "forward-backward loop exceeded max_iterations; "
                        "possible livelock in loop body"
                    )
            for i in range(width):
                outs[i].append(Barrier(tok.level))
        if any(groups):
            raise PrimitiveError(
                "forward-backward loop input missing final barrier")
        return outs

    def _op_if(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        cond, live = ins[0], ins[1:]
        then_region, else_region = node.regions
        taken, fallthrough = prim.partition_streams(live, cond)
        then_out = self._run_subgraph(then_region, taken)
        else_out = self._run_subgraph(else_region, fallthrough)
        if not node.outputs:
            return []
        return merge_bundles(then_out, else_out)

    def _op_foreach(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        # Expand each parent into its children, broadcast the parent's live
        # values to them, and run the body; children yield nothing back.
        indices = prim.counter(ins[0], ins[1], ins[2])
        self._run_subgraph(node.regions[0], [indices] + [
            prim.broadcast(s, indices) for s in ins[3:]])
        return []

    def _op_replicate(self, node: DFNode, ins: List[Stream]) -> List[Stream]:
        # Functionally, a replicate region is a single copy of its body: the
        # factor only affects spatial resource allocation and load balancing,
        # which the performance model handles.  Thread order inside a barrier
        # group is unordered, so running one copy is semantically equivalent.
        body = node.regions[0]
        return self._run_subgraph(body, ins)


def _check_words(node: DFNode, values: Sequence[Any]) -> None:
    """Raise :class:`GraphError` unless every one of ``values`` (a node's
    constants) is an ``int64`` word."""
    for value in values:
        if not is_word(value):
            raise GraphError(f"node {node!r} holds {value!r}, not an int64 word")


def _as_stream(value: Any) -> Stream:
    """Coerce user-provided input (stream or nested list) into a stream of
    ``int64`` words; any other value raises :class:`GraphError`."""
    if not isinstance(value, list):
        raise GraphError(
            "graph inputs must be token streams or (nested) lists of values"
        )
    if value and isinstance(value[0], (Data, Barrier)):
        stream = list(value)
    else:
        rank = 1
        probe = value
        while probe and isinstance(probe[0], list):
            rank += 1
            probe = probe[0]
        stream = encode(value, ndim=rank) if value else []
    for tok in stream:
        if type(tok) is Data and not is_word(tok.value):
            raise GraphError(f"graph input value {tok.value!r} is not an int64 word")
    return stream


def run_graph(
    graph: DFGraph,
    inputs: Optional[Dict[str, Any]] = None,
    memory: Optional[MemorySystem] = None,
) -> Dict[str, Stream]:
    """Convenience wrapper: build an :class:`Executor` and run it once."""
    return Executor(graph, memory=memory).run(inputs)

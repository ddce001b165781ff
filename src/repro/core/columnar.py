"""Vectorized columnar executor: the backend that serves every request.

It runs a :class:`repro.core.graph.DFGraph` to completion over *columns*:
each SLTF link is represented as

* ``tags`` — one ``uint8`` per token position: ``0`` for a data element,
  ``level`` (1..15) for a barrier, and
* ``values`` — the data elements only, compacted into one ``int64``
  array (a value is a 64-bit word, see :mod:`repro.core.opcodes`).

Parallel live-value streams of one thread bundle share the *same* ``tags``
array object, so alignment checks are identity comparisons on the happy
path.  Straight-line (non-``while``) regions run as whole-array numpy ops.

``while`` regions drain one barrier group at a time, turn for turn like
the token executor (condition → boolean-mask partition → emit exiting rows
→ body → recirculate), with each turn's condition and body run columnar
over the group's still-live rows.  A program compiled without hierarchy
elimination therefore drains one narrow group per outer thread (``strlen``
at 128 threads: about 125 ms against 14 ms flattened).  The remedy is the
compiler pass, which hands the loop every thread in one group; the
executor does not re-derive that at run time.  Each group is one
barrier group of ``n`` rows, so the ``if`` partitions and merges inside a
loop split and join it by row numbers and one concatenation, without the
tag arithmetic a bundle of several groups takes.

The plan both executors run is a :class:`NodeSchedule`, built once per
program by :func:`schedule_for`: each graph's topological order, its
handler ops, each ``compute`` node's bound opcode and each run of
consecutive ``compute`` steps as one :class:`ComputeRun`.  Region bodies
re-run once per loop turn, so no firing re-derives any of it.

Generated regions
-----------------

From a program's second columnar run (``GENERATED_FROM_RUN``, counted on
its :class:`NodeSchedule`) each of its graphs runs as
one generated Python function: the links live in locals, and each step
counts its firings and calls its handler, as ``_run_graph`` does.  A first
run, which is all a cold request makes, interprets: generating costs
about one compile.

Bit-identity contract
---------------------

A columnar run must be indistinguishable from a run of the per-token
reference (:class:`repro.core.executor.Executor`): identical
output streams, identical memory contents and :class:`MemoryStats`
counters, identical profile counts (``node_firings``, ``loop_iterations``),
and identical exception types/messages on malformed input.  Both apply one
opcode table (:mod:`repro.core.opcodes`), whose kernels wrap exactly as its
scalars do.  A kernel that traps (a zero divisor, a negative shift count)
hands its rows to the scalar, which raises at the first trapping row.  A
malformed bundle raises where it is found, with the error worked out on
its columns (``docs/executor.md``, "Malformed bundles").
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import DFGraph, DFNode
from repro.core.memory import MemorySystem
from repro.core.opcodes import Opcode, immediate, is_word, resolve
from repro.core.sltf import MAX_BARRIER_LEVEL, Barrier, Data, Stream, encode
from repro.errors import GraphError, PrimitiveError


@dataclass
class ExecutionProfile:
    """Per-node and per-loop counts gathered by the executor."""

    node_firings: Dict[str, int] = field(default_factory=dict)
    loop_iterations: Dict[str, int] = field(default_factory=dict)

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

    A schedule also counts the columnar runs of its program
    (``columnar_runs``) and holds the functions :func:`_generate` makes for
    its graphs once the program is warm (``generated``, by ``id(graph)``);
    they capture nodes, never a graph, an executor or a memory.
    """

    __slots__ = ("version", "ops", "_steps", "_runs", "_io", "_opcodes", "_regions",
                 "columnar_runs", "generated")

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
        self.columnar_runs = 0
        self.generated: Dict[int, Any] = {}
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


def _wrong_outputs(node: DFNode, outs: Sequence[Any], expected: int) -> None:
    raise GraphError(
        f"node {node!r} produced {len(outs)} streams, expected {expected}")


def _wrong_inputs(name: str, expected: int, ins: Sequence[Any]) -> None:
    raise GraphError(f"region '{name}' expects {expected} inputs, got {len(ins)}")


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


# ---------------------------------------------------------------------------
# Column representation
# ---------------------------------------------------------------------------


class Column:
    """One SLTF link as (tags, values) arrays.

    ``tags[j] == 0`` marks a data element, ``tags[j] == level`` a barrier.
    ``values`` holds the data elements only, in stream order.  Columns are
    immutable by convention (every handler builds fresh arrays or shares
    inputs); aligned columns of one bundle share the same ``tags`` object.
    """

    __slots__ = ("tags", "values")

    def __init__(self, tags, values):
        self.tags = tags
        self.values = values

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def n_data(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({len(self.values)}d/{len(self.tags)}t)"


def from_stream(stream: Sequence) -> "Column":
    """Convert a token stream into a :class:`Column`."""
    n = len(stream)
    tags = np.zeros(n, dtype=np.uint8)
    vals: list = []
    append = vals.append
    for j, tok in enumerate(stream):
        if isinstance(tok, Data):
            append(tok.value)
        else:
            tags[j] = tok.level
    return Column(tags, np.array(vals, dtype=np.int64))


def to_stream(col: "Column") -> Stream:
    """Convert a :class:`Column` back into a token stream.

    ``ndarray.tolist()`` yields Python ints for ``int64`` values, so no
    numpy scalar ever leaks into a stream (or, downstream, into JSON).
    """
    out: Stream = []
    append = out.append
    vals = iter(col.values.tolist())
    for t in col.tags.tolist():
        append(Data(next(vals)) if t == 0 else Barrier(t))
    return out


def _align(cols: Sequence["Column"]) -> bool:
    """True when every column shares one structure.

    Canonicalizes equal-content tag arrays onto one shared object so later
    checks on the same bundle are identity-fast.
    """
    t0 = cols[0].tags
    for c in cols[1:]:
        t = c.tags
        if t is t0:
            continue
        if t.shape != t0.shape or not np.array_equal(t, t0):
            return False
        c.tags = t0
    return True


def _group_tags(n: int) -> np.ndarray:
    """The tags of one barrier group: ``n`` data rows, then a level-1 barrier."""
    tags = np.zeros(n + 1, np.uint8)
    tags[n] = 1
    return tags


def _token_at(col: "Column", j: int):
    """Reconstruct the token at stream position ``j`` (error paths only)."""
    tag = int(col.tags[j])
    if tag:
        return Barrier(tag)
    return Data(int(col.values[np.count_nonzero(col.tags[:j] == 0)]))


def _first_mismatch(cols: Sequence["Column"]) -> Tuple[int, int]:
    """The first position at which equal-length columns' tags differ from
    the first column's, and the first column that differs there."""
    tags0 = cols[0].tags
    diffs = (np.flatnonzero(c.tags != tags0) for c in cols)
    return min((int(d[0]), i) for i, d in enumerate(diffs) if d.size)


def _misalignment(ins: Sequence["Column"]) -> Tuple[int, PrimitiveError]:
    """First position where equal-length ``while`` live columns disagree
    with the first one, and the error the token scan raises there."""
    j, i = _first_mismatch(ins)
    tok = _token_at(ins[i], j)
    if ins[0].tags[j] == 0:
        return j, PrimitiveError(f"while live streams misaligned at {tok!r}")
    return j, PrimitiveError(
        f"while live streams have mismatched barriers at {tok!r}")


def _elementwise_error(
        cols: Sequence["Column"]) -> Tuple[List["Column"], PrimitiveError]:
    """What ``prim.elementwise`` raises on columns that do not share one
    structure, with the aligned columns of the data rows it takes first
    (none when the lengths differ, which it checks before any row)."""
    if any(len(c) != len(cols[0]) for c in cols):
        return [], PrimitiveError("element-wise inputs have different lengths")
    j, _ = _first_mismatch(cols)
    tags = cols[0].tags[:j]
    rows = int(np.count_nonzero(tags == 0))
    prefix = [Column(tags, c.values[:rows]) for c in cols] if rows else []
    toks = [_token_at(c, j) for c in cols]
    for tok in toks[1:]:
        if type(tok) is not type(toks[0]):
            break
        if type(tok) is Barrier and tok.level != toks[0].level:
            return prefix, PrimitiveError(
                f"element-wise inputs have mismatched barrier levels: {toks}")
    return prefix, PrimitiveError(f"element-wise inputs misaligned at {toks}")


def _predicate_error(
        cols: Sequence["Column"], pred: "Column", op: str) -> PrimitiveError:
    """What ``prim.filter_streams`` or ``prim.partition_streams`` (``op``)
    raises on data columns that do not share their predicate's structure."""
    for c in cols:
        if len(c) != len(pred):
            return PrimitiveError(f"{op} data and predicate have different lengths")
        if not np.array_equal(c.tags, pred.tags):
            break
    return PrimitiveError("filter predicate misaligned with data")


# ---------------------------------------------------------------------------
# Generated regions
# ---------------------------------------------------------------------------

#: The columnar run of a program (counted on its :class:`NodeSchedule`)
#: from which its graphs run generated code.  A first run never does:
#: generating costs about one compile, and a cold request runs once.
GENERATED_FROM_RUN = 2


def _generate(schedule: NodeSchedule, graph: DFGraph):
    """One Python function ``region(executor, inputs) -> outputs`` that runs
    ``schedule.runs(graph)`` as ``_run_graph`` does, with every link in a
    local: each step counts its firings, then calls its handler.

    Returns ``False`` for a graph whose outputs name a link nothing in it
    defines, which the interpreter runs (and fails) as before.
    """
    in_uids, out_uids = schedule.io(graph)
    defined = set(in_uids)
    nodes: Dict[str, Any] = {}

    def links(uids):
        return "".join(f"v{uid}, " for uid in uids)

    handlers: Dict[str, str] = {}
    body = []
    for k, (node, op, ins, outs) in enumerate(schedule.runs(graph)):
        nodes[f"n{k}"] = node
        run = type(node) is ComputeRun
        handler = handlers.setdefault(
            "ex._op_compute_run" if run else f"ex._handlers[{op!r}]",
            f"h{len(handlers)}")
        body += [f"    F[{op!r}] = F.get({op!r}, 0) + {len(outs) if run else 1}",
                 f"    o = {handler}(n{k}, [{links(ins)}])",
                 f"    if len(o) != {len(outs)}:",
                 f"        _wrong_outputs(n{k}, o, {len(outs)})",
                 f"    [{links(outs)}] = o"]
        defined.update(outs)
    if not defined.issuperset(out_uids):
        return False
    lines = ["def region(ex, ins):",
             f"    if len(ins) != {len(in_uids)}:",
             f"        _wrong_inputs({graph.name!r}, {len(in_uids)}, ins)",
             f"    [{links(in_uids)}] = ins",
             "    F = ex.profile.node_firings"]
    lines += [f"    {name} = {handler}" for handler, name in handlers.items()]
    lines += body + [f"    return [{links(out_uids)}]"]
    namespace = dict(nodes, _wrong_inputs=_wrong_inputs, _wrong_outputs=_wrong_outputs)
    exec(compile("\n".join(lines), f"<region {graph.name}>", "exec"), namespace)
    return namespace["region"]


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ColumnarExecutor:
    """Runs structured dataflow graphs over columns, with the semantics of
    the per-token reference (see the module docstring for the bit-identity
    contract)."""

    #: Livelock guard: turns one ``while`` barrier group may take.  A test
    #: lowers it on one instance.
    max_loop_iterations = 1_000_000

    def __init__(self, graph: DFGraph, memory: Optional[MemorySystem] = None):
        self.graph = graph
        self.memory = memory if memory is not None else MemorySystem()
        self.profile = ExecutionProfile()
        self._schedule = schedule_for(graph)
        #: Handler table resolved once per executor, not once per firing.
        self._handlers = {op: getattr(self, f"_op_{op}") for op in self._schedule.ops}
        #: id(graph) -> (graph, grouped steps with pre-resolved handlers and
        #: firing counts); graphs are kept alive by the tuple so ids cannot
        #: alias.
        self._bound_steps: Dict[int, tuple] = {}
        #: The schedule's generated region functions once this run is
        #: warm (see :func:`_generate`); ``None`` interprets every graph.
        self._generated: Optional[Dict[int, Any]] = None

    # -- public API ---------------------------------------------------------

    def run(self, inputs: Optional[Dict[str, Any]] = None) -> Dict[str, Stream]:
        """Execute the graph and return its output streams keyed by name.

        ``inputs`` maps graph-input names to token streams or nested lists
        of ``int64`` words (see :func:`_as_stream`).
        """
        inputs = inputs or {}
        cols: List[Column] = []
        for value in self.graph.inputs:
            if value.name not in inputs:
                raise GraphError(f"missing input stream '{value.name}'")
            cols.append(from_stream(_as_stream(inputs[value.name])))
        schedule = self._schedule
        # Runs on two threads may race here; a lost count or a function
        # generated twice only moves when the program starts generated code.
        schedule.columnar_runs += 1
        if schedule.columnar_runs >= GENERATED_FROM_RUN:
            self._generated = schedule.generated
        outputs = self._run_subgraph(self.graph, cols)
        return {v.name: to_stream(c) for v, c in zip(self.graph.outputs, outputs)}

    # -- graph walk -----------------------------------------------------------

    def _run_subgraph(self, graph: DFGraph, inputs: Sequence[Column]) -> List[Column]:
        generated = self._generated
        if generated is not None:
            region = generated.get(id(graph))
            if region is None:
                region = generated[id(graph)] = _generate(self._schedule, graph)
            if region:
                return region(self, inputs)
        in_uids, out_uids = self._schedule.io(graph)
        if len(inputs) != len(in_uids):
            _wrong_inputs(graph.name, len(in_uids), inputs)
        env = self._run_graph(graph, dict(zip(in_uids, inputs)))
        return [env[uid] for uid in out_uids]

    def _run_graph(self, graph: DFGraph, env: Dict[int, Any]) -> Dict[int, Any]:
        firings = self.profile.node_firings
        bound = self._bound_steps.get(id(graph))
        if bound is None or bound[0] is not graph:
            steps = []
            for node, op, in_uids, out_uids in self._schedule.runs(graph):
                run = type(node) is ComputeRun
                steps.append((self._op_compute_run if run else self._handlers[op],
                              node, op, len(out_uids) if run else 1, in_uids,
                              out_uids))
            bound = self._bound_steps[id(graph)] = (graph, steps)
        for handler, node, op, fired, in_uids, out_uids in bound[1]:
            in_cols = [env[uid] for uid in in_uids]
            firings[op] = firings.get(op, 0) + fired
            out_cols = handler(node, in_cols)
            if len(out_cols) != len(out_uids):
                _wrong_outputs(node, out_cols, len(out_uids))
            env.update(zip(out_uids, out_cols))
        return env

    def _misaligned(self, node: DFNode, ins: Sequence[Column]) -> None:
        """Raise what the token scan raises on element-wise inputs that do
        not share one structure, once ``node``'s handler has taken the rows
        that scan takes before it (their traps and writes included)."""
        prefix, error = _elementwise_error(ins)
        if prefix:
            self._handlers[node.op](node, prefix)
        raise error

    # -- element-wise and structural ops --------------------------------------

    def _op_compute(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            self._misaligned(node, ins)
        values = self._schedule.opcode(node).vector([c.values for c in ins])
        if values is None:
            # The kernel traps on some row: the scalar raises at the first.
            scalar = self._schedule.opcode(node).scalar
            rows = zip(*[c.values.tolist() for c in ins])
            values = np.array([scalar(*row) for row in rows], np.int64)
        return [Column(ins[0].tags, values)]

    def _op_compute_run(self, run: ComputeRun, ins: List[Column]) -> List[Column]:
        """Fire a :class:`ComputeRun`: one alignment check over its external
        inputs, then each member's kernel called directly on value arrays.

        Every member's link operands then share one structure, which is all
        ``_op_compute`` checks per node.  From the first member whose kernel
        traps, or from the first member when the check fails, the members
        run through ``_op_compute``.  ``_run_graph`` counts every member's
        firing; when a member raises, the ones after it are taken back off,
        so ``node_firings`` is what node-by-node execution counts.
        """
        constants, members = run.constants, run.members
        first_output = len(ins) + len(constants)
        outs: List[Column] = []
        k = 0
        try:
            if _align(ins):
                slots = [c.values for c in ins] + constants
                for _, vector, args, _ in members:
                    values = vector([slots[j] for j in args])
                    if values is None:
                        break
                    slots.append(values)
                    k += 1
                tags = ins[0].tags
                outs = [Column(tags, v) for v in slots[first_output:]]
            if k < len(members):
                # Link operands are inputs and outputs, never a constant slot.
                cols = ins + constants + outs
                for node, _, _, links in members[k:]:
                    cols.append(self._op_compute(node, [cols[j] for j in links])[0])
                    k += 1
                outs = cols[first_output:]
        except BaseException:
            # The step counted every member; the ones after member k never
            # fired.
            self.profile.node_firings["compute"] -= len(members) - k - 1
            raise
        return outs

    def _op_const(self, node: DFNode, ins: List[Column]) -> List[Column]:
        s = ins[0]
        values = np.empty(s.n_data, np.int64)
        values.fill(node.params["value"])  # half the cost of np.full when short
        return [Column(s.tags, values)]

    @staticmethod
    def _broadcast_column(outer: Column, inner: Column) -> Column:
        """``prim.broadcast``: each ``outer`` value over its ``inner`` group."""
        tags = inner.tags
        adv = (tags > 0).astype(np.int64)
        idx = np.cumsum(adv) - adv
        didx = idx[tags == 0]
        if didx.size and int(didx.max()) >= outer.n_data:
            raise PrimitiveError("broadcast ran out of outer elements")
        return Column(tags, outer.values[didx])

    def _counter_columns(self, lo_c: Column, hi_c: Column, step_c: Column) -> Column:
        """``prim.counter``: expand each (lo, hi, step) row into a group."""
        cols = [lo_c, hi_c, step_c]
        if not _align(cols):
            raise _elementwise_error(cols)[1]
        lov, hiv, sv = lo_c.values, hi_c.values, step_c.values
        tags = lo_c.tags
        zero, top = sv == 0, tags >= MAX_BARRIER_LEVEL
        if zero.any() or top.any():
            # The token expansion raises at the first zero step or level-15
            # barrier (which it cannot raise), in stream order.
            zero_at, top_at = np.flatnonzero(tags == 0)[zero], np.flatnonzero(top)
            if not top_at.size or (zero_at.size and zero_at[0] < top_at[0]):
                raise PrimitiveError("counter step must be non-zero")
            Barrier(int(tags[top_at[0]]) + 1)  # raises, as the token path's does
        # len(range(lo, hi, step)), exact in uint64: the span from lo to hi
        # over |step|, rounded up.  The values then wrap exactly, because
        # every one lies between lo and hi.
        up = sv > 0
        live = np.where(up, hiv > lov, lov > hiv)
        span = np.where(up, hiv - lov, lov - hiv).view(np.uint64)
        step = np.abs(sv).view(np.uint64)
        n = np.where(live, (span - 1) // step + 1, 0).astype(np.int64)
        total_data = int(n.sum())
        data_mask = tags == 0
        reps = np.ones(len(tags), dtype=np.int64)
        reps[data_mask] = n + 1
        total = int(reps.sum())
        out_tags = np.zeros(total, dtype=np.uint8)
        if len(tags):
            ends = np.cumsum(reps) - 1
            out_tags[ends[data_mask]] = 1
            bmask = ~data_mask
            out_tags[ends[bmask]] = tags[bmask] + 1
        offsets = np.cumsum(n) - n
        values = np.repeat(lov, n) + np.repeat(sv, n) * (
            np.arange(total_data, dtype=np.int64) - np.repeat(offsets, n)
        )
        return Column(out_tags, values)

    def _op_filter(self, node: DFNode, ins: List[Column]) -> List[Column]:
        pred = ins[-1]
        data_cols = ins[:-1]
        if not _align(ins):
            raise _predicate_error(data_cols, pred, "filter")
        keep_data = pred.values != 0
        tags = pred.tags
        data_mask = tags == 0
        full = ~data_mask
        full[data_mask] = keep_data
        new_tags = tags[full]
        return [Column(new_tags, c.values[keep_data]) for c in data_cols]

    def _partition_bundle(
        self, cols: Sequence[Column], pred: Column, empty_dropped: bool = True
    ) -> Tuple[List[Column], Optional[List[Column]]]:
        """Boolean-mask split of an aligned bundle (``prim.partition_streams``).

        With ``empty_dropped=False`` a dropped side that holds no data is
        ``None`` instead of its barrier-only columns.
        """
        bundle = [pred] + list(cols)
        if not _align(bundle):
            raise _predicate_error(cols, pred, "partition")
        keep_data = pred.values != 0
        tags = pred.tags
        nk = int(np.count_nonzero(keep_data))
        # All-or-nothing turns dominate while drains (most turns no thread
        # exits; many `if` partitions are one-sided), so skip the fancy
        # indexing: the full side shares the input columns, the empty side
        # is barriers-only with an empty values view.
        if nk == len(keep_data):
            if not empty_dropped:
                return list(cols), None
            bar_tags = tags[tags != 0]
            empty = [Column(bar_tags, c.values[:0]) for c in cols]
            return list(cols), empty
        if nk == 0:
            bar_tags = tags[tags != 0]
            empty = [Column(bar_tags, c.values[:0]) for c in cols]
            return empty, list(cols)
        drop_data = ~keep_data
        if len(tags) == len(keep_data) + 1 and tags[-1] == 1:
            # One barrier group, as a `while` drain hands its body.
            kept_tags = _group_tags(nk)
            dropped_tags = _group_tags(len(keep_data) - nk)
        else:
            data_mask = tags == 0
            full_keep = ~data_mask
            full_keep[data_mask] = keep_data
            kept_tags = tags[full_keep]
            full_drop = ~data_mask
            full_drop[data_mask] = drop_data
            dropped_tags = tags[full_drop]
        # Row numbers, not masks: one gather per column is 4x cheaper.
        kept_rows, dropped_rows = keep_data.nonzero()[0], drop_data.nonzero()[0]
        kept = [Column(kept_tags, c.values[kept_rows]) for c in cols]
        dropped = [Column(dropped_tags, c.values[dropped_rows]) for c in cols]
        return kept, dropped

    # -- forward merge ---------------------------------------------------------

    def _merge_columns(
        self, a_cols: Sequence[Column], b_cols: Sequence[Column]
    ) -> List[Column]:
        """Positional forward merge of two bundles (``merge_bundles``, which
        zips each side element-wise first)."""
        if not _align(a_cols) or not _align(b_cols):
            raise _elementwise_error(b_cols if _align(a_cols) else a_cols)[1]
        ta, tb = a_cols[0].tags, b_cols[0].tags
        na, nb = a_cols[0].n_data, b_cols[0].n_data
        if (len(ta) == na + 1 and len(tb) == nb + 1 and ta[-1] == 1
                and tb[-1] == 1):
            # Two one-group bundles: the then-rows, then the else-rows.
            if nb == 0:
                return list(a_cols)
            if na == 0:
                return list(b_cols)
            tags = _group_tags(na + nb)
            return [Column(tags, np.concatenate((a.values, b.values)))
                    for a, b in zip(a_cols, b_cols)]
        a_b = np.nonzero(ta)[0]
        b_b = np.nonzero(tb)[0]
        la = ta[a_b]
        lb = tb[b_b]
        if a_b.size != b_b.size:
            raise PrimitiveError("forward merge inputs have mismatched barriers")
        neq = np.nonzero(la != lb)[0]
        if neq.size:
            j = int(neq[0])
            raise PrimitiveError(
                f"forward merge barrier mismatch: "
                f"{Barrier(int(la[j]))} vs {Barrier(int(lb[j]))}"
            )
        # One-sided merges are the norm inside while drains (an `if` whose
        # other branch got no rows this turn): the empty side contributes
        # nothing to any group, so the result *is* the populated side.
        # The sides are aligned, so each already carries its bundle's tags.
        if nb == 0:
            return list(a_cols)
        if na == 0:
            return list(b_cols)
        G = int(a_b.size)
        a_at = (ta == 0).cumsum()[a_b]
        b_at = (tb == 0).cumsum()[b_b]
        # Per-group data counts, including the trailing (barrier-less) group
        # (hand-rolled diff-with-endpoints: np.diff's wrapper is measurable
        # at this call rate).
        ac = np.empty(G + 1, np.int64)
        ac[:G] = a_at
        ac[G] = na
        ac[1:] -= a_at
        bc = np.empty(G + 1, np.int64)
        bc[:G] = b_at
        bc[G] = nb
        bc[1:] -= b_at
        a_incl = ac.cumsum()
        b_incl = bc.cumsum()
        b_excl = b_incl - bc  # b-data before each group
        # Compacted output index per input data element.
        idx_a = np.arange(na, dtype=np.int64) + np.repeat(b_excl, ac)
        idx_b = np.arange(nb, dtype=np.int64) + np.repeat(a_incl, bc)
        sizes = ac + bc
        sizes[:G] += 1
        out_len = int(sizes.sum())
        out_tags = np.zeros(out_len, np.uint8)
        if G:
            bar_pos = sizes.cumsum()[:G] - 1
            out_tags[bar_pos] = la
        outs: List[Column] = []
        for a, b in zip(a_cols, b_cols):
            values = np.empty(na + nb, dtype=np.int64)
            values[idx_a] = a.values
            values[idx_b] = b.values
            outs.append(Column(out_tags, values))
        return outs

    def _op_fork(self, node: DFNode, ins: List[Column]) -> List[Column]:
        counts = ins[0]
        negative = len(ins) > 1 and bool((counts.values < 0).any())
        if negative or not _align(ins):
            # ``prim.fork_stream`` zips the counts with one payload at a
            # time, then raises on a negative count.
            for payload in ins[1:]:
                if not _align([counts, payload]):
                    raise _elementwise_error([counts, payload])[1]
                if negative:
                    first = int(counts.values[counts.values < 0][0])
                    raise PrimitiveError(f"fork count must be >= 0, got {first}")
        n = np.maximum(counts.values, 0)  # range(-k) is empty in the token path
        total_data = int(n.sum())
        offsets = np.cumsum(n) - n
        idx_vals = np.arange(total_data, dtype=np.int64) - np.repeat(offsets, n)
        tags = counts.tags
        data_mask = tags == 0
        reps = np.ones(len(tags), dtype=np.int64)
        reps[data_mask] = n
        total = int(reps.sum())
        out_tags = np.zeros(total, np.uint8)
        if len(tags):
            ends = np.cumsum(reps) - 1
            bmask = ~data_mask
            out_tags[ends[bmask]] = tags[bmask]
        return [Column(out_tags, idx_vals)] + [
            Column(out_tags, np.repeat(c.values, n)) for c in ins[1:]]

    # -- memory ops -----------------------------------------------------------

    def _op_sram_alloc(self, node: DFNode, ins: List[Column]) -> List[Column]:
        site = node.params.get("site", "default")
        words = node.params.get("buffer_words", 64)
        max_buffers = node.params.get("max_buffers", 4096)
        if ins:
            tags, n = ins[0].tags, ins[0].n_data
        else:
            tags = np.array([0, 1], dtype=np.uint8)
            n = 1
        return [Column(tags, self.memory.sram_alloc_many(site, words, max_buffers, n))]

    def _op_sram_free(self, node: DFNode, ins: List[Column]) -> List[Column]:
        site = node.params.get("site", "default")
        col = ins[0]
        self.memory.sram_free_many(site, col.values)
        return [Column(col.tags, np.zeros(col.n_data, np.int64))]

    def _op_sram_read(self, node: DFNode, ins: List[Column]) -> List[Column]:
        site = node.params.get("site", "default")
        col = ins[0]
        return [Column(col.tags, self.memory.sram_read_many(site, col.values))]

    def _op_sram_write(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            self._misaligned(node, ins)
        site = node.params.get("site", "default")
        a, v = ins
        self.memory.sram_write_many(site, a.values, v.values)
        return [Column(a.tags, np.zeros(a.n_data, np.int64))]

    def _op_dram_read(self, node: DFNode, ins: List[Column]) -> List[Column]:
        col = ins[0]
        return [Column(col.tags, self.memory.dram_read_many(col.values))]

    def _op_dram_write(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            self._misaligned(node, ins)
        a, v = ins
        self.memory.dram_write_many(a.values, v.values)
        return [Column(a.tags, np.zeros(a.n_data, np.int64))]

    def _op_bulk_load(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            self._misaligned(node, ins)
        site = node.params.get("site", "default")
        size = node.params["size"]
        d, s = ins
        self.memory.bulk_load_many(site, d.values, s.values, size)
        return [Column(d.tags, np.zeros(d.n_data, np.int64))]

    def _op_bulk_store(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            self._misaligned(node, ins)
        site = node.params.get("site", "default")
        size = node.params["size"]
        d, s = ins[0], ins[1]
        if len(ins) > 2:
            counts = np.clip(ins[2].values, 0, size)
            self.memory.bulk_store_counted_many(site, d.values, s.values, counts)
        else:
            self.memory.bulk_store_many(site, d.values, s.values, size)
        return [Column(d.tags, np.zeros(d.n_data, np.int64))]

    # -- region ops -------------------------------------------------------------

    def _op_while(self, node: DFNode, ins: List[Column]) -> List[Column]:
        """Drain a forward-backward loop (the token executor's ``_op_while``).

        One barrier group at a time, turn for turn the token executor's
        drain; each turn's condition and body run columnar over the group's
        still-live rows.
        """
        cond_region, body_region = node.regions
        width = len(ins)
        label = node.params.get("label", f"while#{node.uid}")

        tags0 = ins[0].tags
        length = len(tags0)
        for other in ins[1:]:
            if len(other.tags) != length:
                raise PrimitiveError("while live streams have different lengths")
        # A misaligned bundle raises where the token drain does: after the
        # groups that end before the first misaligned position.
        stop, error = (length, None) if _align(ins) else _misalignment(ins)

        bpos = np.nonzero(tags0)[0]
        dcum = (tags0 == 0).cumsum()

        record_loop = self.profile.record_loop
        max_iterations = self.max_loop_iterations
        out_chunks: List[List[Any]] = [[] for _ in range(width)]
        group_counts: List[int] = []
        start = 0
        for p in bpos.tolist():
            if p >= stop:
                break
            end = int(dcum[p])
            n = end - start
            gt = _group_tags(n)
            live = [Column(gt, c.values[start:end]) for c in ins]
            start = end
            exited = 0
            iterations = 0
            while True:
                record_loop(label, 1)
                cond = self._run_subgraph(cond_region, live)[0]
                continuing, exiting = self._partition_bundle(
                    live, cond, empty_dropped=False)
                if exiting is not None:
                    for i in range(width):
                        if len(exiting[i].values):
                            out_chunks[i].append(exiting[i].values)
                    exited += len(exiting[0].values)
                next_live = self._run_subgraph(body_region, continuing)
                t0 = next_live[0].tags
                n_re = len(next_live[0].values)
                if n_re == 0:
                    break
                iterations += 1
                if iterations > max_iterations:
                    raise PrimitiveError(
                        "forward-backward loop exceeded max_iterations; "
                        "possible livelock in loop body"
                    )
                # Body outputs that share one group's tags (n_re rows, then
                # a level-1 barrier) are already the next turn's bundle.
                if len(t0) == n_re + 1 and t0[n_re] == 1 and all(
                        s.tags is t0 for s in next_live):
                    live = next_live
                    continue
                gt2 = _group_tags(n_re)
                # Ragged body outputs surface as misalignment on the next
                # turn, exactly as in the token path.
                live = [Column(gt2 if s.n_data == n_re else _group_tags(s.n_data),
                               s.values) for s in next_live]
            group_counts.append(exited)
        if error is not None:
            raise error
        total_data = int(dcum[-1]) if length else 0
        if total_data > start:
            raise PrimitiveError(
                "forward-backward loop input missing final barrier")

        counts_arr = np.asarray(group_counts, np.int64)
        G = len(group_counts)
        out_total = int(counts_arr.sum()) + G
        out_tags = np.zeros(out_total, np.uint8)
        if G:
            bar_pos = np.cumsum(counts_arr + 1) - 1
            out_tags[bar_pos] = tags0[bpos]
        outs: List[Column] = []
        for i in range(width):
            chunks = out_chunks[i]
            values = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
            outs.append(Column(out_tags, values))
        return outs

    def _op_if(self, node: DFNode, ins: List[Column]) -> List[Column]:
        cond, live = ins[0], ins[1:]
        then_region, else_region = node.regions
        taken, fallthrough = self._partition_bundle(live, cond)
        then_out = self._run_subgraph(then_region, taken)
        else_out = self._run_subgraph(else_region, fallthrough)
        if not node.outputs:
            return []
        return self._merge_columns(then_out, else_out)

    def _op_foreach(self, node: DFNode, ins: List[Column]) -> List[Column]:
        indices = self._counter_columns(ins[0], ins[1], ins[2])
        self._run_subgraph(node.regions[0], [indices] + [
            self._broadcast_column(s, indices) for s in ins[3:]])
        return []

    def _op_replicate(self, node: DFNode, ins: List[Column]) -> List[Column]:
        # Functionally one copy of the body: the factor is spatial only.
        return self._run_subgraph(node.regions[0], ins)

"""Control-flow to dataflow lowering (paper Section V-C).

This stage converts the optimized structured IR (``scf`` + ``arith`` +
``memref`` + physical ``revet`` ops) into a structured dataflow graph
(:class:`repro.core.graph.DFGraph`):

* straight-line arithmetic becomes element-wise ``compute`` nodes over SLTF
  links,
* ``scf.if`` / ``scf.while`` / ``revet.foreach`` / ``revet.replicate`` become
  the corresponding region nodes (filter + forward merge, forward-backward
  merge, counter expansion + barrier, and work distribution respectively),
* ``revet.fork`` duplicates every live link in place; the
  ``if (cond) { exit(); }`` idiom becomes a thread filter on every live link,
* memory ops become per-thread SRAM allocations and integer-addressed
  accesses (the "MemRefs to Integers" convention: ``addr = ptr * size + i``).

Values defined outside a region but used inside it are passed explicitly as
region inputs (the flattening stage later turns them into scalar-network
broadcasts), so the resulting graph is closed under each region.

Constants
---------

A compute unit holds its constants as stage immediates, so an
``arith.constant`` becomes no node: it binds an immediate in the scope.  A
``compute`` that reads it records it in ``params["imm"]`` as ``(position,
value)`` and keeps only its link inputs (one operand stays a ``const`` link
when all of them would be immediates).  Any other reader — a memory op,
``filter``, ``fork``, ``foreach`` bounds, ``while`` initial values, region
yields, an ``if`` condition — gets one ``const`` node aligned to the scope's
current ``struct_ref``, shared by every such reader of that value there.  An
immediate never crosses a region op: a region that captures one binds it as
an immediate too.  Every constant is an ``int64`` word: the lexer's literal
rule and ``canonicalize``'s wrapping folds keep it one.

Within a graph, a ``compute`` with the opcode, immediates and input links of
an earlier one is that node, and once the function is lowered a ``compute``
or ``const`` whose output nothing reads is dropped (a ``div`` / ``rem``
stays, since it can raise, unless its divisor is a nonzero immediate).  Only
a graph in which an ``arith`` result that no op reads was bound can hold such
a node, so only those graphs are swept.

Live values
-----------

``if``, ``while``, ``fork``, the exit filter and ``replicate`` reorder, drop
or duplicate the rows of every link they touch (a forward merge emits the
taken rows before the others), so a link that does not cross such an op is no
longer aligned with the ones that did.  Every value read later must therefore
cross it, and each crossing costs a partition and a merge per loop turn, so
nothing else may.  :meth:`DataflowLowering._lower_block` records, in one
reverse scan of the block, the last op that reads each scope key; a
reordering op carries exactly the keys read after it (plus what its regions
capture) and *removes* every other binding, so a stale link cannot be read: a
later lookup is a :class:`LoweringError` at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.executor import make_executor
from repro.core.graph import DFGraph, DFNode, DFValue
from repro.core.machine import LinkKind
from repro.core.memory import MemorySystem
from repro.errors import LoweringError
from repro.ir import Module, Operation, Value
from repro.ir.dialects.arith import BINOP_TO_OPCODE, CMP_TO_OPCODE

#: arith cast ops are width annotations only; data lanes are 32-bit.
CAST_OPS = {"arith.extsi", "arith.extui", "arith.trunci"}

#: A ``compute`` operand: a link, or an immediate value.
Operand = Union[DFValue, int]


@dataclass
class MemRefInfo:
    """Lowered form of one ``memref.alloc``: an allocation-site pointer."""

    site: str
    size: int
    ptr: DFValue


#: Leaf ops without side effects, dropped when nothing reads them.
_PURE_OPS = ("compute", "const")


def _can_raise(node: DFNode) -> bool:
    """A ``div`` / ``rem`` whose divisor is not a nonzero immediate."""
    if node.params.get("fn") not in ("div", "rem"):
        return False
    return not dict(node.params.get("imm", ())).get(1)


def _drop_dead_leaves(graph: DFGraph) -> None:
    """Drop the ``compute`` and ``const`` nodes of ``graph`` whose output
    nothing reads, in one reverse sweep: nodes are created after their
    inputs, so when the sweep reaches a node, every node that reads it has
    already been kept or dropped."""
    reads: Dict[int, int] = {}
    for node in graph.nodes:
        for v in node.inputs:
            reads[v.uid] = reads.get(v.uid, 0) + 1
    for v in graph.outputs:
        reads[v.uid] = reads.get(v.uid, 0) + 1
    dead: Set[int] = set()
    for node in reversed(graph.nodes):
        if (node.op in _PURE_OPS and not reads.get(node.outputs[0].uid)
                and not (node.op == "compute" and _can_raise(node))):
            dead.add(node.uid)
            for v in node.inputs:
                reads[v.uid] -= 1
    if dead:
        graph.remove_nodes(dead)


def _distinct(links: Iterable[DFValue]) -> List[DFValue]:
    """``links`` without repeats, in first-occurrence order."""
    seen: Set[int] = set()
    unique: List[DFValue] = []
    for df in links:
        if df.uid not in seen:
            seen.add(df.uid)
            unique.append(df)
    return unique


class _Scope:
    """Lowering state of one IR block: the IR-value to DF-link mapping.

    Keys are ``id()``s of IR values; a region additionally binds its
    pass-through inputs (the ones it must hand back) under negative keys.
    Immediates are bound apart from links (``imms``): they align with any
    link, so no region op drops or carries them.
    """

    def __init__(self, graph: DFGraph, struct_ref: DFValue,
                 imms: Optional[Dict[int, int]] = None):
        self.graph = graph
        self.values: Dict[int, DFValue] = {}
        #: The enclosing scope's immediates are this one's too.
        self.imms: Dict[int, int] = dict(imms) if imms else {}
        self.memrefs: Dict[int, MemRefInfo] = {}
        #: Any link that is current at this nesting level, used to align
        #: constants.
        self.struct_ref = struct_ref
        #: Key -> index of the last op of the block that reads it, and the
        #: index of the op being lowered (see ``_lower_block``).
        self.last_use: Dict[int, int] = {}
        self.position = -1
        #: (value, struct_ref uid) -> its ``const`` link, and (opcode,
        #: *operands) -> the ``compute`` link: one node each.
        self._consts: Dict[Tuple[int, int], DFValue] = {}
        self._pure: Dict[tuple, DFValue] = {}

    def bind(self, ir_value: Value, df_value: DFValue) -> None:
        self.values[id(ir_value)] = df_value

    def bind_memref(self, ir_value: Value, info: MemRefInfo) -> None:
        self.memrefs[id(ir_value)] = info
        self.values[id(ir_value)] = info.ptr

    def const(self, value: int, name: str = "c") -> DFValue:
        """The ``const`` link of immediate ``value`` aligned to
        ``struct_ref``, added on first use."""
        key = (value, self.struct_ref.uid)
        df = self._consts.get(key)
        if df is None:
            df = self._consts[key] = self.graph.add_node(
                "const", [self.struct_ref], params={"value": value},
                name=name).outputs[0]
        return df

    def compute(self, opcode: str, operands: Sequence[Operand],
                name: str = "t") -> DFValue:
        """The link of ``opcode`` over ``operands``, immediates recorded in
        ``params["imm"]``; an equal earlier node is reused.

        Links hash by identity and never equal an int, so the operand tuple
        itself is the key.  An all-immediate node is keyed on ``struct_ref``
        too, since its one ``const`` link is aligned to it.
        """
        key = (opcode, *operands)
        df = self._pure.get(key)
        if df is not None:
            return df
        if int not in map(type, operands):
            df = self._pure[key] = self.graph.add_node(
                "compute", operands, params={"fn": opcode}, name=name).outputs[0]
            return df
        links: List[DFValue] = []
        imm: List[Tuple[int, int]] = []
        for pos, x in enumerate(operands):
            if type(x) is int:
                imm.append((pos, x))
            else:
                links.append(x)
        if not links:
            key += (self.struct_ref.uid,)
            df = self._pure.get(key)
            if df is not None:
                return df
            links = [self.const(imm.pop(0)[1])]
        params: Dict[str, Any] = {"fn": opcode}
        if imm:
            params["imm"] = tuple(imm)
        df = self._pure[key] = self.graph.add_node(
            "compute", links, params=params, name=name).outputs[0]
        return df

    def operand(self, ir_value: Value) -> Operand:
        """``ir_value`` as a ``compute`` operand: its link, or its immediate."""
        key = id(ir_value)
        df = self.values.get(key)
        if df is not None:
            return df
        imm = self.imms.get(key)
        return self.lookup(ir_value) if imm is None else imm

    def lookup(self, ir_value: Value) -> DFValue:
        """The link of ``ir_value``; an immediate gets its ``const`` link."""
        df = self.values.get(id(ir_value))
        if df is None:
            imm = self.imms.get(id(ir_value))
            if imm is not None:
                return self.const(imm, ir_value.name or "c")
            raise LoweringError(
                f"IR value %{ir_value.name} has no dataflow mapping here "
                f"(not captured, or not live across an earlier region op)"
            )
        return df

    def lookup_memref(self, ir_value: Value) -> MemRefInfo:
        info = self.memrefs.get(id(ir_value))
        if info is None:
            raise LoweringError(
                f"IR value %{ir_value.name} is not a lowered memref in this scope"
            )
        return info

    def live_links(self) -> Tuple[List[int], List[DFValue]]:
        """The bound keys read after the op being lowered, in binding order,
        and the distinct links that must cross it for them.

        Pass-through keys are the enclosing region's outputs and stay live to
        the end of the block.  When nothing is live the alignment link
        crosses alone, so that something always does.
        """
        position, last_use = self.position, self.last_use
        keys = [key for key in self.values
                if key < 0 or last_use.get(key, -1) > position]
        links = _distinct(self.values[key] for key in keys)
        return keys, links or [self.struct_ref]

    def rebind(self, keys: Sequence[int], originals: Sequence[DFValue],
               replacements: Sequence[DFValue]) -> None:
        """Keep only ``keys``, each on the replacement of its link.

        Every other binding is dropped: its link did not cross the op, so its
        rows no longer line up with the ones that did.  Constants align to
        any link that crossed.
        """
        crossed = {o.uid: r for o, r in zip(originals, replacements)}
        self.values = {key: crossed[self.values[key].uid] for key in keys}
        self.memrefs = {key: info for key, info in self.memrefs.items()
                        if key in self.values}
        for key, info in self.memrefs.items():
            info.ptr = self.values[key]
        self.struct_ref = crossed.get(self.struct_ref.uid, replacements[0])


@dataclass
class CompiledProgram:
    """A compiled Revet program: the dataflow graph plus its input contract."""

    graph: DFGraph
    module: Module
    arg_names: List[str]
    dram_names: List[str]
    pragmas: List[str] = field(default_factory=list)
    #: :func:`repro.dataflow.resources.estimate_resources` results, made
    #: once per program and argument set.
    resource_estimates: Dict[tuple, Any] = field(
        default_factory=dict, repr=False, compare=False)

    def run(self, memory: MemorySystem, *, profile: bool = False,
            executor: Optional[str] = None,
            link_stats: bool = False,  # ignored; ROADMAP item 1(f) removes it
            **args: int):
        """Execute the program on ``memory`` with scalar arguments ``args``.

        DRAM globals must already be allocated in ``memory`` under their
        declared names; their base addresses are wired into the graph inputs
        automatically.  Returns the executor (so callers can inspect the
        profile) when ``profile`` is True, otherwise the output streams.

        ``executor`` selects the execution backend: ``None``/``"columnar"``
        (the vectorized numpy backend that serves every request) or
        ``"token"`` (the per-token reference interpreter the parity tests
        and ``bench/layers.py`` compare against).  Both are bit-identical —
        same outputs, memory contents, traffic counters, and profile (node
        firings and ``while`` trip counts).  The node schedule is
        precompiled once per program and shared by every run (see
        :func:`repro.core.columnar.schedule_for`).
        """
        inputs: Dict[str, Any] = {}
        for name in self.arg_names:
            if name not in args:
                raise LoweringError(f"missing program argument '{name}'")
            inputs[name] = [args[name]]
        for name in self.dram_names:
            inputs[f"__dram_{name}"] = [memory.segment(name).base]
        runner = make_executor(self.graph, executor=executor, memory=memory)
        outputs = runner.run(inputs)
        return runner if profile else outputs


class DataflowLowering:
    """Lowers one function of an IR module to a structured dataflow graph."""

    def __init__(self, module: Module):
        self.module = module
        self._site_counter = 0
        #: id(region op) -> outside values its regions read (``_scan``).
        self._captured: Dict[int, List[Value]] = {}
        #: Graphs that may hold a dead pure leaf (see ``_bind_leaf``).
        self._unread: Dict[int, DFGraph] = {}

    # -- public API ---------------------------------------------------------------

    def lower_function(self, name: str = "main") -> CompiledProgram:
        func_op = self.module.function(name)
        entry = func_op.region(0).entry
        graph = DFGraph(name)

        arg_names = [arg.name for arg in entry.args]
        dram_names = [g.attrs["sym_name"] for g in self.module.globals()]
        pragmas: List[str] = []  # module-wide, like the DRAM globals
        for op in self.module.operations:
            for region in op.regions:
                for block in region.blocks:
                    self._scan(block, pragmas)

        scope = _Scope(graph, struct_ref=None)
        for arg in entry.args:
            df = graph.add_input(arg.name, kind=LinkKind.SCALAR)
            scope.bind(arg, df)
            if scope.struct_ref is None:
                scope.struct_ref = df
        self._dram_inputs: Dict[str, DFValue] = {}
        for dram in dram_names:
            self._dram_inputs[dram] = graph.add_input(f"__dram_{dram}",
                                                      kind=LinkKind.SCALAR)
        if scope.struct_ref is None:
            scope.struct_ref = graph.add_input("__start", kind=LinkKind.SCALAR)
            arg_names.append("__start")

        self._lower_block(entry, graph, scope)
        graph.set_outputs([])
        for region in self._unread.values():
            _drop_dead_leaves(region)
        graph.verify()
        return CompiledProgram(graph=graph, module=self.module, arg_names=arg_names,
                               dram_names=dram_names, pragmas=pragmas)

    # -- helpers -----------------------------------------------------------------------

    def _fresh_site(self, hint: str) -> str:
        self._site_counter += 1
        return f"{hint}_{self._site_counter}"

    def _bind_leaf(self, scope: _Scope, ir_value: Value, df_value: DFValue) -> None:
        """Bind the result of an ``arith`` op, and note its graph for the
        dead-leaf sweep when no op of the block reads ``ir_value``.

        Every other ``compute`` / ``const`` link is made for the reader that
        asks for it, so only a graph noted here can end up with a pure leaf
        nothing reads (a dead chain ends in such a value).
        """
        scope.bind(ir_value, df_value)
        if id(ir_value) not in scope.last_use:
            self._unread[id(scope.graph)] = scope.graph

    def _scan(self, block, pragmas: List[str]) -> List[Value]:
        """The values ``block`` reads but does not define, in first-use order.

        One bottom-up scan: a region op reads what its blocks read and do not
        define, which is recorded in ``_captured`` on the way up, so an op
        nested ``d`` deep is looked at once, not once per enclosing region.
        ``revet.pragma`` names are collected into ``pragmas`` in passing.
        """
        reads: Dict[int, Value] = {}
        defined = {id(arg) for arg in block.args}
        for op in block.operations:
            for value in op.operands:
                reads.setdefault(id(value), value)
            if op.regions:
                captured: Dict[int, Value] = {}
                for region in op.regions:
                    for inner in region.blocks:
                        for value in self._scan(inner, pragmas):
                            captured.setdefault(id(value), value)
                self._captured[id(op)] = list(captured.values())
                for key, value in captured.items():
                    reads.setdefault(key, value)
            elif op.name == "revet.pragma":
                pragmas.append(op.attrs["name"])
            for result in op.results:
                defined.add(id(result))
        return [value for key, value in reads.items() if key not in defined]

    def _is_exit_guard(self, op: Operation) -> bool:
        """Recognize the ``if (cond) { exit(); }`` thread-termination idiom."""
        if op.name != "scf.if" or op.results:
            return False
        then_ops = op.region(0).entry.operations
        has_exit = any(o.name == "revet.exit" for o in then_ops)
        only_trivial = all(o.name in ("revet.exit", "scf.yield") for o in then_ops)
        else_ops = op.region(1).entry.operations if len(op.regions) > 1 else []
        else_trivial = all(o.name == "scf.yield" for o in else_ops)
        return has_exit and only_trivial and else_trivial

    # -- block lowering ------------------------------------------------------------------

    def _reads(self, op: Operation) -> Sequence[Value]:
        """Every value lowering ``op`` looks up in the enclosing scope."""
        if op.name == "scf.condition":
            return op.operands[:1]  # the forwarded arguments are positional
        if not op.regions:
            return op.operands
        return op.operands + self._captured[id(op)]

    def _lower_block(self, block, graph: DFGraph, scope: _Scope) -> None:
        """Lower ``block``'s ops in order into ``scope`` (one scope per block).

        A single reverse scan first records where each scope key is last
        read, which is all ``scope.live_links()`` needs to tell, at any
        reordering op, which bindings have to cross it.
        """
        ops = list(block.operations)
        last_use = scope.last_use
        for index in range(len(ops) - 1, -1, -1):
            for value in self._reads(ops[index]):
                last_use.setdefault(id(value), index)
        for index, op in enumerate(ops):
            scope.position = index
            self._lower_op(op, graph, scope)

    def _lower_op(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        name = op.name
        if name == "arith.constant":
            scope.imms[id(op.result())] = op.attrs["value"]
        elif name in BINOP_TO_OPCODE or name in ("arith.cmpi", "arith.select"):
            if name == "arith.cmpi":
                opcode = CMP_TO_OPCODE[op.attrs["predicate"]]
            else:
                opcode = BINOP_TO_OPCODE.get(name, "select")
            self._bind_leaf(scope, op.result(), scope.compute(
                opcode, [scope.operand(v) for v in op.operands],
                name=op.result().name))
        elif name in CAST_OPS:
            source = id(op.operand(0))
            if source in scope.imms:
                scope.imms[id(op.result())] = scope.imms[source]
            else:
                self._bind_leaf(scope, op.result(), scope.lookup(op.operand(0)))
        elif name == "revet.dram_ref":
            scope.bind(op.result(), self._dram_inputs[op.attrs["name"]])
        elif name == "memref.alloc":
            self._lower_alloc(op, graph, scope)
        elif name == "memref.dealloc":
            info = scope.lookup_memref(op.operand(0))
            graph.add_node("sram_free", [info.ptr], params={"site": info.site},
                           name=f"free_{info.site}")
        elif name == "memref.load":
            addr = self._memref_addr(op.operand(0), op.operand(1), graph, scope)
            info = scope.lookup_memref(op.operand(0))
            node = graph.add_node("sram_read", [addr], params={"site": info.site},
                                  name=op.result().name)
            scope.bind(op.result(), node.outputs[0])
        elif name == "memref.store":
            addr = self._memref_addr(op.operand(1), op.operand(2), graph, scope)
            info = scope.lookup_memref(op.operand(1))
            graph.add_node("sram_write", [addr, scope.lookup(op.operand(0))],
                           params={"site": info.site}, name=f"st_{info.site}")
        elif name == "revet.dram_load":
            addr = scope.compute("add", [scope.operand(op.operand(0)),
                                         scope.operand(op.operand(1))], name="daddr")
            node = graph.add_node("dram_read", [addr], name=op.result().name)
            scope.bind(op.result(), node.outputs[0])
        elif name == "revet.dram_store":
            addr = scope.compute("add", [scope.operand(op.operand(0)),
                                         scope.operand(op.operand(1))], name="daddr")
            graph.add_node("dram_write", [addr, scope.lookup(op.operand(2))], name="dstore")
        elif name == "revet.bulk_load":
            self._lower_bulk(op, graph, scope, store=False)
        elif name == "revet.bulk_store":
            self._lower_bulk(op, graph, scope, store=True)
        elif name == "scf.if":
            if self._is_exit_guard(op):
                self._lower_exit_guard(op, graph, scope)
            else:
                self._lower_if(op, graph, scope)
        elif name == "scf.while":
            self._lower_while(op, graph, scope)
        elif name == "revet.foreach":
            self._lower_foreach(op, graph, scope)
        elif name == "revet.replicate":
            self._lower_replicate(op, graph, scope)
        elif name == "revet.fork":
            self._lower_fork(op, graph, scope)
        elif name == "revet.exit":
            # A bare exit terminates every thread reaching this point.
            false = scope.const(0, name="dead")
            self._filter_scope(graph, scope, false)
        elif name in ("revet.pragma", "func.return", "scf.yield", "revet.yield",
                      "scf.condition"):
            pass  # structural / handled by the enclosing region lowering
        else:
            raise LoweringError(f"cannot lower op '{name}' to dataflow")

    # -- memory ------------------------------------------------------------------------

    def _lower_alloc(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        size = op.result().type.size
        site = op.attrs.get("site") or self._fresh_site(op.attrs.get("name", "buf"))
        node = graph.add_node(
            "sram_alloc",
            [scope.struct_ref],
            params={"site": site, "buffer_words": size,
                    "max_buffers": op.attrs.get("max_buffers", 1 << 20)},
            name=f"ptr_{site}",
        )
        scope.bind_memref(op.result(), MemRefInfo(site=site, size=size,
                                                  ptr=node.outputs[0]))

    def _memref_addr(self, buf: Value, index: Value, graph: DFGraph,
                     scope: _Scope) -> DFValue:
        """addr = ptr * buffer_size + index (the memref-to-integer convention)."""
        info = scope.lookup_memref(buf)
        base = scope.compute("mul", [info.ptr, info.size], name="bufbase")
        return scope.compute("add", [base, scope.operand(index)], name="addr")

    def _lower_bulk(self, op: Operation, graph: DFGraph, scope: _Scope,
                    store: bool) -> None:
        dram, offset, buf = op.operands[0], op.operands[1], op.operands[2]
        info = scope.lookup_memref(buf)
        dram_addr = scope.compute("add", [scope.operand(dram), scope.operand(offset)],
                                  name="dbase")
        sram_addr = scope.compute("mul", [info.ptr, info.size], name="sbase")
        inputs = [dram_addr, sram_addr]
        if store and len(op.operands) > 3:
            inputs.append(scope.lookup(op.operands[3]))
        graph.add_node("bulk_store" if store else "bulk_load", inputs,
                       params={"site": info.site, "size": op.attrs["size"]},
                       name="bulk")

    # -- thread management ----------------------------------------------------------------

    def _filter_scope(self, graph: DFGraph, scope: _Scope, keep: DFValue) -> None:
        """Filter every live link in the current scope by ``keep``."""
        keys, live = scope.live_links()
        node = graph.add_node("filter", live + [keep], num_outputs=len(live),
                              name="alive")
        scope.rebind(keys, live, node.outputs)

    def _lower_exit_guard(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        keep = scope.compute("not", [scope.operand(op.operand(0))], name="keep")
        self._filter_scope(graph, scope, keep)

    def _lower_fork(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        count = scope.lookup(op.operand(0))
        keys, live = scope.live_links()
        node = graph.add_node("fork", [count] + live, num_outputs=1 + len(live),
                              name="fork")
        scope.rebind(keys, live, node.outputs[1:])
        scope.struct_ref = node.outputs[0]
        scope.bind(op.result(), node.outputs[0])

    # -- structured control flow -------------------------------------------------------------

    def _region_scope(self, region_graph: DFGraph, ir_args: Sequence[Value],
                      df_inputs: Sequence[DFValue], parent_scope: _Scope,
                      captured: Sequence[Value], captured_inputs: Sequence[DFValue],
                      struct_ref: DFValue) -> _Scope:
        """A foreach body's scope: ``captured`` links on ``captured_inputs``,
        and the parent's immediates."""
        scope = _Scope(region_graph, struct_ref, parent_scope.imms)
        for ir_val, df_val in zip(ir_args, df_inputs):
            scope.bind(ir_val, df_val)
        for ir_val, df_val in zip(captured, captured_inputs):
            scope.bind(ir_val, df_val)
            if id(ir_val) in parent_scope.memrefs:
                info = parent_scope.memrefs[id(ir_val)]
                scope.bind_memref(ir_val, MemRefInfo(site=info.site, size=info.size,
                                                     ptr=df_val))
        return scope

    def _outline_region(self, region_block, name: str, scope: _Scope,
                        node_inputs: Sequence[DFValue], captured: Sequence[Value],
                        arg_bindings: Sequence[Tuple[Value, int]],
                        passthrough: range) -> Tuple[DFGraph, _Scope]:
        """Outline an IR block into a region graph taking ``node_inputs``.

        ``arg_bindings`` maps IR block arguments to node-input positions;
        ``captured`` IR values (links, not immediates: the region inherits
        those) are bound to the input holding their current link (the last
        such input: a ``while`` may also carry that link as a loop variable,
        which changes).  The inputs at
        ``passthrough`` positions are what the region hands back unchanged;
        they are tracked under synthetic keys so that forks/filters inside
        the region keep them aligned.
        """
        sub = DFGraph(name)
        inputs = [sub.add_input(df.name or f"live{i}")
                  for i, df in enumerate(node_inputs)]
        sub_scope = _Scope(sub, inputs[0], scope.imms)
        pos_by_uid = {df.uid: i for i, df in enumerate(node_inputs)}
        for ir_val, pos in arg_bindings:
            sub_scope.bind(ir_val, inputs[pos])
        for ir_val in captured:
            input_df = inputs[pos_by_uid[scope.lookup(ir_val).uid]]
            sub_scope.bind(ir_val, input_df)
            if id(ir_val) in scope.memrefs:
                info = scope.memrefs[id(ir_val)]
                sub_scope.bind_memref(ir_val, MemRefInfo(site=info.site, size=info.size,
                                                         ptr=input_df))
        for i in passthrough:
            sub_scope.values[-(i + 1)] = inputs[i]
        self._lower_block(region_block, sub, sub_scope)
        return sub, sub_scope

    @staticmethod
    def _captured_links(captured: Sequence[Value], scope: _Scope) -> List[Value]:
        """The values of ``captured`` that cross as links: not immediates."""
        return [v for v in captured if id(v) not in scope.imms]

    @staticmethod
    def _passthrough(sub_scope: _Scope, passthrough: range) -> List[DFValue]:
        """Current links of a region's pass-through inputs."""
        return [sub_scope.values[-(i + 1)] for i in passthrough]

    def _lower_crossing(self, op: Operation, kind: str, suffixes: Sequence[str],
                        graph: DFGraph, scope: _Scope,
                        leading: Sequence[DFValue] = (),
                        params: Optional[Dict[str, Any]] = None) -> None:
        """Lower ``scf.if`` / ``revet.replicate``: every region takes what is
        live after ``op`` plus what the regions capture, and yields ``op``'s
        results plus the former."""
        captured = self._captured_links(self._captured[id(op)], scope)
        keys, after = scope.live_links()
        live = _distinct(after + [scope.lookup(v) for v in captured])
        passthrough = range(len(after))

        regions = []
        for region, suffix in zip(op.regions, suffixes):
            sub, sub_scope = self._outline_region(
                region.entry, f"{graph.name}.{kind}{op.uid}{suffix}", scope, live,
                captured, [], passthrough)
            terminator = region.entry.terminator
            yields = (terminator.operands if terminator is not None
                      and terminator.name in ("scf.yield", "revet.yield") else [])
            sub.set_outputs([sub_scope.lookup(v) for v in yields]
                            + self._passthrough(sub_scope, passthrough))
            regions.append(sub)

        node = graph.add_node(kind, list(leading) + live,
                              num_outputs=len(op.results) + len(after),
                              regions=regions, params=params,
                              name=f"{kind}{op.uid}")
        # Results are bound last: the rebind keeps only what crossed the op.
        scope.rebind(keys, after, node.outputs[len(op.results):])
        for result, out in zip(op.results, node.outputs):
            scope.bind(result, out)

    def _lower_if(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        self._lower_crossing(op, "if", (".then", ".else"), graph, scope,
                             leading=[scope.lookup(op.operand(0))])

    def _lower_replicate(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        self._lower_crossing(op, "replicate", ("",), graph, scope,
                             params={"factor": op.attrs.get("factor", 1)})

    def _lower_while(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        inits = [scope.lookup(v) for v in op.operands]
        captured = self._captured_links(self._captured[id(op)], scope)
        # Loop variables first; then, unchanged by the loop, what is live
        # after it and what its regions capture.  A link that is both (an
        # initial value that is also read as itself) gets a port of each kind.
        keys, after = scope.live_links()
        rest = _distinct(after + [scope.lookup(v) for v in captured])
        node_inputs = inits + rest
        passthrough = range(len(inits), len(node_inputs))
        before, after_block = op.region(0).entry, op.region(1).entry

        cond_term = before.terminator
        if cond_term is None or cond_term.name != "scf.condition":
            raise LoweringError("scf.while before-region must end in scf.condition")

        # Condition region: computes the loop predicate from the live values.
        cond_graph, cond_scope = self._outline_region(
            before, f"{graph.name}.while{op.uid}.cond", scope, node_inputs, captured,
            [(arg, i) for i, arg in enumerate(before.args)], range(0))
        cond_graph.set_outputs([cond_scope.lookup(cond_term.operand(0))])

        # Body region: computes the next carried values; the rest pass through.
        body_graph, body_scope = self._outline_region(
            after_block, f"{graph.name}.while{op.uid}.body", scope, node_inputs,
            captured, [(arg, i) for i, arg in enumerate(after_block.args)],
            passthrough)
        yields = [body_scope.lookup(v) for v in after_block.terminator.operands]
        body_graph.set_outputs(yields + self._passthrough(body_scope, passthrough))

        node = graph.add_node("while", node_inputs, num_outputs=len(node_inputs),
                              regions=[cond_graph, body_graph], name=f"while{op.uid}",
                              params={"label": f"while{op.uid}"})
        scope.rebind(keys, rest, node.outputs[len(inits):])
        for result, out in zip(op.results, node.outputs):
            scope.bind(result, out)

    def _lower_foreach(self, op: Operation, graph: DFGraph, scope: _Scope) -> None:
        count = scope.lookup(op.operand(0))
        step = scope.lookup(op.operand(1))
        zero = scope.const(0, name="zero")
        captured = self._captured_links(self._captured[id(op)], scope)
        cap_dfs = [scope.lookup(v) for v in captured]

        body = op.region(0).entry
        body_graph = DFGraph(f"{graph.name}.foreach{op.uid}")
        index_input = body_graph.add_input(body.args[0].name or "i")
        cap_inputs = [body_graph.add_input(v.name or f"cap{i}")
                      for i, v in enumerate(captured)]
        body_scope = self._region_scope(body_graph, [body.args[0]], [index_input],
                                        scope, captured, cap_inputs, index_input)
        self._lower_block(body, body_graph, body_scope)
        graph.add_node("foreach", [zero, count, step] + cap_dfs, num_outputs=0,
                       regions=[body_graph], name=f"foreach{op.uid}")


def lower_to_dataflow(module: Module, function: str = "main") -> CompiledProgram:
    """Lower one function of an IR module to a dataflow program."""
    return DataflowLowering(module).lower_function(function)

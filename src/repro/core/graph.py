"""Structured ("virtual") dataflow graphs.

This is the representation the compiler lowers control flow into before
splitting and placement: a DAG of primitive nodes operating on SLTF links,
where cyclic control flow (``while``) and hierarchical parallelism
(``foreach``, ``replicate``) appear as *region nodes* containing nested
graphs.  Flattening region nodes into explicit merge/filter contexts is done
by :mod:`repro.dataflow.flatten`; functional execution of structured graphs
is done by :mod:`repro.core.executor`.

Node operations
---------------

These are exactly the ops the lowering emits (a test compiles every app to
hold the two sets equal).  Leaf (element-wise / streaming) operations:

``compute``        apply a :mod:`repro.core.opcodes` opcode across aligned inputs
``const``          emit a constant aligned with a structural input
``filter``         keep elements whose predicate is true
``fork``           duplicate threads in place (no added hierarchy)

Memory operations (element-wise, see :mod:`repro.core.memory`):

``sram_alloc`` ``sram_free`` ``sram_read`` ``sram_write``
``dram_read`` ``dram_write`` ``bulk_load`` ``bulk_store``

Region operations:

``while``      regions = [cond, body]; per-thread iteration
``foreach``    regions = [body]; counter expansion, a body run per child, no
               outputs (children write memory)
``replicate``  regions = [body]; outer (non-vector) parallelism
``if``         regions = [then, else]; filter into branches, forward-merge out
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.machine import LinkKind
from repro.core.opcodes import resolve
from repro.errors import GraphError

LEAF_OPS = {
    "compute",
    "const",
    "filter",
    "fork",
    "sram_alloc",
    "sram_free",
    "sram_read",
    "sram_write",
    "dram_read",
    "dram_write",
    "bulk_load",
    "bulk_store",
}

REGION_OPS = {"while", "foreach", "replicate", "if"}

ALL_OPS = LEAF_OPS | REGION_OPS

_value_counter = itertools.count()
_node_counter = itertools.count()


@dataclass(eq=False)
class DFValue:
    """One SLTF link (a stream of data and barriers) in a dataflow graph."""

    name: str
    kind: LinkKind = LinkKind.VECTOR
    producer: Optional["DFNode"] = None
    index: int = 0  # output index on the producer
    uid: int = field(default_factory=_value_counter.__next__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"%{self.name}"


@dataclass(eq=False)
class DFNode:
    """A primitive or region node."""

    op: str
    inputs: List[DFValue] = field(default_factory=list)
    outputs: List[DFValue] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    regions: List["DFGraph"] = field(default_factory=list)
    uid: int = field(default_factory=_node_counter.__next__)

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise GraphError(f"unknown dataflow op '{self.op}'")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ins = ", ".join(v.name for v in self.inputs)
        outs = ", ".join(v.name for v in self.outputs)
        return f"<{self.op} #{self.uid} ({ins}) -> ({outs})>"


class DFGraph:
    """A structured dataflow graph: a DAG of nodes over SLTF links."""

    #: Bumped on every structural mutation; memoized derived state (the topo
    #: order here, node schedules in the executor) is keyed on it.  Class-level
    #: defaults, because graphs unpickled from old caches predate the fields.
    _version = 0
    _topo_cache: Optional[List[DFNode]] = None
    _topo_version = -1

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[DFNode] = []
        self.inputs: List[DFValue] = []
        self.outputs: List[DFValue] = []
        self._names: Set[str] = set()

    @property
    def version(self) -> int:
        """Monotonic structural version."""
        return self._version

    # -- construction -----------------------------------------------------

    def _fresh_name(self, base: str) -> str:
        if base not in self._names:
            self._names.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self._names:
            i += 1
        name = f"{base}_{i}"
        self._names.add(name)
        return name

    def add_input(self, name: str, kind: LinkKind = LinkKind.VECTOR) -> DFValue:
        """Declare a graph input stream."""
        value = DFValue(self._fresh_name(name), kind)
        self.inputs.append(value)
        self._version += 1
        return value

    def add_node(
        self,
        op: str,
        inputs: Sequence[DFValue] = (),
        num_outputs: int = 1,
        params: Optional[Dict[str, Any]] = None,
        regions: Optional[Sequence["DFGraph"]] = None,
        name: Optional[str] = None,
        output_kinds: Optional[Sequence[LinkKind]] = None,
    ) -> DFNode:
        """Create a node, its output values, and append it to the graph."""
        node = DFNode(op, list(inputs), [], dict(params) if params else {},
                      list(regions) if regions else [])
        base = name or op
        kinds = output_kinds or ()
        for i in range(num_outputs):
            kind = kinds[i] if i < len(kinds) else LinkKind.VECTOR
            value = DFValue(self._fresh_name(f"{base}.{i}" if num_outputs > 1 else base),
                            kind, node, i)
            node.outputs.append(value)
        self.nodes.append(node)
        self._version += 1
        return node

    def remove_nodes(self, uids: Set[int]) -> None:
        """Delete the nodes whose ``uid`` is in ``uids``."""
        self.nodes = [node for node in self.nodes if node.uid not in uids]
        self._version += 1

    def set_outputs(self, values: Sequence[DFValue]) -> None:
        """Declare the graph's output streams."""
        self.outputs = list(values)
        self._version += 1

    # -- queries ----------------------------------------------------------

    def all_values(self) -> List[DFValue]:
        """Every value defined at this graph level (inputs + node outputs)."""
        values = list(self.inputs)
        for node in self.nodes:
            values.extend(node.outputs)
        return values

    def topo_order(self) -> List[DFNode]:
        """Topologically order nodes; raises GraphError on cycles.

        Structured graphs are DAGs at each level — cyclic control flow lives
        inside ``while`` region nodes, not in back-edges at this level.

        The order is memoized per structural :attr:`version`: region bodies
        are re-executed once per loop iteration, so the serving hot path
        would otherwise re-derive the same order thousands of times.
        """
        if self._topo_cache is None or self._topo_version != self._version:
            self._topo_cache = self._topo_order_uncached()
            self._topo_version = self._version
        return self._topo_cache

    def _topo_order_uncached(self) -> List[DFNode]:
        # Explicit loops, not all()/update() over generators: verify() orders
        # every region of every compile, so this is on the compile path.
        defined: Set[int] = {v.uid for v in self.inputs}
        remaining = self.nodes
        order: List[DFNode] = []
        while remaining:
            still: List[DFNode] = []
            for node in remaining:
                for v in node.inputs:
                    if v.uid not in defined:
                        still.append(node)
                        break
                else:
                    order.append(node)
                    for v in node.outputs:
                        defined.add(v.uid)
            if len(still) == len(remaining):
                bad = ", ".join(repr(n) for n in still[:3])
                raise GraphError(
                    f"dataflow graph '{self.name}' has a cycle or undefined "
                    f"inputs involving: {bad}"
                )
            remaining = still
        return order

    def verify(self) -> None:
        """Check structural well-formedness (arity, opcodes, regions,
        acyclicity) of this graph and of every region graph under it."""
        self.topo_order()
        for node in self.nodes:
            _verify_node(node)
            for region in node.regions:
                region.verify()
        defined = {v.uid for v in self.all_values()}
        for out in self.outputs:
            if out.uid not in defined:
                raise GraphError(
                    f"graph '{self.name}' output {out!r} is not defined by any node"
                )

    def walk(self) -> Iterable[Tuple["DFGraph", DFNode]]:
        """Yield (graph, node) pairs for this graph and all nested regions."""
        for node in self.nodes:
            yield self, node
            for region in node.regions:
                yield from region.walk()

    def count_ops(self) -> Dict[str, int]:
        """Histogram of node ops across the whole hierarchy."""
        counts: Dict[str, int] = {}
        for _, node in self.walk():
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DFGraph {self.name}: {len(self.nodes)} nodes>"


def _verify_node(node: DFNode) -> None:
    """Per-op structural checks."""
    op = node.op
    n_in, n_out = len(node.inputs), len(node.outputs)
    if op == "compute":
        resolve(node.params.get("fn"))
        if n_out != 1:
            raise GraphError("compute nodes produce exactly one output")
    elif op == "const":
        if n_in != 1 or n_out != 1:
            raise GraphError("const nodes take one structural input, one output")
        if "value" not in node.params:
            raise GraphError("const nodes require a 'value' parameter")
    elif op == "filter":
        if n_in < 2 or n_out != n_in - 1:
            raise GraphError("filter takes (*data, pred) and outputs len(data)")
    elif op == "fork":
        if n_in < 1 or n_out != n_in:
            raise GraphError("fork takes (count, *data), outputs (index, *data)")
    elif op == "while":
        if len(node.regions) != 2:
            raise GraphError("while nodes need [cond, body] regions")
        cond, body = node.regions
        if len(cond.inputs) != n_in or len(body.inputs) != n_in:
            raise GraphError("while regions must take the node's live-in values")
        if len(cond.outputs) != 1:
            raise GraphError("while cond region must produce exactly one value")
        if len(body.outputs) != n_in:
            raise GraphError("while body must produce the next live values")
        if n_out != n_in:
            raise GraphError("while nodes output the final live values")
    elif op == "if":
        if len(node.regions) != 2:
            raise GraphError("if nodes need [then, else] regions")
        then, orelse = node.regions
        if len(then.inputs) != n_in - 1 or len(orelse.inputs) != n_in - 1:
            raise GraphError("if regions take the node's live-in values (minus cond)")
        if len(then.outputs) != n_out or len(orelse.outputs) != n_out:
            raise GraphError("if regions must both yield the node's outputs")
    elif op == "foreach":
        if len(node.regions) != 1:
            raise GraphError("foreach nodes need a [body] region")
        body = node.regions[0]
        # inputs: lo, hi, step, *parent live values
        if n_in < 3:
            raise GraphError("foreach takes (lo, hi, step, *live)")
        if len(body.inputs) != n_in - 2:
            raise GraphError("foreach body takes (index, *live) inputs")
        if n_out or body.outputs:
            raise GraphError("foreach nodes yield no values")
    elif op == "replicate":
        if len(node.regions) != 1:
            raise GraphError("replicate nodes need a [body] region")
        if len(node.regions[0].inputs) != n_in:
            raise GraphError("replicate body takes the node's inputs")
        if len(node.regions[0].outputs) != n_out:
            raise GraphError("replicate body outputs must match node outputs")
    elif op in {"sram_read", "dram_read"}:
        if n_in < 1 or n_out != 1:
            raise GraphError(f"{op} takes an address (+ordering tokens), one output")
    elif op in {"sram_write", "dram_write"}:
        if n_in < 2 or n_out != 1:
            raise GraphError(f"{op} takes (addr, value, ...), one void output")
    elif op == "sram_alloc":
        if n_out != 1:
            raise GraphError("sram_alloc produces one pointer stream")
    elif op == "sram_free":
        if n_in < 1 or n_out != 1:
            raise GraphError("sram_free takes a pointer, produces a void token")
    elif op in {"bulk_load", "bulk_store"}:
        if n_in < 2 or n_out != 1:
            raise GraphError(f"{op} takes (dram_base, sram_ptr, ...), one void output")

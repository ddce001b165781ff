"""MLIR-style IR core: types, values, operations, blocks, regions, modules.

The Revet compiler (paper Section V) is built on MLIR; this module provides
the subset of MLIR's infrastructure the compiler relies on, from scratch:

* a small type system (integers of several widths, memrefs, DRAM handles,
  iterators/views before lowering, and a void type for ordering tokens),
* SSA values with use lists,
* generic :class:`Operation` objects identified by a dialect-qualified name
  (``"arith.addi"``, ``"scf.while"``, ``"revet.foreach"``, ...), carrying
  operands, results, attributes, and nested regions,
* :class:`Block` / :class:`Region` / :class:`Module` containers, and
* walking and replacement utilities used by the rewrite passes.

Operation *semantics* (verification rules and constructor helpers) live in
the dialect modules under :mod:`repro.ir.dialects`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import IRError

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type:
    """Base class for IR types.  Types are immutable and compared by value."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(vars(self).items()))))

    def __repr__(self) -> str:
        return self.__class__.__name__


class IntType(Type):
    """An integer type of a given bit width (i1 is used for booleans)."""

    def __init__(self, width: int = 32):
        if width not in (1, 8, 16, 32, 64):
            raise IRError(f"unsupported integer width {width}")
        self.width = width

    def __repr__(self) -> str:
        return f"i{self.width}"


class FloatType(Type):
    """A 32-bit floating point type (rarely used by the paper's kernels)."""

    def __repr__(self) -> str:
        return "f32"


class VoidType(Type):
    """A data-free ordering token (the paper's CMMC-style void values)."""

    def __repr__(self) -> str:
        return "void"


class MemRefType(Type):
    """An on-chip SRAM buffer of a compile-time fixed size."""

    def __init__(self, size: int, element: Optional[Type] = None):
        self.size = size
        self.element = element or IntType(32)

    def __repr__(self) -> str:
        return f"memref<{self.size}x{self.element}>"


class DRAMType(Type):
    """A handle to a DRAM segment (the Revet ``DRAM<T>`` type)."""

    def __init__(self, element: Optional[Type] = None):
        self.element = element or IntType(32)

    def __repr__(self) -> str:
        return f"dram<{self.element}>"


class ViewType(Type):
    """A high-level view/iterator type before lowering (Table I adapters)."""

    def __init__(self, kind: str, size: int, element: Optional[Type] = None):
        self.kind = kind  # ReadView, WriteView, ModifyView, ReadIt, ...
        self.size = size
        self.element = element or IntType(32)

    def __repr__(self) -> str:
        return f"{self.kind}<{self.size}x{self.element}>"


class FunctionType(Type):
    """A function signature type."""

    def __init__(self, inputs: Sequence[Type], results: Sequence[Type]):
        self.inputs = tuple(inputs)
        self.results = tuple(results)

    def __repr__(self) -> str:
        ins = ", ".join(map(repr, self.inputs))
        outs = ", ".join(map(repr, self.results))
        return f"({ins}) -> ({outs})"


I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
VOID = VoidType()
F32 = FloatType()


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

_value_ids = itertools.count()


class Value:
    """An SSA value: either an operation result or a block argument."""

    def __init__(self, type: Type, name: str = "", owner: Optional["Operation"] = None,
                 index: int = 0, is_block_arg: bool = False,
                 block: Optional["Block"] = None):
        self.type = type
        self.name = name or f"v{next(_value_ids)}"
        self.owner = owner          # defining op (None for block args)
        self.index = index
        self.is_block_arg = is_block_arg
        self.block = block          # owning block for block args
        self.uses: List["Operation"] = []

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every operand use of this value to ``other``."""
        if other is self:
            return
        for op in list(self.uses):
            op.operands = [other if v is self else v for v in op.operands]
            if op not in other.uses:
                other.uses.append(op)
        self.uses = []

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def __repr__(self) -> str:
        return f"%{self.name}"


# ---------------------------------------------------------------------------
# Operations, blocks, regions
# ---------------------------------------------------------------------------

_op_ids = itertools.count()


class Operation:
    """A generic operation: ``results = name(operands) {attrs} regions``."""

    def __init__(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attrs: Optional[Dict[str, Any]] = None,
        regions: Optional[Sequence["Region"]] = None,
    ):
        if "." not in name:
            raise IRError(f"operation name '{name}' must be dialect-qualified")
        self.name = name
        self.operands: List[Value] = list(operands)
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.regions: List[Region] = list(regions or [])
        self.parent: Optional[Block] = None
        self.uid = next(_op_ids)
        self.results: List[Value] = [
            Value(t, owner=self, index=i) for i, t in enumerate(result_types)
        ]
        for region in self.regions:
            region.parent_op = self
        for operand in self.operands:
            operand.uses.append(self)

    # -- structural helpers -------------------------------------------------

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def result(self, index: int = 0) -> Value:
        return self.results[index]

    def operand(self, index: int = 0) -> Value:
        return self.operands[index]

    def update_attrs(self, attrs: Dict[str, Any]) -> bool:
        """Write ``attrs``; True if that changed a value (what a pass reports)."""
        changed = any(key not in self.attrs or self.attrs[key] != value
                      for key, value in attrs.items())
        self.attrs.update(attrs)
        return changed

    def add_region(self) -> "Region":
        region = Region()
        region.parent_op = self
        self.regions.append(region)
        return region

    def region(self, index: int = 0) -> "Region":
        return self.regions[index]

    def walk(self) -> Iterator["Operation"]:
        """Yield this op and all ops nested in its regions (pre-order)."""
        return _walk((self,))

    def erase(self) -> None:
        """Remove this op from its block and drop operand uses."""
        if self.parent is not None:
            self.parent.operations.remove(self)
            self.parent = None
        for operand in self.operands:
            if self in operand.uses:
                operand.uses.remove(self)
        for result in self.results:
            if result.uses:
                raise IRError(
                    f"cannot erase op '{self.name}': result {result!r} still has uses"
                )

    def replace_with_values(self, values: Sequence[Value]) -> None:
        """Replace this op's results with ``values`` and erase it."""
        if len(values) != len(self.results):
            raise IRError("replacement value count mismatch")
        for result, value in zip(self.results, values):
            result.replace_all_uses_with(value)
        self.erase()

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation, remapping operands through ``value_map``."""
        value_map = value_map if value_map is not None else {}
        operands = [value_map.get(v, v) for v in self.operands]
        new_op = Operation(
            self.name,
            operands=operands,
            result_types=[r.type for r in self.results],
            attrs=dict(self.attrs),
        )
        for old_res, new_res in zip(self.results, new_op.results):
            new_res.name = old_res.name + "_c"
            value_map[old_res] = new_res
        for region in self.regions:
            new_region = new_op.add_region()
            for block in region.blocks:
                new_block = Block(
                    arg_types=[a.type for a in block.args],
                    arg_names=[a.name for a in block.args],
                )
                for old_arg, new_arg in zip(block.args, new_block.args):
                    value_map[old_arg] = new_arg
                new_region.add_block(new_block)
                for op in block.operations:
                    new_block.append(op.clone(value_map))
        return new_op

    def __repr__(self) -> str:
        return f"<{self.name} #{self.uid}>"


class Block:
    """A sequence of operations with block arguments (like an MLIR block)."""

    def __init__(self, arg_types: Sequence[Type] = (), arg_names: Sequence[str] = ()):
        self.args: List[Value] = []
        for i, t in enumerate(arg_types):
            name = arg_names[i] if i < len(arg_names) else ""
            self.args.append(Value(t, name=name, is_block_arg=True, index=i, block=self))
        self.operations: List[Operation] = []
        self.parent: Optional[Region] = None

    def append(self, op: Operation) -> Operation:
        op.parent = self
        self.operations.append(op)
        return op

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        idx = self.operations.index(anchor)
        op.parent = self
        self.operations.insert(idx, op)
        return op

    def add_arg(self, type: Type, name: str = "") -> Value:
        arg = Value(type, name=name, is_block_arg=True, index=len(self.args), block=self)
        self.args.append(arg)
        return arg

    @property
    def terminator(self) -> Optional[Operation]:
        return self.operations[-1] if self.operations else None

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __repr__(self) -> str:
        return f"<Block args={len(self.args)} ops={len(self.operations)}>"


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self):
        self.blocks: List[Block] = []
        self.parent_op: Optional[Operation] = None

    def add_block(self, block: Optional[Block] = None) -> Block:
        block = block or Block()
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    def walk(self) -> Iterator[Operation]:
        return _walk(_block_ops(self.blocks))

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)


class Module:
    """The top-level container: a list of functions and global symbols."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.body = Region()
        self.body.add_block()

    @property
    def operations(self) -> List[Operation]:
        return self.body.entry.operations

    def append(self, op: Operation) -> Operation:
        return self.body.entry.append(op)

    def walk(self) -> Iterator[Operation]:
        return self.body.walk()

    def functions(self) -> List[Operation]:
        return [op for op in self.operations if op.name == "func.func"]

    def function(self, name: str) -> Operation:
        for op in self.functions():
            if op.attrs.get("sym_name") == name:
                return op
        raise IRError(f"no function named '{name}' in module")

    def globals(self) -> List[Operation]:
        return [op for op in self.operations if op.name == "revet.dram_global"]

    def __repr__(self) -> str:
        return f"<Module {self.name}: {len(self.operations)} top-level ops>"


# ---------------------------------------------------------------------------
# Walking / matching helpers used by passes
# ---------------------------------------------------------------------------


def _block_ops(blocks: Iterable[Block]) -> Iterator[Operation]:
    """The ops of ``blocks`` in order; each block's op list is copied when the
    block is reached, so a consumer may erase the op it is looking at."""
    return itertools.chain.from_iterable(list(b.operations) for b in blocks)


def _walk(ops: Iterable[Operation]) -> Iterator[Operation]:
    """Pre-order walk of ``ops`` and everything nested in them, from a stack
    of per-op iterators (one resumption per op, however deep it sits)."""
    stack = [iter(ops)]
    while stack:
        for op in stack[-1]:
            yield op
            if op.regions:
                stack.append(_block_ops(b for r in op.regions for b in r.blocks))
                break
        else:
            stack.pop()


def walk_ops(
    container: Union[Module, Operation, Region, Block],
    predicate: Optional[Callable[[Operation], bool]] = None,
) -> List[Operation]:
    """Collect (a snapshot of) ops in ``container`` matching ``predicate``."""
    if isinstance(container, Block):
        ops = _walk(_block_ops((container,)))
    else:
        ops = container.walk()
    return list(ops if predicate is None else filter(predicate, ops))


def ops_named(container: Union[Module, Operation, Region, Block], name: str) -> List[Operation]:
    """All ops with a given dialect-qualified name."""
    return walk_ops(container, lambda op: op.name == name)


def parent_of_type(op: Operation, name: str) -> Optional[Operation]:
    """Find the closest enclosing op with the given name."""
    current = op.parent
    while current is not None:
        owner = current.parent.parent_op if current.parent else None
        if owner is None:
            return None
        if owner.name == name:
            return owner
        current = owner.parent
    return None

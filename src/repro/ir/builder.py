"""IR builder: insertion-point-based construction of operations."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.errors import IRError
from repro.ir.core import Block, Operation, Type, Value


class Builder:
    """Creates operations at an insertion point inside a block."""

    def __init__(self, block: Optional[Block] = None):
        self.block = block
        self.insert_index: Optional[int] = None  # None = append at end

    # -- insertion point management -----------------------------------------

    def set_insertion_point_to_end(self, block: Block) -> None:
        self.block = block
        self.insert_index = None

    def set_insertion_point_before(self, op: Operation) -> None:
        if op.parent is None:
            raise IRError("cannot set insertion point before a detached op")
        self.block = op.parent
        self.insert_index = op.parent.operations.index(op)

    def set_insertion_point_after(self, op: Operation) -> None:
        if op.parent is None:
            raise IRError("cannot set insertion point after a detached op")
        self.block = op.parent
        self.insert_index = op.parent.operations.index(op) + 1

    # -- op creation ----------------------------------------------------------

    def insert(self, op: Operation) -> Operation:
        if self.block is None:
            raise IRError("builder has no insertion block")
        if self.insert_index is None:
            self.block.append(op)
        else:
            op.parent = self.block
            self.block.operations.insert(self.insert_index, op)
            self.insert_index += 1
        return op

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attrs: Optional[Dict[str, Any]] = None,
        num_regions: int = 0,
    ) -> Operation:
        """Create an op with empty regions and insert it."""
        op = Operation(name, operands=operands, result_types=result_types, attrs=attrs)
        for _ in range(num_regions):
            region = op.add_region()
            region.add_block()
        return self.insert(op)

    def create_detached(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attrs: Optional[Dict[str, Any]] = None,
        num_regions: int = 0,
    ) -> Operation:
        """Create an op without inserting it anywhere."""
        op = Operation(name, operands=operands, result_types=result_types, attrs=attrs)
        for _ in range(num_regions):
            region = op.add_region()
            region.add_block()
        return op

"""SRAM allocator fusion (paper Section V-B(a)).

All allocations in one basic block are fused into a single allocator: one
pointer (drawn from the intersection of the valid ranges) indexes a buffer in
every fused memory.  Functionally each buffer keeps its own address space
(its own MU); the fusion is recorded as a shared ``alloc_group`` attribute so
that (a) the dataflow resource model maps one allocator context per group
instead of one per allocation, and (b) allocator hoisting can recognize
replicate regions with a single fused allocator.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import Module, Operation, walk_ops
from repro.ir.pass_manager import Pass


class AllocatorFusionPass(Pass):
    """Group ``memref.alloc`` ops per block into fused allocator groups."""

    name = "allocator-fusion"

    def __init__(self):
        self.groups: List[List[Operation]] = []

    def run(self, module: Module) -> bool:
        self.groups = []
        blocks: Dict[int, List[Operation]] = {}
        block_objects: Dict[int, object] = {}
        for op in walk_ops(module, lambda o: o.name == "memref.alloc"):
            if op.parent is None:
                continue
            blocks.setdefault(id(op.parent), []).append(op)
            block_objects[id(op.parent)] = op.parent
        changed = False
        group_id = 0
        for block_id, allocs in blocks.items():
            group_name = f"allocgrp{group_id}"
            group_id += 1
            self.groups.append(allocs)
            # The fused pointer range is limited by the largest buffer in the
            # group (the smallest maximum pointer, paper Section V-B(a)).
            max_words = max(a.result().type.size for a in allocs)
            for alloc in allocs:
                changed |= alloc.update_attrs({
                    "alloc_group": group_name,
                    "group_buffer_words": max_words,
                    "group_size": len(allocs),
                })
        return changed

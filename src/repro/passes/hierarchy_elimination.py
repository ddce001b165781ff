"""Foreach hierarchy elimination (paper Section V-A(b), Figure 9).

``foreach`` loops annotated with ``pragma(eliminate_hierarchy)`` are rewritten
from expansion/reduction (which synchronizes all children with SLTF barriers)
into a hierarchy-less ``fork``:

* a one-word shared counter is initialized with the child count,
* the parent thread forks one child per iteration,
* each child runs the body, then atomically decrements the counter,
* children that do not observe the counter reaching zero ``exit()``; the last
  child continues as the parent's continuation.

This removes the strict barrier between consecutive parents, so the straggling
children of one parent can overlap with the next parent's children.
"""

from __future__ import annotations

from repro.ir import Builder, Module, Operation, ops_named
from repro.ir.dialects import arith as arith_d
from repro.ir.dialects import revet as revet_d
from repro.ir.dialects import scf as scf_d
from repro.ir.pass_manager import Pass

PRAGMA_NAME = "eliminate_hierarchy"


class HierarchyEliminationPass(Pass):
    """Rewrite pragma-annotated ``revet.foreach`` ops into ``revet.fork``."""

    name = "hierarchy-elimination"

    def __init__(self):
        self.eliminated = 0

    def run(self, module: Module) -> bool:
        changed = False
        for foreach in ops_named(module, "revet.foreach"):
            if foreach.parent is None:
                continue
            if not self._is_annotated(foreach):
                continue
            self._rewrite(foreach)
            self.eliminated += 1
            changed = True
        return changed

    @staticmethod
    def _is_annotated(foreach: Operation) -> bool:
        return any(
            op.name == "revet.pragma" and op.attrs.get("name") == PRAGMA_NAME
            for op in foreach.region(0).entry.operations
        )

    def _rewrite(self, foreach: Operation) -> None:
        block = foreach.parent
        count, step = foreach.operands
        body = foreach.region(0).entry
        index_arg = body.args[0]

        builder = Builder()
        builder.set_insertion_point_before(foreach)

        # Fork one hierarchy-less child per iteration and rebuild its index.
        # (Figure 9 uses a shared memory counter that children atomically
        # decrement so the *last to finish* continues; the functional executor
        # has no timing, so the equivalent "last child index continues" check
        # is used instead — see DESIGN.md.)
        children = arith_d.binary(builder, "divsi", count, step)
        child = revet_d.fork(builder, children)
        index = arith_d.binary(builder, "muli", child, step)
        index.name = index_arg.name
        index_arg.replace_all_uses_with(index)

        # Inline the body in place of the foreach.
        for op in list(body.operations):
            if op.name in ("revet.yield", "revet.pragma"):
                for operand in op.operands:
                    if op in operand.uses:
                        operand.uses.remove(op)
                continue
            body.operations.remove(op)
            op.parent = None
            block.insert_before(foreach, op)

        # Every child except the designated last one exits; the survivor acts
        # as the parent's continuation.
        tail = Builder()
        tail.set_insertion_point_before(foreach)
        one = arith_d.constant(tail, 1)
        last_index = arith_d.binary(tail, "subi", children, one)
        not_last = arith_d.cmpi(tail, "ne", child, last_index)
        guard = scf_d.if_(tail, not_last, [])
        then_b = Builder()
        then_b.set_insertion_point_to_end(scf_d.then_block(guard))
        revet_d.exit_(then_b)
        scf_d.yield_(then_b)
        else_b = Builder()
        else_b.set_insertion_point_to_end(scf_d.else_block(guard))
        scf_d.yield_(else_b)

        foreach.erase()

"""Allocator hoisting for replicate regions (paper Section V-B(b), Figure 10).

When a replicate region contains exactly one fused allocator group, the
allocator can be hoisted outside the region: the pointer's low bits steer a
thread to a specific replicated region and the high bits address the buffer
inside it.  This (a) needs only one allocator for the whole replicate instead
of one per region and (b) provides round-robin load balancing, because a
region only receives new threads after it frees a buffer.

The pass records the hoisting decision on the ``revet.replicate`` op and the
hoisted allocs; the dataflow resource model consumes these attributes.
Figure 14 models the load balancing itself (:mod:`repro.sim.load_balance`)
from fixed inputs, not from these attributes.
"""

from __future__ import annotations

from repro.ir import Module, ops_named
from repro.ir.pass_manager import Pass


class AllocatorHoistingPass(Pass):
    """Mark replicate regions whose single allocator group can be hoisted."""

    name = "allocator-hoisting"

    def __init__(self):
        self.hoisted = 0

    def run(self, module: Module) -> bool:
        changed = False
        for rep in ops_named(module, "revet.replicate"):
            allocs = ops_named(rep, "memref.alloc")
            groups = {a.attrs.get("alloc_group", a.uid) for a in allocs}
            if allocs and len(groups) == 1:
                rep.attrs["hoisted_allocator"] = True
                rep.attrs["hoisted_group"] = next(iter(groups))
                for alloc in allocs:
                    alloc.attrs["hoisted"] = True
                self.hoisted += 1
                changed = True
            else:
                rep.attrs["hoisted_allocator"] = False
        return changed

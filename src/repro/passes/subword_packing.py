"""Sub-word packing (paper Section V-B(d)).

Live values crossing ``while``-loop merges consume input buffers and network
links, which are the scarcest resources when mapping.  int8/int16 values that
are live into or out of a loop are packed into shared 32-bit lanes.  The pass
records, per ``scf.while``, how many live sub-word values were packed and how
many 32-bit lanes they now occupy; the dataflow resource model uses these
counts when sizing merge contexts.
"""

from __future__ import annotations

from repro.ir import IntType, Module, ops_named
from repro.ir.pass_manager import Pass


class SubwordPackingPass(Pass):
    """Annotate while loops with packed sub-word live-value counts."""

    name = "subword-packing"

    def __init__(self):
        self.packed_values = 0

    def run(self, module: Module) -> bool:
        changed = False
        for loop in ops_named(module, "scf.while"):
            live = list(loop.operands) + list(loop.results)
            subword_bits = 0
            subword_count = 0
            for value in live:
                if isinstance(value.type, IntType) and value.type.width < 32:
                    subword_bits += value.type.width
                    subword_count += 1
            packed_lanes = (subword_bits + 31) // 32
            changed |= loop.update_attrs({
                "subword_live_values": subword_count,
                "packed_lanes": packed_lanes,
                "packed_savings": max(0, subword_count - packed_lanes),
            })
            self.packed_values += subword_count
        return changed

"""Canonicalization: constant folding and dead-code elimination."""

from __future__ import annotations

from repro.ir import Module, Operation, walk_ops
from repro.ir.dialects.arith import BINOP_TO_OPCODE, CMP_TO_OPCODE
from repro.ir.pass_manager import Pass
from repro.core.opcodes import OPCODES

#: Ops with no side effects that may be removed when unused.
PURE_OPS = set(BINOP_TO_OPCODE) | {
    "arith.constant", "arith.cmpi", "arith.select", "arith.extsi", "arith.extui",
    "arith.trunci",
}


class CanonicalizePass(Pass):
    """Fold constant arithmetic and drop unused pure ops."""

    name = "canonicalize"

    def run(self, module: Module) -> bool:
        changed = False
        changed |= self._fold_constants(module)
        changed |= self._eliminate_dead_code(module)
        return changed

    def _fold_constants(self, module: Module) -> bool:
        changed = False
        for op in walk_ops(module):
            folded = self._try_fold(op)
            if folded is None:
                continue
            const = Operation("arith.constant", [], [op.results[0].type],
                              {"value": folded})
            op.parent.insert_before(op, const)
            op.replace_with_values([const.result()])
            changed = True
        return changed

    def _try_fold(self, op: Operation):
        if op.name in BINOP_TO_OPCODE or op.name == "arith.cmpi":
            values = []
            for operand in op.operands:
                if operand.owner is None or operand.owner.name != "arith.constant":
                    return None
                values.append(operand.owner.attrs["value"])
            if op.name == "arith.cmpi":
                opcode = CMP_TO_OPCODE[op.attrs["predicate"]]
            else:
                opcode = BINOP_TO_OPCODE[op.name]
            try:
                return OPCODES[opcode].scalar(*values)
            except (ZeroDivisionError, ValueError):  # it traps at run time
                return None
        return None

    def _eliminate_dead_code(self, module: Module) -> bool:
        changed = False
        # Iterate to a fixed point: removing one op can make its operands dead.
        while True:
            removed = False
            for op in walk_ops(module):
                if op.name not in PURE_OPS or op.parent is None:
                    continue
                if all(not r.uses for r in op.results):
                    op.erase()
                    removed = True
                    changed = True
            if not removed:
                return changed

"""IR verifier: structural and dominance-style checks, in one pre-order pass.

The verifier checks:

* every op's name is registered, with operand/result/region counts and
  required attributes matching its :class:`OpInfo`,
* SSA visibility: every operand is defined before use in the same block, in
  an enclosing region (region values are visible to nested regions), or is a
  block argument,
* region terminators: ``scf.while`` region shapes, ``scf.if`` regions ending
  in ``scf.yield``, and function bodies ending in ``func.return``,
* ``peek`` offsets: a constant offset must lie inside the iterator's tile
  (``docs/executor.md``, "Iterators").
"""

from __future__ import annotations

from typing import Set

from repro.errors import IRError
from repro.ir.core import Module, Operation, ViewType
from repro.ir.dialects.registry import OP_INFO
from repro.ir.dialects.scf import verify_while


def verify(module: Module) -> None:
    """Verify a whole module; raises :class:`IRError` on the first problem."""
    for op in module.operations:
        _verify_tree(op, set())


def _verify_tree(op: Operation, visible: Set[int]) -> None:
    """Check ``op`` and then, in order, everything nested in its regions.

    ``visible`` holds the ``id()`` of every value defined so far in the
    enclosing blocks (lexical scoping).  A block adds its arguments and its
    ops' results as it goes and takes them out again when it ends, so one set
    serves the whole tree and a value never outlives its block.
    """
    _verify_op(op)
    for operand in op.operands:
        if id(operand) not in visible and not operand.is_block_arg:
            raise IRError(f"operand {operand!r} of '{op.name}' used before definition")
    for region in op.regions:
        for block in region.blocks:
            scoped = [id(arg) for arg in block.args if id(arg) not in visible]
            visible.update(scoped)
            for nested in block.operations:
                _verify_tree(nested, visible)
                for result in nested.results:
                    if id(result) not in visible:
                        visible.add(id(result))
                        scoped.append(id(result))
            visible.difference_update(scoped)


def _verify_op(op: Operation) -> None:
    name = op.name
    info = OP_INFO.get(name)
    if info is None:
        raise IRError(f"unregistered operation '{name}'")
    n_operands = len(op.operands)
    if n_operands < info.min_operands:
        raise IRError(
            f"'{name}' expects at least {info.min_operands} operands, got {n_operands}"
        )
    if info.max_operands is not None and n_operands > info.max_operands:
        raise IRError(
            f"'{name}' expects at most {info.max_operands} operands, got {n_operands}"
        )
    if info.num_results is not None and len(op.results) != info.num_results:
        raise IRError(
            f"'{name}' expects {info.num_results} results, got {len(op.results)}"
        )
    if info.num_regions and len(op.regions) != info.num_regions:
        raise IRError(
            f"'{name}' expects {info.num_regions} regions, got {len(op.regions)}"
        )
    for attr in info.required_attrs:
        if attr not in op.attrs:
            raise IRError(f"'{name}' is missing required attribute '{attr}'")
    if name == "scf.while":
        verify_while(op)
    elif name == "scf.if":
        for region in op.regions:
            term = region.entry.terminator
            if op.results and (term is None or term.name != "scf.yield"):
                raise IRError("scf.if with results needs scf.yield terminators")
    elif name == "revet.it_peek":
        _verify_peek(op)
    elif name == "func.func":
        body = op.region(0).entry
        if body.terminator is None or body.terminator.name != "func.return":
            raise IRError(
                f"function '{op.attrs.get('sym_name')}' must end with func.return"
            )


def _verify_peek(op: Operation) -> None:
    """A ``PeekReadIt<N>`` (paper Table I) peeks ahead within its ``N``-element
    tile, so a constant ``peek`` offset outside ``[0, N)`` is an error."""
    it, offset = op.operands
    source = offset.owner
    if not isinstance(it.type, ViewType) or source is None:
        return
    value, tile = source.attrs.get("value"), it.type.size
    if source.name == "arith.constant" and not 0 <= value < tile:
        raise IRError(
            f"peek offset {value} lies outside the "
            f"{tile}-element tile of {it.type.kind}<{tile}>"
        )

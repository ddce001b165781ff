"""``revet`` dialect: the custom front-end and lowering ops (paper Section V-A).

High-level ops created by the front end:

* ``revet.dram_global`` / ``revet.dram_ref`` — DRAM tensors declared at file
  scope and referenced inside functions.
* ``revet.foreach`` — explicitly parallel loop whose body is one thread per
  iteration; it has no results (threads write memory).
* ``revet.replicate`` — distributes threads across multiple scalar pipelines.
* ``revet.fork`` / ``revet.exit`` — dynamic thread spawning and termination.
* ``revet.view_new`` / ``view_load`` / ``view_store`` — tile-transfer views.
* ``revet.it_new`` / ``it_deref`` / ``it_peek`` / ``it_advance`` / ``it_put``
  / ``it_flush`` — data-dependent sequential iterators.
* ``revet.pragma`` — pass directives (e.g. ``eliminate_hierarchy``).

Lowered (physical) ops produced by the optimization pipeline:

* ``revet.bulk_load`` / ``revet.bulk_store`` — AG tile transfers.
* ``revet.dram_load`` / ``revet.dram_store`` — demand word accesses.
* ``revet.alloc_ptr`` / ``revet.free_ptr`` / ``revet.sram_read`` /
  ``revet.sram_write`` — integer-pointer SRAM accesses after the
  memref-to-integer lowering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.builder import Builder
from repro.ir.core import (
    I32,
    DRAMType,
    IntType,
    Module,
    Operation,
    Type,
    Value,
    ViewType,
)

VIEW_KINDS = ("ReadView", "WriteView", "ModifyView")
ITERATOR_KINDS = ("ReadIt", "PeekReadIt", "WriteIt", "ManualWriteIt")


# -- globals -----------------------------------------------------------------


def dram_global(module: Module, name: str, element_width: int = 32,
                size: Optional[int] = None) -> Operation:
    """Declare a DRAM tensor at module scope."""
    op = Operation("revet.dram_global",
                   attrs={"sym_name": name, "element_width": element_width,
                          "size": size})
    module.append(op)
    return op


def dram_ref(builder: Builder, name: str, element_width: int = 32) -> Value:
    """Reference a DRAM global inside a function (yields its base handle)."""
    elem = IntType(element_width) if element_width in (8, 16, 32, 64) else I32
    op = builder.create("revet.dram_ref", [], [DRAMType(elem)], {"name": name})
    return op.result()


# -- parallelism -----------------------------------------------------------------


def foreach(builder: Builder, count: Value, step: Value,
            index_name: str = "i") -> Operation:
    """Create a ``revet.foreach`` over ``0 .. count`` by ``step``.

    The body region gets one block argument: the iteration index.
    """
    op = builder.create("revet.foreach", [count, step], [], num_regions=1)
    op.region(0).entry.add_arg(I32, name=index_name)
    return op


def replicate(builder: Builder, factor: int,
              result_types: Sequence[Type] = ()) -> Operation:
    """Create a ``revet.replicate`` region with the given factor."""
    return builder.create("revet.replicate", [], list(result_types),
                          {"factor": factor}, num_regions=1)


def fork(builder: Builder, count: Value) -> Value:
    """Spawn ``count`` hierarchy-less threads; yields the per-thread index."""
    op = builder.create("revet.fork", [count], [I32])
    return op.result()


def exit_(builder: Builder) -> Operation:
    """Terminate the current thread without returning a value."""
    return builder.create("revet.exit", [], [])


def yield_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create("revet.yield", list(values), [])


def pragma(builder: Builder, name: str) -> Operation:
    return builder.create("revet.pragma", [], [], {"name": name})


# -- views and iterators -------------------------------------------------------------


def view_new(builder: Builder, kind: str, size: int, dram: Value, base: Value,
             element_width: int = 32) -> Value:
    op = builder.create("revet.view_new", [dram, base],
                        [ViewType(kind, size, IntType(element_width))],
                        {"kind": kind, "size": size, "element_width": element_width})
    return op.result()


def view_load(builder: Builder, view: Value, index: Value) -> Value:
    elem = view.type.element if isinstance(view.type, ViewType) else I32
    op = builder.create("revet.view_load", [view, index], [elem])
    return op.result()


def view_store(builder: Builder, view: Value, index: Value, value: Value) -> Operation:
    return builder.create("revet.view_store", [view, index, value], [])


def it_new(builder: Builder, kind: str, tile: int, dram: Value, seek: Value,
           element_width: int = 32) -> Value:
    op = builder.create("revet.it_new", [dram, seek],
                        [ViewType(kind, tile, IntType(element_width))],
                        {"kind": kind, "tile": tile, "element_width": element_width})
    return op.result()


def it_deref(builder: Builder, it: Value) -> Value:
    elem = it.type.element if isinstance(it.type, ViewType) else I32
    op = builder.create("revet.it_deref", [it], [elem])
    return op.result()


def it_peek(builder: Builder, it: Value, offset: Value) -> Value:
    elem = it.type.element if isinstance(it.type, ViewType) else I32
    op = builder.create("revet.it_peek", [it, offset], [elem])
    return op.result()


def it_advance(builder: Builder, it: Value, amount: Optional[Value] = None) -> Operation:
    ops = [it] if amount is None else [it, amount]
    return builder.create("revet.it_advance", ops, [])


def it_put(builder: Builder, it: Value, value: Value) -> Operation:
    return builder.create("revet.it_put", [it, value], [])


def it_flush(builder: Builder, it: Value) -> Operation:
    return builder.create("revet.it_flush", [it], [])


# -- lowered memory ops ---------------------------------------------------------------


def bulk_load(builder: Builder, dram: Value, dram_offset: Value, buffer: Value,
              size: int) -> Operation:
    return builder.create("revet.bulk_load", [dram, dram_offset, buffer], [],
                          {"size": size})


def bulk_store(builder: Builder, dram: Value, dram_offset: Value, buffer: Value,
               size: int, count: Optional[Value] = None) -> Operation:
    """Store ``size`` words (or a dynamic ``count`` <= size) from SRAM to DRAM."""
    operands = [dram, dram_offset, buffer] + ([count] if count is not None else [])
    return builder.create("revet.bulk_store", operands, [], {"size": size})


def dram_load(builder: Builder, dram: Value, offset: Value,
              element_width: int = 32) -> Value:
    op = builder.create("revet.dram_load", [dram, offset],
                        [IntType(element_width)], {"element_width": element_width})
    return op.result()


def dram_store(builder: Builder, dram: Value, offset: Value, value: Value,
               element_width: int = 32) -> Operation:
    return builder.create("revet.dram_store", [dram, offset, value], [],
                          {"element_width": element_width})


def alloc_ptr(builder: Builder, site: str, buffer_words: int,
              max_buffers: int = 4096) -> Value:
    op = builder.create("revet.alloc_ptr", [], [I32],
                        {"site": site, "buffer_words": buffer_words,
                         "max_buffers": max_buffers})
    return op.result()


def free_ptr(builder: Builder, site: str, ptr: Value) -> Operation:
    return builder.create("revet.free_ptr", [ptr], [], {"site": site})


def sram_read(builder: Builder, site: str, ptr: Value, offset: Value) -> Value:
    op = builder.create("revet.sram_read", [ptr, offset], [I32], {"site": site})
    return op.result()


def sram_write(builder: Builder, site: str, ptr: Value, offset: Value,
               value: Value) -> Operation:
    return builder.create("revet.sram_write", [ptr, offset, value], [], {"site": site})

"""Operation metadata registry shared by the verifier and the printer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class OpInfo:
    """Structural constraints for one operation kind."""

    name: str
    min_operands: int = 0
    max_operands: Optional[int] = None
    num_results: Optional[int] = None
    num_regions: int = 0
    terminator: bool = False
    required_attrs: tuple = ()


OP_INFO: Dict[str, OpInfo] = {}


def register(info: OpInfo) -> OpInfo:
    OP_INFO[info.name] = info
    return info


def op_info(name: str) -> Optional[OpInfo]:
    return OP_INFO.get(name)


def is_terminator(name: str) -> bool:
    info = OP_INFO.get(name)
    return bool(info and info.terminator)


# func dialect --------------------------------------------------------------
register(OpInfo("func.func", num_results=0, num_regions=1,
                required_attrs=("sym_name", "type")))
register(OpInfo("func.return", terminator=True, num_results=0))
register(OpInfo("func.call", required_attrs=("callee",)))

# arith dialect ---------------------------------------------------------------
register(OpInfo("arith.constant", min_operands=0, max_operands=0, num_results=1,
                required_attrs=("value",)))
for _binop in ("addi", "subi", "muli", "divsi", "remsi", "andi", "ori", "xori",
               "shli", "shrui", "shrsi", "minsi", "maxsi"):
    register(OpInfo(f"arith.{_binop}", min_operands=2, max_operands=2, num_results=1))
register(OpInfo("arith.cmpi", min_operands=2, max_operands=2, num_results=1,
                required_attrs=("predicate",)))
register(OpInfo("arith.select", min_operands=3, max_operands=3, num_results=1))
register(OpInfo("arith.extui", min_operands=1, max_operands=1, num_results=1))
register(OpInfo("arith.extsi", min_operands=1, max_operands=1, num_results=1))
register(OpInfo("arith.trunci", min_operands=1, max_operands=1, num_results=1))

# memref dialect ---------------------------------------------------------------
register(OpInfo("memref.alloc", min_operands=0, max_operands=1, num_results=1))
register(OpInfo("memref.dealloc", min_operands=1, max_operands=1, num_results=0))
register(OpInfo("memref.load", min_operands=2, max_operands=2, num_results=1))
register(OpInfo("memref.store", min_operands=3, max_operands=3, num_results=0))

# scf dialect -------------------------------------------------------------------
register(OpInfo("scf.if", min_operands=1, max_operands=1, num_regions=2))
register(OpInfo("scf.while", num_regions=2))
register(OpInfo("scf.for", min_operands=3, num_regions=1))
register(OpInfo("scf.yield", terminator=True, num_results=0))
register(OpInfo("scf.condition", min_operands=1, terminator=True, num_results=0))

# revet dialect -------------------------------------------------------------------
register(OpInfo("revet.dram_global", num_results=0,
                required_attrs=("sym_name", "element_width")))
register(OpInfo("revet.dram_ref", num_results=1, required_attrs=("name",)))
register(OpInfo("revet.foreach", min_operands=2, max_operands=2, num_results=0,
                num_regions=1))
register(OpInfo("revet.replicate", num_regions=1, required_attrs=("factor",)))
register(OpInfo("revet.fork", min_operands=1, max_operands=1, num_results=1))
register(OpInfo("revet.exit", terminator=False, num_results=0))
register(OpInfo("revet.yield", terminator=True, num_results=0))
register(OpInfo("revet.pragma", num_results=0, required_attrs=("name",)))
register(OpInfo("revet.view_new", min_operands=2, max_operands=2, num_results=1,
                required_attrs=("kind", "size")))
register(OpInfo("revet.view_load", min_operands=2, max_operands=2, num_results=1))
register(OpInfo("revet.view_store", min_operands=3, max_operands=3, num_results=0))
register(OpInfo("revet.it_new", min_operands=2, max_operands=2, num_results=1,
                required_attrs=("kind", "tile")))
register(OpInfo("revet.it_deref", min_operands=1, max_operands=1, num_results=1))
register(OpInfo("revet.it_peek", min_operands=2, max_operands=2, num_results=1))
register(OpInfo("revet.it_advance", min_operands=1, max_operands=1, num_results=0))
register(OpInfo("revet.it_put", min_operands=2, max_operands=2, num_results=0))
register(OpInfo("revet.it_flush", min_operands=1, max_operands=1, num_results=0))
register(OpInfo("revet.bulk_load", min_operands=3, num_results=0))
register(OpInfo("revet.bulk_store", min_operands=3, num_results=0))
register(OpInfo("revet.dram_load", min_operands=2, max_operands=2, num_results=1))
register(OpInfo("revet.dram_store", min_operands=3, max_operands=3, num_results=0))
register(OpInfo("revet.alloc_ptr", min_operands=0, num_results=1,
                required_attrs=("site", "buffer_words")))
register(OpInfo("revet.free_ptr", min_operands=1, num_results=0,
                required_attrs=("site",)))
register(OpInfo("revet.sram_read", min_operands=2, max_operands=2, num_results=1,
                required_attrs=("site",)))
register(OpInfo("revet.sram_write", min_operands=3, max_operands=3, num_results=0,
                required_attrs=("site",)))

"""Core dataflow-threads machine model: SLTF, primitives, graphs, executor."""

from repro.core.sltf import Barrier, Data, Stream, Token, encode, decode, decode_all
from repro.core.graph import DFGraph, DFNode, DFValue
from repro.core.opcodes import OPCODES
from repro.core.columnar import ColumnarExecutor, ExecutionProfile
from repro.core.executor import Executor, make_executor, run_graph
from repro.core.memory import MemorySystem, MemoryStats
from repro.core.machine import (
    DEFAULT_MACHINE,
    ContextLimits,
    LinkKind,
    MachineConfig,
    ResourceUsage,
)

__all__ = [
    "Barrier",
    "Data",
    "Stream",
    "Token",
    "encode",
    "decode",
    "decode_all",
    "DFGraph",
    "DFNode",
    "DFValue",
    "OPCODES",
    "Executor",
    "ExecutionProfile",
    "run_graph",
    "ColumnarExecutor",
    "make_executor",
    "MemorySystem",
    "MemoryStats",
    "DEFAULT_MACHINE",
    "ContextLimits",
    "LinkKind",
    "MachineConfig",
    "ResourceUsage",
]

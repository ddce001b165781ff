"""Exception hierarchy for the Revet reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SLTFError(ReproError):
    """Malformed SLTF stream or invalid barrier usage."""


class PrimitiveError(ReproError):
    """A streaming primitive was used with invalid inputs."""


class GraphError(ReproError):
    """Invalid dataflow graph construction or execution."""


class MachineError(ReproError):
    """Invalid machine-model configuration or resource mapping."""


class LexError(ReproError):
    """Lexical error in Revet source code."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Syntax error in Revet source code."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class SemanticError(ReproError):
    """Type or semantic error in a Revet program."""


class IRError(ReproError):
    """Malformed IR (verification failure, bad builder usage)."""


class PassError(ReproError):
    """A compiler pass failed or was misconfigured."""


class LoweringError(ReproError):
    """Control-flow to dataflow lowering failed."""

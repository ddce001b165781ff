"""Pass infrastructure: passes, the pass manager, and pipeline assembly."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.errors import IRError, PassError
from repro.ir.core import Module
from repro.ir.verifier import verify


class Pass:
    """Base class for module-level rewrite passes."""

    #: Human-readable pass name (used in pipeline descriptions and timing).
    name: str = "pass"

    def run(self, module: Module) -> bool:
        """Transform ``module`` in place; return True if anything changed.

        Anything :func:`~repro.ir.printer.print_module` would show counts,
        attribute writes included: :class:`PassManager` re-verifies the module
        only after a pass that reports a change.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.name}>"


class FunctionPass(Pass):
    """A pass that visits each ``func.func`` independently."""

    def run(self, module: Module) -> bool:
        changed = False
        for func_op in module.functions():
            changed |= bool(self.run_on_function(module, func_op))
        return changed

    def run_on_function(self, module: Module, func_op) -> bool:
        raise NotImplementedError


@dataclass
class PassTiming:
    """Wall-clock timing for one pass execution."""

    name: str
    seconds: float
    changed: bool


@dataclass
class PassManager:
    """Runs a sequence of passes.

    Under ``verify_each`` the module is verified on entry and again after
    every pass that reports a change, so the module that leaves :meth:`run`
    is the very object the verifier last accepted.
    """

    passes: List[Pass] = field(default_factory=list)
    verify_each: bool = True
    timings: List[PassTiming] = field(default_factory=list)

    def add(self, *passes: Pass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def run(self, module: Module) -> Module:
        if self.verify_each:
            _verify(module, "frontend output")
        for p in self.passes:
            start = time.perf_counter()
            try:
                changed = bool(p.run(module))
            except PassError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                raise PassError(f"pass '{p.name}' failed: {exc}") from exc
            self.timings.append(PassTiming(p.name, time.perf_counter() - start, changed))
            if self.verify_each and changed:
                _verify(module, f"after pass '{p.name}'")
        return module

    def describe(self) -> str:
        """A printable pipeline description."""
        return " -> ".join(p.name for p in self.passes)


def _verify(module: Module, where: str) -> None:
    """Verify ``module``; a failure says at which point of the pipeline."""
    try:
        verify(module)
    except IRError as exc:
        raise IRError(f"{where}: {exc}") from exc

"""Revet reproduction: a language and compiler for dataflow threads.

The public API is organized in layers:

* :mod:`repro.core` — the dataflow-threads machine model (SLTF streams,
  streaming primitives, structured dataflow graphs, functional executor).
* :mod:`repro.lang` / :mod:`repro.frontend` — the Revet language and its
  lowering into the IR.
* :mod:`repro.ir` / :mod:`repro.passes` / :mod:`repro.dataflow` — the
  MLIR-style IR, optimization passes, and control-flow-to-dataflow lowering.
* :mod:`repro.sim` — the cycle-level vRDA performance model and
  Figure 14's admission loop.
* :mod:`repro.apps`, :mod:`repro.baselines`, :mod:`repro.eval` — the paper's
  applications, baselines, and experiment harness.
* :mod:`repro.runtime` — the cached, batched, multi-worker serving engine
  layered over the compiler and executor.
"""

from repro import errors

__version__ = "0.1.0"

__all__ = ["errors", "__version__"]

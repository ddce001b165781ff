"""Cycle-level performance model for the vRDA (Section VI-A).

Only the model is exported: the serving engine imports it, and importing it
must not load Figure 14's admission loop, :mod:`repro.sim.load_balance`.
"""

from repro.sim.perf_model import ThroughputReport, VRDAPerformanceModel, WorkloadProfile

__all__ = [
    "ThroughputReport",
    "VRDAPerformanceModel",
    "WorkloadProfile",
]

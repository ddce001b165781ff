"""Cycle-level performance models for the vRDA (Section VI-A)."""

from repro.sim.perf_model import ThroughputReport, VRDAPerformanceModel, WorkloadProfile
from repro.sim.load_balance import LoadBalanceSimulator, RegionLoad
from repro.sim.policies import (
    AdmissionPolicy,
    AdmissionResult,
    HoistedBufferPolicy,
    RoundRobinPolicy,
    run_admission,
)

__all__ = [
    "ThroughputReport",
    "VRDAPerformanceModel",
    "WorkloadProfile",
    "LoadBalanceSimulator",
    "RegionLoad",
    "AdmissionPolicy",
    "AdmissionResult",
    "HoistedBufferPolicy",
    "RoundRobinPolicy",
    "run_admission",
]

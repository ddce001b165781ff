"""Abstract vRDA machine model parameters (paper Table II).

The machine is a grid of vectorized compute units (CUs), memory units (MUs),
and DRAM address generators (AGs) connected by a hybrid scalar/vector
network.  The parameters here are the ones used throughout the compiler
(splitting constraints), the placer (capacity checks), and the performance
model (bandwidth limits).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import MachineError


class LinkKind(str, Enum):
    """On-chip link classes (paper Section III-C)."""

    VECTOR = "vector"
    SCALAR = "scalar"
    VOID = "void"


@dataclass(frozen=True)
class MachineConfig:
    """Table II parameters for the evaluated vRDA.

    The defaults reproduce the paper's configuration: 200 CUs / 200 MUs /
    80 AGs, 16-lane 6-stage CUs, 256 KiB MUs with 16 banks, 4 vector +
    4 scalar input buffers and outputs per unit, a hybrid network with
    3x vector and 6x scalar channels, and ~900 GB/s HBM2 with 32 B bursts
    at a 1.6 GHz fabric clock.
    """

    num_cus: int = 200
    num_mus: int = 200
    num_ags: int = 80

    lanes: int = 16
    stages: int = 6
    regs_per_lane_stage: int = 6

    mu_banks: int = 16
    mu_capacity_bytes: int = 256 * 1024

    vector_buffers_per_unit: int = 4
    vector_buffer_words: int = 256
    scalar_buffers_per_unit: int = 4
    scalar_buffer_words: int = 64
    vector_outputs_per_unit: int = 4
    scalar_outputs_per_unit: int = 4

    network_vector_channels: int = 3
    network_scalar_channels: int = 6

    clock_ghz: float = 1.6
    word_bytes: int = 4

    dram_bandwidth_gbs: float = 900.0
    dram_burst_bytes: int = 32
    dram_activation_bytes: int = 1024  # one HBM2 row activation granule
    dram_activations_per_us: float = 2800.0

    area_mm2: float = 189.0

    def validate(self) -> None:
        """Raise :class:`MachineError` for non-physical configurations."""
        for name in (
            "num_cus",
            "num_mus",
            "num_ags",
            "lanes",
            "stages",
            "mu_banks",
            "mu_capacity_bytes",
        ):
            if getattr(self, name) <= 0:
                raise MachineError(f"{name} must be positive")
        if self.clock_ghz <= 0 or self.dram_bandwidth_gbs <= 0:
            raise MachineError("clock and DRAM bandwidth must be positive")

    @property
    def mu_words(self) -> int:
        """Words of storage per memory unit."""
        return self.mu_capacity_bytes // self.word_bytes


#: The paper's evaluated configuration (Table II).
DEFAULT_MACHINE = MachineConfig()

#: The V100 die area the paper compares against (815 mm^2, so the vRDA is
#: ~4.3x smaller); used for the area-adjusted speedup in Table V.
V100_AREA_MM2 = 815.0


@dataclass
class ContextLimits:
    """Splitting constraints for one streaming context (virtual CU).

    Derived from :class:`MachineConfig`: a context must fit the pipeline
    stages, register file, and input/output buffer counts of one CU.
    """

    max_ops: int = 6
    max_vector_inputs: int = 4
    max_scalar_inputs: int = 4
    max_vector_outputs: int = 4
    max_scalar_outputs: int = 4
    max_regs_per_lane: int = 36  # 6 regs/stage * 6 stages

    @classmethod
    def from_machine(cls, machine: MachineConfig) -> "ContextLimits":
        return cls(
            max_ops=machine.stages,
            max_vector_inputs=machine.vector_buffers_per_unit,
            max_scalar_inputs=machine.scalar_buffers_per_unit,
            max_vector_outputs=machine.vector_outputs_per_unit,
            max_scalar_outputs=machine.scalar_outputs_per_unit,
            max_regs_per_lane=machine.regs_per_lane_stage * machine.stages,
        )


@dataclass
class ResourceUsage:
    """A CU/MU/AG usage triple, with helpers for aggregation."""

    cu: int = 0
    mu: int = 0
    ag: int = 0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(self.cu + other.cu, self.mu + other.mu, self.ag + other.ag)

    def scaled(self, factor: int) -> "ResourceUsage":
        return ResourceUsage(self.cu * factor, self.mu * factor, self.ag * factor)

    def fits(self, machine: MachineConfig) -> bool:
        """True if this usage fits within the machine's unit counts."""
        return (
            self.cu <= machine.num_cus
            and self.mu <= machine.num_mus
            and self.ag <= machine.num_ags
        )

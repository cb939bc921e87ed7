"""Gate-level simulation: compiled simulator and SP probes."""

from .gatesim import (
    GateSimulator,
    SimulationError,
    pack_vectors,
    unpack_vectors,
)
from .parallel_profile import profile_workload_streams
from .probes import SPCounter, SPProfile, profile_stimulus

__all__ = [
    "GateSimulator",
    "SimulationError",
    "pack_vectors",
    "unpack_vectors",
    "SPCounter",
    "SPProfile",
    "profile_stimulus",
    "profile_workload_streams",
]

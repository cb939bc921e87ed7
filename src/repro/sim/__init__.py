"""Gate-level simulation: compiled simulator, SP probes, VCD output."""

from .gatesim import (
    GateSimulator,
    SimulationError,
    pack_vectors,
    unpack_vectors,
)
from .parallel_profile import profile_workload_streams
from .probes import (
    ActivityProfile,
    SPCounter,
    SPProfile,
    profile_activity,
    profile_stimulus,
)
from .vcd import VcdWriter
from .vcd_reader import VcdParseError, parse_vcd, sp_profile_from_vcd

__all__ = [
    "GateSimulator",
    "SimulationError",
    "pack_vectors",
    "unpack_vectors",
    "ActivityProfile",
    "SPCounter",
    "SPProfile",
    "profile_activity",
    "profile_stimulus",
    "profile_workload_streams",
    "VcdWriter",
    "VcdParseError",
    "parse_vcd",
    "sp_profile_from_vcd",
]

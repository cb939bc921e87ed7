"""Error Lifting: failure models, instrumentation, formal test generation."""

from .instrument import (
    CoverInstrumentation,
    FailingNetlist,
    InstrumentationError,
    RANDOM_C_PORT,
    instrument_for_cover,
    make_failing_netlist,
    shared_failing_netlist,
)
from .fuzz import FuzzResult, FuzzTraceGenerator
from .lifter import (
    ErrorLifter,
    LiftingReport,
    PairOutcome,
    PairResult,
    VariantResult,
)
from .models import CMode, EdgeQualifier, FailureModel, ViolationKind
from .parallel import lift_pairs
from .testcase import (
    IsaMapper,
    TestCase,
    TestInstruction,
    UnmappableTraceError,
)

__all__ = [
    "CoverInstrumentation",
    "FailingNetlist",
    "InstrumentationError",
    "RANDOM_C_PORT",
    "instrument_for_cover",
    "make_failing_netlist",
    "shared_failing_netlist",
    "FuzzResult",
    "FuzzTraceGenerator",
    "ErrorLifter",
    "LiftingReport",
    "PairOutcome",
    "PairResult",
    "VariantResult",
    "CMode",
    "EdgeQualifier",
    "FailureModel",
    "ViolationKind",
    "lift_pairs",
    "IsaMapper",
    "TestCase",
    "TestInstruction",
    "UnmappableTraceError",
]

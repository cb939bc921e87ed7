"""Transistor-aging models: BTI physics, timing-library characterization."""

from .bti import (
    BOLTZMANN_EV,
    SECONDS_PER_YEAR,
    BtiParameters,
    DEFAULT_BTI,
    cell_delta_vth,
    delay_factor,
    delta_vth,
    recovery_fraction,
)
from .charlib import AgingTimingLibrary, CellAgingTable, degradation_curve
from .corners import OperatingCorner, TYPICAL_CORNER, WORST_CORNER

__all__ = [
    "BOLTZMANN_EV",
    "SECONDS_PER_YEAR",
    "BtiParameters",
    "DEFAULT_BTI",
    "cell_delta_vth",
    "delay_factor",
    "delta_vth",
    "recovery_fraction",
    "AgingTimingLibrary",
    "CellAgingTable",
    "degradation_curve",
    "OperatingCorner",
    "TYPICAL_CORNER",
    "WORST_CORNER",
]

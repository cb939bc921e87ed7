"""Operating corners for statically robust timing analysis (§3.2.2).

Foundry sign-off requires STA under pessimistic combinations of process,
voltage, and temperature plus on-chip-variation derates.  The paper's
Aging-Aware STA runs at the most pessimistic corner — so that while some
flagged paths may never fail in the field, every real-world failing path
is captured.  This module defines that corner structure.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OperatingCorner:
    """One analysis corner.

    Attributes:
        name: Human-readable corner label.
        temperature_c: Junction temperature assumed for BTI and delays.
        voltage_scale: Supply relative to nominal; low voltage slows
            gates, so worst-case setup analysis uses < 1.0.
        late_derate: On-chip-variation multiplier applied to *max* path
            delays (pessimistic for setup checks).
        early_derate: OCV multiplier applied to *min* path delays
            (pessimistic for hold checks).
    """

    name: str
    temperature_c: float
    voltage_scale: float
    late_derate: float
    early_derate: float

    def scale_max_delay(self, delay: float) -> float:
        """Worst-case (late) view of a max delay at this corner."""
        return delay * self.late_derate / self.voltage_scale

    def scale_min_delay(self, delay: float) -> float:
        """Best-case (early) view of a min delay at this corner."""
        return delay * self.early_derate * self.voltage_scale


#: Sign-off corner: hot, undervolted, with +/-5 % OCV derates.
WORST_CORNER = OperatingCorner(
    name="ss_0.81v_105c",
    temperature_c=105.0,
    voltage_scale=0.95,
    late_derate=1.05,
    early_derate=0.95,
)

#: Typical corner, for comparison/ablation runs.
TYPICAL_CORNER = OperatingCorner(
    name="tt_0.90v_25c",
    temperature_c=25.0,
    voltage_scale=1.0,
    late_derate=1.0,
    early_derate=1.0,
)

"""The ``ResponseReport`` artifact: recovered lifetime vs cost.

One row per response policy, each a pure function of (netlist, SP
profile, configs): no wall clock, no worker counts, no resume
provenance — the report is byte-identical however the evaluation was
parallelized or resumed, mirroring the campaign-report contract.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional


@dataclass
class ResponseReport:
    """Recovered lifetime vs accuracy/frequency cost per policy.

    Each ``policies`` row carries::

        policy             name ("derate" | "resynth" | "approximate")
        applicable         False when the policy had nothing to act on
        new_onset_years    first violation onset after the response
        censored           True when no violation inside the scan
                           horizon (onset is horizon * censor_factor)
        recovered_years    new onset minus the baseline onset
        mission_slack_ns   setup WNS at the mission age after the
                           response (never censored)
        frequency_cost_pct clock-period stretch (derate only)
        accuracy_cost_pct  output-mismatch % over sampled operands
                           (approximate only)
        area_delta_cells   cells re-synthesized (> 0) or removed (< 0)
        equivalent         equivalence-check verdict vs the original
                           netlist (None: budget exhausted)
        detail             human-readable description of the action
    """

    unit: str
    period_ns: float
    mission_years: float
    horizon_years: float
    censor_factor: float
    baseline_onset_years: Optional[float]
    victim_start: Optional[str]
    victim_end: Optional[str]
    victim_kind: Optional[str]
    #: Setup WNS at the mission age with no response applied.
    baseline_mission_slack_ns: Optional[float] = None
    policies: List[dict] = field(default_factory=list)

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no wall clock, no worker count."""
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResponseReport":
        return cls(**json.loads(text))

    # -- human view ----------------------------------------------------
    def summary(self) -> str:
        if self.baseline_onset_years is None:
            return (
                f"response: {self.unit} signed off at "
                f"{self.period_ns:.4f} ns; no violation inside the "
                f"{self.horizon_years:.0f}y scan horizon — nothing to "
                "respond to"
            )
        lines = [
            f"response: {self.unit} signed off at {self.period_ns:.4f} ns; "
            f"first violation {self.victim_start} ~> {self.victim_end} "
            f"({self.victim_kind}) at {self.baseline_onset_years:.1f}y "
            f"(mission {self.mission_years:.0f}y, mission slack "
            f"{self.baseline_mission_slack_ns:+.4f} ns)",
            "  policy      | new onset | recovered | slack@mission "
            "| freq cost | accuracy | cells",
        ]
        censored_note = False
        for row in self.policies:
            if not row.get("applicable", True):
                lines.append(
                    f"  {row['policy']:<11s} | (not applicable: "
                    f"{row['detail']})"
                )
                continue
            mark = "*" if row["censored"] else " "
            censored_note = censored_note or row["censored"]
            lines.append(
                f"  {row['policy']:<11s} | {row['new_onset_years']:8.2f}y{mark}"
                f"| {row['recovered_years']:+8.2f}y "
                f"| {row['mission_slack_ns']:+10.4f} ns "
                f"| {row['frequency_cost_pct']:8.1f}% "
                f"| {row['accuracy_cost_pct']:7.2f}% "
                f"| {row['area_delta_cells']:+d}"
            )
        if censored_note:
            lines.append(
                f"  (* censored: no violation inside the "
                f"{self.horizon_years:.0f}y horizon; onset reported as "
                f"horizon x {self.censor_factor})"
            )
        return "\n".join(lines)

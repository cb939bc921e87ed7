"""Field-lifetime simulation: when does aging strike, and how fast is
it caught?

The paper's Takeaway #1: "Increasing the frequency of SDC testing can
lead to more timely detection of SDCs."  This module quantifies that
claim on our stack by simulating a part's deployment:

1. sweep the device age year by year, re-running aging-aware STA at
   each point to find when the first timing violation *onsets* (the
   reaction-diffusion model front-loads degradation, so margins erode
   quickly early and slowly later);
2. when a violation onsets, inject its failure model into the
   co-simulated unit and measure how many scheduled suite executions
   pass before the fault is reported — the *detection latency*;
3. convert test-schedule periods (per-second, hourly, quarterly à la
   Alibaba) into wall-clock detection-latency estimates.

This is an extension beyond the paper's evaluation, but directly in its
motivation's terms (§1, §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import AgingAnalysisConfig, CampaignConfig
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from ..sta.aging_sta import AgingAwareSta

#: Seconds per test-schedule period, for latency conversion.
SCHEDULES = {
    "per-second": 1.0,
    "per-minute": 60.0,
    "hourly": 3600.0,
    "daily": 86400.0,
    "quarterly (Alibaba)": 7889400.0,  # ~3 months
}


@dataclass
class OnsetPoint:
    """First appearance of a violating pair during the age sweep."""

    years: float
    start: str
    end: str
    kind: str
    wns_ns: float


@dataclass
class LifetimeReport:
    """Result of one lifetime sweep."""

    netlist_name: str
    years: List[float] = field(default_factory=list)
    wns_by_year: Dict[float, float] = field(default_factory=dict)
    violations_by_year: Dict[float, int] = field(default_factory=dict)
    onsets: List[OnsetPoint] = field(default_factory=list)

    @property
    def first_onset_years(self) -> Optional[float]:
        return self.onsets[0].years if self.onsets else None

    def detection_wall_clock(
        self, suite_runs_needed: int = 1
    ) -> Dict[str, float]:
        """Seconds from fault onset to detection per schedule.

        A fault manifests between two scheduled runs; on average it
        waits half a period, plus (runs_needed - 1) full periods when
        earlier runs miss (initial-value dependency).
        """
        return {
            name: period * (0.5 + (suite_runs_needed - 1))
            for name, period in SCHEDULES.items()
        }


class LifetimeSimulator:
    """Year-by-year aging sweep over one unit."""

    def __init__(
        self,
        netlist: Netlist,
        profile: SPProfile,
        config: Optional[AgingAnalysisConfig] = None,
        gated_instances=None,
        clock_chain_length: int = 1,
    ):
        self.netlist = netlist
        self.profile = profile
        self.sta = AgingAwareSta(
            netlist,
            config=config,
            gated_instances=gated_instances,
            clock_chain_length=clock_chain_length,
        )

    def sweep(self, years: Sequence[float]) -> LifetimeReport:
        """Run aging-aware STA at each age; record WNS and onsets."""
        report = LifetimeReport(netlist_name=self.netlist.name)
        # The sign-off period is age-independent: derived once, fresh.
        period = self.sta.derive_period()
        seen_pairs = set()
        for age in years:
            result = self.sta.at_age(age).analyze(
                self.profile, clock_period_ns=period
            )
            aged = result.report
            report.years.append(age)
            report.wns_by_year[age] = aged.wns_setup_ns
            report.violations_by_year[age] = len(aged.violations)
            for violation in aged.representative_violations():
                pair = (violation.start, violation.end, violation.kind)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                report.onsets.append(
                    OnsetPoint(
                        years=age,
                        start=violation.start,
                        end=violation.end,
                        kind=violation.kind,
                        wns_ns=violation.slack,
                    )
                )
        return report


def base_onset_years(config: CampaignConfig, unit_experiment=None) -> float:
    """Fleet-median violation onset a campaign samples its fleet around.

    The pinned ``config.base_onset_years`` wins; else the
    :meth:`AgingAwareSta.onset` of ``unit_experiment`` (a
    :class:`~repro.core.experiments.UnitExperiment`) on a coarse grid;
    else, with no unit or no onset, mid-life at 0.6 x the mission.
    """
    if config.base_onset_years is not None:
        return float(config.base_onset_years)
    onset = None
    if unit_experiment is not None:
        from ..core.experiments import CLOCK_CHAIN_LENGTH

        sta = AgingAwareSta(
            unit_experiment.netlist,
            config=unit_experiment.context.config.aging,
            gated_instances=unit_experiment.gated_instances(),
            clock_chain_length=CLOCK_CHAIN_LENGTH,
        )
        onset = sta.onset(
            unit_experiment.sp_profile,
            sta.derive_period(),
            (2.5, 5.0, 7.5, 10.0),
        )
    if onset is None:
        onset = 0.6 * config.mission_years
    return float(onset)

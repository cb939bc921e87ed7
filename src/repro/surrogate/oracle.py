"""Exact per-device aging oracle: the surrogate's label source.

One oracle wraps the exact bottom-up pipeline — charlib aging-library
characterization at the device's corner temperature plus aging-aware
STA — and answers two questions per (SP profile, corner):

* ``onset(profile, corner)``: first age on the configured grid whose
  aged STA violates, scanning the grid in order with early exit.  The
  linear scan is deliberate: it matches the "first violating age in
  the sweep grid" semantics of
  :class:`repro.core.lifetime.LifetimeSimulator`, with no monotonicity
  assumption layered on top.
* ``label(...)``: the dataset row's targets — (onset or censored,
  worst setup slack at a sampled age).

Each corner gets one :class:`~repro.sta.aging_sta.AgingAwareSta`, which
characterizes its libraries per age at the corner's temperature and
memoizes the sign-off period: the Arrhenius term makes the typical
corner's 25 degC BTI ~57x slower than the sign-off corner's 105 degC,
which is exactly the per-corner signal the surrogate's corner features
learn.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..aging.corners import OperatingCorner
from ..core import telemetry
from ..core.config import AgingAnalysisConfig, SurrogateConfig
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from ..sta.aging_sta import AgingAwareSta
from ..sta.timing import StaticTimingAnalyzer


class ExactAgingOracle:
    """Labels (profile, corner, age) triples with the exact pipeline.

    Probes are cheap relative to a full phase-1 run: paths are only
    enumerated one per endpoint (the oracle needs the violation *bit*
    and the WNS, not the Table 3 path census), and the per-corner STA
    driver — with its sign-off period and per-age libraries — is built
    once and reused across every device the oracle labels.
    """

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SurrogateConfig] = None,
        aging_config: Optional[AgingAnalysisConfig] = None,
        gated_instances: Optional[Mapping[str, float]] = None,
    ):
        self.netlist = netlist
        self.config = config or SurrogateConfig()
        self.aging_config = aging_config or AgingAnalysisConfig()
        self.age_grid: Tuple[float, ...] = tuple(self.config.age_grid)
        self._sta: Dict[str, AgingAwareSta] = {}
        self._gated = gated_instances

    # ------------------------------------------------------------------
    @property
    def censored_onset(self) -> float:
        """Right-censored onset label for never-violating devices."""
        return round(self.config.censor_factor * self.age_grid[-1], 6)

    def sta_for(self, corner: OperatingCorner) -> AgingAwareSta:
        """The aging STA driver for one corner."""
        sta = self._sta.get(corner.name)
        if sta is None:
            sta = AgingAwareSta(
                self.netlist,
                config=self.aging_config,
                corner=corner,
                gated_instances=self._gated,
            )
            self._sta[corner.name] = sta
        return sta

    # ------------------------------------------------------------------
    def probe(
        self, profile: SPProfile, corner: OperatingCorner, age_years: float
    ) -> Tuple[bool, float]:
        """(violates?, worst setup slack ns) at one aged operating point."""
        sta = self.sta_for(corner)
        model, _ = sta.at_age(age_years).aged_delay_model(profile)
        report = StaticTimingAnalyzer(self.netlist, model).check(
            sta.derive_period(),
            max_paths_per_endpoint=1,
            max_total_paths=64,
        )
        telemetry.add("surrogate.oracle.probes")
        return bool(report.violations), report.wns_setup_ns

    def onset(
        self, profile: SPProfile, corner: OperatingCorner
    ) -> Optional[float]:
        """First violating age on the grid, or None (clean horizon).

        Linear scan with early exit — the same "first violating age in
        the sweep" definition as ``LifetimeSimulator.sweep``.  Clean
        devices pay the full grid; that asymmetry is precisely what the
        surrogate's cleared cohort amortizes away.
        """
        for age in self.age_grid:
            violates, _ = self.probe(profile, corner, age)
            if violates:
                return age
        return None

    def label(
        self,
        profile: SPProfile,
        corner: OperatingCorner,
        slack_age_years: float,
    ) -> Tuple[float, bool, float]:
        """Dataset targets: (onset_years, censored?, slack at sampled age).

        ``onset_years`` is the censored value
        (``censor_factor * age_grid[-1]``) when the device never
        violates inside the horizon, keeping the regression target
        finite while placing clean devices strictly beyond every real
        onset.
        """
        onset = self.onset(profile, corner)
        censored = onset is None
        _, slack = self.probe(profile, corner, slack_age_years)
        return (
            self.censored_onset if censored else onset,
            censored,
            slack,
        )

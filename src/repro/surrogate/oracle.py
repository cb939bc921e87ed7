"""Exact per-device aging oracle: the surrogate's label source.

One oracle wraps the exact bottom-up pipeline — charlib aging-library
characterization at the device's corner temperature plus aging-aware
STA — and answers two questions per (SP profile, corner):

* ``onset(profile, corner)``: first age on the configured grid whose
  aged STA violates, found by
  :meth:`~repro.sta.aging_sta.AgingAwareSta.onset` — one probe at the
  horizon for a clean device, else a bisection of the grid, which
  equals a linear scan because the violation bit is monotone in age.
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

from typing import Dict, Optional, Tuple

from ..aging.corners import OperatingCorner
from ..core import telemetry
from ..core.config import SurrogateConfig
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from ..sta.aging_sta import AgingAwareSta, censor_onset


class ExactAgingOracle:
    """Labels (profile, corner, age) triples with the exact pipeline.

    Each probe is an :meth:`AgingAwareSta.probe` (one path per
    endpoint), and the per-corner STA driver — with its sign-off period
    and per-age libraries — is reused across every device labeled.
    """

    def __init__(
        self, netlist: Netlist, config: Optional[SurrogateConfig] = None
    ):
        self.netlist = netlist
        self.age_grid: Tuple[float, ...] = tuple(
            (config or SurrogateConfig()).age_grid
        )
        self._sta: Dict[str, AgingAwareSta] = {}

    # ------------------------------------------------------------------
    def sta_for(self, corner: OperatingCorner) -> AgingAwareSta:
        """The aging STA driver for one corner."""
        sta = self._sta.get(corner.name)
        if sta is None:
            sta = AgingAwareSta(self.netlist, corner=corner)
            self._sta[corner.name] = sta
        return sta

    def onset(
        self, profile: SPProfile, corner: OperatingCorner
    ) -> Optional[float]:
        """First violating age on the grid, or None (clean horizon)."""
        sta = self.sta_for(corner)
        before = sta.probes
        onset = sta.onset(profile, sta.derive_period(), self.age_grid)
        telemetry.add("surrogate.oracle.probes", sta.probes - before)
        return onset

    def label(
        self,
        profile: SPProfile,
        corner: OperatingCorner,
        slack_age_years: float,
    ) -> Tuple[float, bool, float]:
        """Dataset targets: (onset_years, censored?, slack at sampled age).

        ``onset_years`` is the censored value (``censor_onset``) when
        the device never violates inside the horizon, keeping the
        regression target finite while placing clean devices strictly
        beyond every real onset.
        """
        onset, censored = censor_onset(
            self.onset(profile, corner), self.age_grid
        )
        sta = self.sta_for(corner)
        report = sta.at_age(slack_age_years).probe(
            profile, sta.derive_period()
        )
        telemetry.add("surrogate.oracle.probes")
        return onset, censored, report.wns_setup_ns

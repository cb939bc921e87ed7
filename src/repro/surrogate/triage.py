"""Fleet triage: surrogate-cleared cohort + exactly re-verified tail.

The triage contract:

* Every device of a ``config.devices``-sized fleet is drawn from the
  ``surrogate.fleet`` stream — a corner, a workload-skew intensity,
  and (through the shared :func:`~repro.surrogate.dataset
  .device_sp_vector` stream) a per-net SP vector.
* The surrogate scores every device in microseconds.  Devices whose
  predicted onset clears the calibrated threshold form the *cleared
  cohort* and never touch the exact pipeline; the rest are the
  *predicted-risky tail*.
* The tail is re-verified **exactly**: :func:`profiled_fleet` runs the
  per-device oracle (charlib + aging STA, bisecting onset search) and
  builds real :class:`~repro.campaign.fleet.DeviceSpec`\\ s, which the
  unmodified :class:`~repro.campaign.engine.CampaignEngine` executes
  as its ``fleet``.  Because a device's spec is a pure function of
  its index — the rng draw order is fixed and the oracle consumes no
  randomness — the tail's report rows are byte-identical to the rows
  an all-exact campaign over the full fleet would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..aging.corners import TYPICAL_CORNER, WORST_CORNER
from ..campaign.fleet import DeviceSpec, assign_model
from ..core import telemetry
from ..core.config import CampaignConfig, SurrogateConfig
from ..core.rng import stream_rng, stream_seed
from ..lifting.models import FailureModel
from ..netlist.cells import CellLibrary
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from ..sta.aging_sta import censor_onset
from .dataset import device_sp_vector
from .features import FleetFeaturizer
from .model import RidgeSurrogate
from .oracle import ExactAgingOracle


def fleet_draws(
    config: CampaignConfig, surrogate: SurrogateConfig, index: int
):
    """(rng, corner, intensity) for one triaged device.

    The returned rng has consumed exactly the corner and intensity
    draws; :func:`profiled_spec` continues it for the faulty-model
    assignment, so the exact and surrogate paths draw identical streams.
    """
    rng = stream_rng("surrogate.fleet", config.seed, index)
    corner = (
        WORST_CORNER
        if rng.random() < config.worst_corner_fraction
        else TYPICAL_CORNER
    )
    intensity = rng.uniform(surrogate.skew_min, surrogate.skew_max)
    return rng, corner, intensity


def profiled_spec(
    index: int,
    oracle: ExactAgingOracle,
    featurizer: FleetFeaturizer,
    base_sp: np.ndarray,
    config: CampaignConfig,
    surrogate: SurrogateConfig,
    models: Sequence[FailureModel],
) -> DeviceSpec:
    """Exactly analyzed device spec for one fleet index.

    A pure function of ``index``: the onset comes from the exact
    oracle (clean devices land at the censored onset of
    :func:`~repro.sta.aging_sta.censor_onset` — strictly beyond the
    mission window, so they are healthy), then the model draw
    continues the device's own rng stream.  Analyzing any subset of
    indices, in any order, yields the same specs as analyzing the full
    fleet.
    """
    rng, corner, intensity = fleet_draws(config, surrogate, index)
    sp = device_sp_vector(
        base_sp, intensity, surrogate.noise, config.seed, index
    )
    onset_years, _ = censor_onset(
        oracle.onset(featurizer.profile(sp), corner), oracle.age_grid
    )
    faulty, model = assign_model(
        rng, list(models), onset_years, config.mission_years
    )
    return DeviceSpec(
        index=index,
        device_id=f"dev-{index:04d}",
        corner=corner.name,
        onset_years=round(onset_years, 6),
        faulty=faulty,
        model=model,
        backend_seed=stream_seed("campaign.backend", config.seed, index)
        & 0xFFFFFFFF,
    )


def profiled_fleet(
    netlist: Netlist,
    library: CellLibrary,
    base_profile: SPProfile,
    models: Sequence[FailureModel],
    config: CampaignConfig,
    surrogate: Optional[SurrogateConfig] = None,
    indices: Optional[Sequence[int]] = None,
) -> List[DeviceSpec]:
    """Exact per-device analysis for ``indices`` (default: all devices).

    This is the expensive path the surrogate exists to amortize: every
    listed device pays an oracle onset search.
    """
    surrogate = surrogate or SurrogateConfig()
    featurizer = FleetFeaturizer(netlist, buckets=surrogate.level_buckets)
    oracle = ExactAgingOracle(netlist, config=surrogate)
    base_sp = featurizer.base_vector(base_profile)
    if indices is None:
        indices = range(config.devices)
    return [
        profiled_spec(
            index, oracle, featurizer, base_sp, config, surrogate, models
        )
        for index in indices
    ]


@dataclass(frozen=True)
class TriagedDevice:
    """The surrogate's verdict on one sampled device."""

    index: int
    device_id: str
    corner: str
    intensity: float
    predicted_onset_years: float
    predicted_slack_ns: float
    flagged: bool


@dataclass
class TriageOutcome:
    """A whole fleet's triage split."""

    threshold: float
    mission_years: float
    devices: List[TriagedDevice] = field(default_factory=list)

    @property
    def cleared(self) -> List[TriagedDevice]:
        return [d for d in self.devices if not d.flagged]

    @property
    def flagged_indices(self) -> List[int]:
        return [d.index for d in self.devices if d.flagged]


def triage_fleet(
    model: RidgeSurrogate,
    netlist: Netlist,
    base_profile: SPProfile,
    config: CampaignConfig,
    surrogate: Optional[SurrogateConfig] = None,
    featurizer: Optional[FleetFeaturizer] = None,
) -> TriageOutcome:
    """Score every device of the fleet; split cleared vs flagged.

    Devices are scored at ``config.mission_years`` of age (the horizon
    the operator cares about).  The threshold is the model's
    calibrated one — a model without calibration is refused, since an
    uncalibrated threshold silently clears everything.
    """
    threshold = model.threshold
    if threshold is None:
        raise ValueError(
            "surrogate model carries no calibrated threshold; train it "
            "with train_surrogate before triage"
        )
    surrogate = surrogate or SurrogateConfig()
    if featurizer is None:
        featurizer = FleetFeaturizer(
            netlist, buckets=surrogate.level_buckets
        )
    base_sp = featurizer.base_vector(base_profile)
    devices: List[TriagedDevice] = []
    with telemetry.span(
        "surrogate.triage",
        devices=config.devices,
        threshold=round(threshold, 6),
    ):
        for index in range(config.devices):
            _, corner, intensity = fleet_draws(config, surrogate, index)
            sp = device_sp_vector(
                base_sp, intensity, surrogate.noise, config.seed, index
            )
            features = featurizer.vector(
                sp, corner.name, config.mission_years
            )
            onset_pred, slack_pred = model.predict(features)[0]
            flagged = bool(onset_pred <= threshold)
            devices.append(
                TriagedDevice(
                    index=index,
                    device_id=f"dev-{index:04d}",
                    corner=corner.name,
                    intensity=intensity,
                    predicted_onset_years=float(onset_pred),
                    predicted_slack_ns=float(slack_pred),
                    flagged=flagged,
                )
            )
            telemetry.add(
                "surrogate.triage.flagged"
                if flagged
                else "surrogate.triage.cleared"
            )
    return TriageOutcome(
        threshold=float(threshold),
        mission_years=config.mission_years,
        devices=devices,
    )

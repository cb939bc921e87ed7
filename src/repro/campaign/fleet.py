"""Deterministic virtual-fleet sampling.

A fleet is a population of devices running the same netlist under
different conditions.  Two findings from related work shape the
sampling model:

* workload skew makes per-device degradation *individual* — targeted
  wearout work shows adversarial instruction mixes age one core far
  faster than its neighbours — so devices must be sampled, not
  replicated;
* ML aging-prediction work frames violation onset as a
  workload-dependent *distribution* over the population, which the
  sampler realizes as a log-normal draw around the unit's base onset,
  scaled by the device's operating corner.

Every draw flows through a named RNG stream
(:func:`repro.core.rng.stream_seed`) keyed by the campaign seed and the
device index, so fleet #"seed 2024, device 7" is the same device in
every process, on every platform, for any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..aging.corners import TYPICAL_CORNER, WORST_CORNER, OperatingCorner
from ..core.config import CampaignConfig
from ..core.rng import stream_seed
from ..lifting.models import FailureModel

#: Corner catalogue the sampler draws from, by name.
CORNERS = {
    WORST_CORNER.name: WORST_CORNER,
    TYPICAL_CORNER.name: TYPICAL_CORNER,
}


@dataclass(frozen=True)
class DeviceSpec:
    """One sampled device of the virtual fleet.

    Attributes:
        index: Position in the fleet (also the RNG stream index).
        device_id: Stable human-readable id (``dev-0007``).
        corner: Name of the device's operating corner.
        onset_years: Sampled age at which the first violation onsets.
        faulty: Whether the onset lands inside the mission window —
            only faulty devices carry an injected failure model.
        model: The injected circuit-level failure model, or ``None``
            for a healthy device.
        backend_seed: Seed for the device's co-simulation backend RNG
            (drives the per-cycle C of ``CMode.RANDOM`` models).
    """

    index: int
    device_id: str
    corner: str
    onset_years: float
    faulty: bool
    model: Optional[FailureModel]
    backend_seed: int

    @property
    def c_mode(self) -> Optional[str]:
        return self.model.c_mode.value if self.model is not None else None

    @property
    def model_label(self) -> Optional[str]:
        return self.model.label if self.model is not None else None


def _corner_acceleration(corner: OperatingCorner) -> float:
    """Relative aging acceleration of a corner.

    The worst corner's hot, undervolted, late-derated view of a unit
    delay is its stress factor; dividing onset by it pulls worst-corner
    devices' violations earlier, exactly the pessimism ordering the
    sign-off flow assumes.
    """
    return corner.scale_max_delay(1.0)


def assign_model(
    rng: random.Random,
    models: Sequence[FailureModel],
    onset_years: float,
    mission_years: float,
) -> Tuple[bool, Optional[FailureModel]]:
    """Shared faulty/model draw for every fleet sampler.

    A device whose onset lands inside the mission window is faulty and
    carries one model drawn from the catalogue; the draw consumes the
    device stream only when faulty, so samplers that learn the onset
    late (the surrogate's exact per-device oracle) make byte-identical
    choices to ones that draw it up front.
    """
    faulty = bool(models) and onset_years <= mission_years
    model = rng.choice(list(models)) if faulty else None
    return faulty, model


def sample_fleet(
    config: CampaignConfig,
    failing_models: Sequence[FailureModel],
    base_onset_years: float,
) -> List[DeviceSpec]:
    """Sample ``config.devices`` devices deterministically.

    ``failing_models`` is the unit's catalogue of constructed failure
    models (order-sensitive: callers must pass a deterministic
    sequence).  A device is *faulty* when its onset draw lands inside
    ``config.mission_years``; it is then assigned one model from the
    catalogue.  An empty catalogue yields an all-healthy fleet.
    """
    models = list(failing_models)
    fleet: List[DeviceSpec] = []
    for index in range(config.devices):
        rng = random.Random(stream_seed("campaign.fleet", config.seed, index))
        corner = (
            WORST_CORNER
            if rng.random() < config.worst_corner_fraction
            else TYPICAL_CORNER
        )
        onset = (
            base_onset_years
            * rng.lognormvariate(0.0, config.onset_sigma)
            / _corner_acceleration(corner)
        )
        faulty, model = assign_model(
            rng, models, onset, config.mission_years
        )
        fleet.append(
            DeviceSpec(
                index=index,
                device_id=f"dev-{index:04d}",
                corner=corner.name,
                onset_years=round(onset, 6),
                faulty=faulty,
                model=model,
                backend_seed=stream_seed(
                    "campaign.backend", config.seed, index
                )
                & 0xFFFFFFFF,
            )
        )
    return fleet


def fleet_digest(fleet: Sequence[DeviceSpec]) -> List[tuple]:
    """Canonical identity of a sampled fleet, for cache keys."""
    return [
        (
            spec.index,
            spec.device_id,
            spec.corner,
            spec.onset_years,
            spec.faulty,
            spec.model_label,
            spec.backend_seed,
        )
        for spec in fleet
    ]

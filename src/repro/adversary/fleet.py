"""Attack fleets: the natural fleet under adversarial acceleration.

An attack fleet describes the *same individuals* as the natural fleet —
every per-device corner, onset, and mechanism draw flows through the
shared :func:`repro.campaign.fleet.device_draw` streams — with one
difference: devices the attacker reaches have their onset divided by
the search's acceleration factor before the mission-window check.
Per-device detection lead (natural onset minus attacked onset) is
therefore well defined, and the fleets drop into the unchanged
:class:`~repro.campaign.engine.CampaignEngine` (and its packed
prefilter) via the ``fleet=`` override.
"""

from __future__ import annotations

from typing import List, Sequence

from ..campaign.fleet import DeviceSpec, assign_model, device_draw
from ..core.config import CampaignConfig
from ..core.rng import stream_rng, stream_seed
from ..lifting.models import FailureModel


def sample_attack_fleet(
    config: CampaignConfig,
    failing_models: Sequence[FailureModel],
    base_onset_years: float,
    acceleration: float,
    attack_fraction: float = 1.0,
    attack_seed: int = 0,
) -> List[DeviceSpec]:
    """The natural fleet's twin under attacker-accelerated aging.

    ``acceleration`` (>= 1) divides the onset of every attacked device;
    ``attack_fraction`` < 1 draws the attacked subset from the
    ``adversary.fleet`` stream (keyed by ``attack_seed`` and the device
    index), leaving the rest aging naturally.  The faulty/model draw
    happens *after* acceleration, so attacks pull boundary devices into
    the mission window exactly as the physics would.
    """
    acceleration = max(1.0, float(acceleration))
    models = list(failing_models)
    fleet: List[DeviceSpec] = []
    for index in range(config.devices):
        rng, corner, onset, mechanism = device_draw(
            config, index, base_onset_years
        )
        attacked = True
        if attack_fraction < 1.0:
            attacked = (
                stream_rng("adversary.fleet", attack_seed, index).random()
                < attack_fraction
            )
        if attacked:
            onset = onset / acceleration
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
                mechanism=mechanism,
            )
        )
    return fleet


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

from typing import Dict, List, Sequence, Tuple

from ..campaign.fleet import DeviceSpec, assign_model, device_draw
from ..core.config import CampaignConfig
from ..core.rng import stream_rng, stream_seed
from ..lifting.models import FailureModel
from ..scheduler.belief import BROAD_CLASS


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


def accelerate_fleet(
    fleet: Sequence[DeviceSpec],
    acceleration: float,
    failing_models: Sequence[FailureModel],
    mission_years: float,
    attack_seed: int = 0,
) -> List[DeviceSpec]:
    """Apply an attack to an *already sampled* fleet.

    For fleets whose onsets came from somewhere other than the sampler
    — e.g. the surrogate's exact per-device oracle
    (:func:`repro.surrogate.triage.profiled_fleet`) — divide each onset
    by the acceleration and re-derive the mission verdict.  Devices
    that were already faulty keep their model (the attack changes
    *when* they fail, not *how*); devices the attack newly pulls into
    the window draw one from the ``adversary.model`` stream.
    """
    acceleration = max(1.0, float(acceleration))
    models = list(failing_models)
    out: List[DeviceSpec] = []
    for spec in fleet:
        onset = round(spec.onset_years / acceleration, 6)
        faulty = bool(models) and onset <= mission_years
        model = spec.model
        if faulty and model is None:
            model = stream_rng(
                "adversary.model", attack_seed, spec.index
            ).choice(models)
        if not faulty:
            model = None
        out.append(
            DeviceSpec(
                index=spec.index,
                device_id=spec.device_id,
                corner=spec.corner,
                onset_years=onset,
                faulty=faulty,
                model=model,
                backend_seed=spec.backend_seed,
                mechanism=spec.mechanism,
            )
        )
    return out


def attack_device_prior(
    natural: Sequence[DeviceSpec],
    attacked: Sequence[DeviceSpec],
    classes: Sequence[str],
    mission_years: float,
    strength: float = 1.0,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Per-device Beta priors for the scheduler, from an attack scenario.

    Mirrors :func:`repro.surrogate.triage.surrogate_device_prior`'s
    shape (Jeffreys 0.5/0.5 floor plus ``strength`` pseudo-counts) but
    scores risk from the *attacked* onset margin, boosted by how much
    the attack moved the device: a device the attack pulls deep into
    the mission window starts hot in
    :class:`~repro.scheduler.belief.FleetBelief`, so dispatch policies
    probe suspected victims first.
    """
    by_index: Dict[int, DeviceSpec] = {s.index: s for s in natural}
    priors: Dict[str, Dict[str, Tuple[float, float]]] = {}
    n_classes = max(1, len(classes))
    for spec in attacked:
        margin = spec.onset_years - mission_years
        if margin <= 0.0:
            risk = 1.0
        else:
            risk = max(0.0, 1.0 - margin / mission_years)
        twin = by_index.get(spec.index)
        if twin is not None and twin.onset_years > 0.0:
            # Scale by the attack's bite on this device: untouched
            # devices keep their natural risk, strongly accelerated
            # ones are weighted toward certainty.
            bite = min(
                1.0,
                max(0.0, 1.0 - spec.onset_years / twin.onset_years),
            )
            risk = min(1.0, risk * (1.0 + bite))
        table: Dict[str, Tuple[float, float]] = {}
        for label in classes:
            p = risk / n_classes
            table[label] = (
                0.5 + strength * p,
                0.5 + strength * (1.0 - p),
            )
        table[BROAD_CLASS] = (
            0.5 + strength * risk,
            0.5 + strength * (1.0 - risk),
        )
        priors[spec.device_id] = table
    return priors

"""Per-device aging belief state for the online scheduler.

The dispatch problem is a bandit: for each device the service must
decide which test to run next, knowing only the detection outcomes that
already streamed back.  The belief state is the sufficient statistic
that decision consumes:

* **Arms** are the dispatchable units — one per lifted test case (the
  bottom-up suite split to per-test granularity) plus one coarse arm
  per baseline suite (random, SiliFuzz-lite).  Each arm carries the
  failure-model *class* it targets and its measured fault-free cycle
  cost, so policies can price detection value per cycle.
* **Posteriors** are Beta-Bernoulli, one per ``(device,
  failure-model-class)``: the probability that dispatching a class-c
  arm to this device detects a fault.  Every outcome updates both the
  device's posterior and a fleet-level posterior for the class;
  policies score arms on a blend of the two, so evidence gathered on
  one device transfers to the rest of the fleet (ML aging-prediction
  work frames exactly this population-level estimate).
* **The prior** is derived from the fleet's corner/onset distributions
  (:mod:`repro.campaign.fleet`): the fraction of devices at each
  operating corner whose onset draw lands inside the mission window,
  per model class.  A worst-corner device therefore starts with a
  hotter prior than a typical-corner one — the sign-off pessimism
  ordering, carried into runtime.

Everything here is plain, deterministic arithmetic: the belief contains
no RNG state (Thompson draws come from named streams keyed by tick and
device), serializes to canonical JSON, and round-trips byte-identically
— the properties the service's checkpoint/restart and the replay
determinism contract lean on.

Scoring is vectorized: :class:`FleetBelief` maintains a numpy mirror
(:class:`_BeliefArrays`) of the per-device posteriors, run counts, and
budgets for one arm catalogue, updated incrementally as outcomes fold
in.  The dicts stay the canonical state (snapshots, digests, and the
scalar API are untouched); every array entry is a verbatim *copy* of a
dict-computed float, and the vectorized score expressions apply the
same IEEE operations in the same order as the scalar ones, so policies
reading the arrays decide byte-identically to the scalar reference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..campaign.fleet import DeviceSpec

#: Class label of arms that target every failure-model class at once
#: (the baseline suites fuzz the whole unit rather than one endpoint).
BROAD_CLASS = "*"

#: Prior pseudo-count weight: how many observations the corner/onset
#: prior is worth relative to one real detection outcome.
_PRIOR_STRENGTH = 1.0


@dataclass(frozen=True)
class ArmSpec:
    """One dispatchable test unit.

    Attributes:
        name: Stable arm id (``case:add_0`` / ``suite:random``).
        kind: ``"case"`` for a single lifted test case, ``"random"`` /
            ``"silifuzz"`` for a whole baseline suite.
        class_label: Failure-model class the arm targets (the model
            label of a lifted case), or :data:`BROAD_CLASS` for
            baseline suites.
        cost_cycles: Measured fault-free cycle cost of one execution.
        index: Catalogue position — the static dispatch order, and the
            deterministic tie-break for every policy.
    """

    name: str
    kind: str
    class_label: str
    cost_cycles: int
    index: int

    def as_row(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "class": self.class_label,
            "cost_cycles": self.cost_cycles,
            "index": self.index,
        }


def arms_digest(arms: Sequence[ArmSpec]) -> List[tuple]:
    """Canonical identity of an arm catalogue, for checkpoint keys."""
    return [
        (arm.index, arm.name, arm.kind, arm.class_label, arm.cost_cycles)
        for arm in arms
    ]


def fleet_prior(
    fleet: Sequence[DeviceSpec],
    classes: Sequence[str],
    strength: float = _PRIOR_STRENGTH,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Beta prior per (corner, class) from the fleet's distributions.

    For each operating corner the prior encodes the fraction of that
    corner's devices whose onset draw landed inside the mission window
    with a class-c model — exactly the corner/onset statistics a fleet
    operator knows about the population without knowing any individual
    device.  :data:`BROAD_CLASS` aggregates over all classes (any fault
    present).  A Jeffreys-style 0.5/0.5 floor keeps every posterior
    proper even for classes the fleet never carries.
    """
    corners = sorted({spec.corner for spec in fleet})
    prior: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for corner in corners:
        members = [spec for spec in fleet if spec.corner == corner]
        total = max(1, len(members))
        table: Dict[str, Tuple[float, float]] = {}
        for label in classes:
            carriers = sum(
                1 for spec in members
                if spec.faulty and spec.model_label == label
            )
            p = carriers / total
            table[label] = (0.5 + strength * p, 0.5 + strength * (1.0 - p))
        faulty = sum(1 for spec in members if spec.faulty)
        p = faulty / total
        table[BROAD_CLASS] = (
            0.5 + strength * p,
            0.5 + strength * (1.0 - p),
        )
        prior[corner] = table
    return prior


class _BeliefArrays:
    """Array mirror of a :class:`FleetBelief` for one arm catalogue.

    Row order is device fleet-index order; arm columns are catalogue
    (``index``) order; class columns are first-appearance order over
    the catalogue.  Every float in ``ab``/``fleet_ab`` is copied from
    the dict state (never recomputed), so array reads equal dict reads
    bit for bit.
    """

    def __init__(self, belief: "FleetBelief", arms: Sequence[ArmSpec]):
        self.digest = tuple(arms_digest(arms))
        self.arms: List[ArmSpec] = sorted(arms, key=lambda a: a.index)
        self.arm_col = {arm.name: i for i, arm in enumerate(self.arms)}
        labels: List[str] = []
        for arm in self.arms:
            if arm.class_label not in labels:
                labels.append(arm.class_label)
        self.class_col = {label: i for i, label in enumerate(labels)}
        self.arm_class = np.array(
            [self.class_col[arm.class_label] for arm in self.arms],
            dtype=np.intp,
        )
        self.cost = np.array(
            [arm.cost_cycles for arm in self.arms], dtype=np.float64
        )
        self.cost_int = np.array(
            [arm.cost_cycles for arm in self.arms], dtype=np.int64
        )
        order = sorted(belief.devices.values(), key=lambda d: d.index)
        self.row = {device.device_id: i for i, device in enumerate(order)}
        n_devices, n_classes = len(order), len(labels)
        self.ab = np.empty((n_devices, n_classes, 2), dtype=np.float64)
        for i, device in enumerate(order):
            for label, col in self.class_col.items():
                alpha, beta = device.posteriors.get(
                    label,
                    belief._prior_for(
                        device.corner, label, device.device_id
                    ),
                )
                self.ab[i, col, 0] = alpha
                self.ab[i, col, 1] = beta
        self.fleet_ab = np.zeros((n_classes, 2), dtype=np.float64)
        for label, col in self.class_col.items():
            fleet = belief.fleet_posteriors.get(label)
            if fleet is not None:
                self.fleet_ab[col] = fleet
        self.runs = np.zeros((n_devices, len(self.arms)), dtype=np.int64)
        for i, device in enumerate(order):
            for name, count in device.runs.items():
                col = self.arm_col.get(name)
                if col is not None:
                    self.runs[i, col] = count
        self.spent = np.array(
            [device.spent_cycles for device in order], dtype=np.int64
        )
        self.detected = np.array(
            [device.detected for device in order], dtype=bool
        )

    # -- incremental sync (False: event outside this mirror's scope) ----
    def on_dispatch(self, device_id: str, arm_name: str) -> bool:
        row = self.row.get(device_id)
        col = self.arm_col.get(arm_name)
        if row is None or col is None:
            return False
        self.runs[row, col] += 1
        return True

    def on_outcome(
        self, belief: "FleetBelief", device: "DeviceBelief", label: str
    ) -> bool:
        row = self.row.get(device.device_id)
        if row is None:
            return False
        self.spent[row] = device.spent_cycles
        self.detected[row] = device.detected
        col = self.class_col.get(label)
        if col is not None:
            self.ab[row, col] = device.posteriors[label]
            self.fleet_ab[col] = belief.fleet_posteriors[label]
        return col is not None


@dataclass
class DeviceBelief:
    """Everything the service believes (and has spent) on one device."""

    device_id: str
    index: int
    corner: str
    #: class -> [alpha, beta] Beta posterior, seeded from the corner
    #: prior at first touch.
    posteriors: Dict[str, List[float]] = field(default_factory=dict)
    #: arm name -> times dispatched (deterministic outcomes make a
    #: second run of the same arm uninformative, so policies dispatch
    #: each arm at most once).
    runs: Dict[str, int] = field(default_factory=dict)
    spent_cycles: int = 0
    dispatches: int = 0
    detected: bool = False
    detected_by: Optional[str] = None
    #: Cumulative cycles at the moment of first detection (the
    #: device's time-to-detection).
    detected_cycles: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "index": self.index,
            "corner": self.corner,
            "posteriors": {
                label: list(ab) for label, ab in self.posteriors.items()
            },
            "runs": dict(self.runs),
            "spent_cycles": self.spent_cycles,
            "dispatches": self.dispatches,
            "detected": self.detected,
            "detected_by": self.detected_by,
            "detected_cycles": self.detected_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceBelief":
        return cls(
            device_id=data["device_id"],
            index=data["index"],
            corner=data["corner"],
            posteriors={
                label: [float(a), float(b)]
                for label, (a, b) in data["posteriors"].items()
            },
            runs={name: int(n) for name, n in data["runs"].items()},
            spent_cycles=int(data["spent_cycles"]),
            dispatches=int(data["dispatches"]),
            detected=bool(data["detected"]),
            detected_by=data["detected_by"],
            detected_cycles=data["detected_cycles"],
        )


class FleetBelief:
    """The service's full mutable state: one belief per device plus the
    fleet-level posteriors the bandit shares across devices.

    This object *is* the checkpoint: snapshotting and restoring it
    resumes the service without replaying the event log, because every
    decision input — posteriors, per-arm run counts, spent budgets,
    detection flags — lives here and the policies' RNG streams are
    stateless (keyed by tick and device, never advanced).
    """

    def __init__(
        self,
        fleet: Sequence[DeviceSpec],
        classes: Sequence[str],
        cycle_budget: int,
        fleet_blend: float = 0.5,
        device_prior: Optional[
            Dict[str, Dict[str, Tuple[float, float]]]
        ] = None,
    ):
        self.classes = list(classes)
        self.cycle_budget = int(cycle_budget)
        self.fleet_blend = float(fleet_blend)
        self.prior = fleet_prior(fleet, self.classes)
        #: Optional per-device (alpha, beta) tables overriding the
        #: corner prior — e.g. the aging surrogate's predicted-onset
        #: priors (:func:`repro.surrogate.triage.surrogate_device_prior`).
        #: Kept out of snapshots when empty so existing digests are
        #: unchanged.
        self.device_prior: Dict[str, Dict[str, Tuple[float, float]]] = {
            device_id: {label: (float(a), float(b)) for label, (a, b) in table.items()}
            for device_id, table in (device_prior or {}).items()
        }
        #: class -> [alpha, beta] *deltas* accumulated fleet-wide (the
        #: prior is per-corner, so fleet evidence is kept separate and
        #: blended in at scoring time).
        self.fleet_posteriors: Dict[str, List[float]] = {}
        self.devices: Dict[str, DeviceBelief] = {
            spec.device_id: DeviceBelief(
                device_id=spec.device_id,
                index=spec.index,
                corner=spec.corner,
            )
            for spec in fleet
        }
        #: Lazily built numpy mirror (per arm catalogue); derived state
        #: only — snapshots and digests never read it.
        self._arrays: Optional[_BeliefArrays] = None

    # -- posterior access ----------------------------------------------
    def _prior_for(
        self, corner: str, label: str, device_id: Optional[str] = None
    ) -> Tuple[float, float]:
        if device_id is not None:
            table = self.device_prior.get(device_id)
            if table is not None and label in table:
                return table[label]
        table = self.prior.get(corner)
        if table is None:
            # Unknown corner (never sampled): neutral Jeffreys prior.
            return (0.5, 0.5)
        return table.get(label, (0.5, 0.5))

    def _device_posterior(
        self, device: DeviceBelief, label: str
    ) -> List[float]:
        posterior = device.posteriors.get(label)
        if posterior is None:
            alpha, beta = self._prior_for(
                device.corner, label, device.device_id
            )
            posterior = [alpha, beta]
            device.posteriors[label] = posterior
        return posterior

    def blended(self, device_id: str, label: str) -> Tuple[float, float]:
        """(alpha, beta) scoring counts: device posterior + blended
        fleet evidence.  Pure read — never materializes state."""
        device = self.devices[device_id]
        alpha, beta = device.posteriors.get(
            label, self._prior_for(device.corner, label, device_id)
        )
        fleet = self.fleet_posteriors.get(label)
        if fleet is not None and self.fleet_blend > 0:
            alpha += self.fleet_blend * fleet[0]
            beta += self.fleet_blend * fleet[1]
        return alpha, beta

    def mean(self, device_id: str, label: str) -> float:
        alpha, beta = self.blended(device_id, label)
        return alpha / (alpha + beta)

    # -- vectorized mirror ----------------------------------------------
    def arrays(self, arms: Sequence[ArmSpec]) -> _BeliefArrays:
        """The numpy mirror for ``arms``, built lazily and kept in sync
        incrementally by :meth:`record_dispatch`/:meth:`record_outcome`
        (an event outside the mirror's catalogue invalidates it)."""
        digest = tuple(arms_digest(arms))
        if self._arrays is None or self._arrays.digest != digest:
            self._arrays = _BeliefArrays(self, arms)
        return self._arrays

    def valid_matrix(
        self, arms: Sequence[ArmSpec], rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(rows x arms) bool matrix of :meth:`candidates` membership."""
        mirror = self.arrays(arms)
        runs = mirror.runs if rows is None else mirror.runs[rows]
        spent = mirror.spent if rows is None else mirror.spent[rows]
        remaining = self.cycle_budget - spent
        return (runs == 0) & (mirror.cost_int[None, :] <= remaining[:, None])

    def blended_matrix(
        self, arms: Sequence[ArmSpec], rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(rows x classes x 2) blended scoring counts — the vectorized
        :meth:`blended`: ``device + fleet_blend * fleet`` elementwise.
        Untouched fleet classes hold (0, 0), and ``x + blend * 0.0`` is
        bit-exact for the strictly positive alphas/betas here, so each
        entry equals the scalar read."""
        mirror = self.arrays(arms)
        ab = mirror.ab if rows is None else mirror.ab[rows]
        return ab + self.fleet_blend * mirror.fleet_ab

    def done_mask(self, arms: Sequence[ArmSpec]) -> np.ndarray:
        """Per-row :meth:`device_done`, whole fleet at once."""
        mirror = self.arrays(arms)
        return mirror.detected | ~self.valid_matrix(arms).any(axis=1)

    def all_done(self, arms: Sequence[ArmSpec]) -> bool:
        return bool(self.done_mask(arms).all())

    def active_count(self, arms: Sequence[ArmSpec]) -> int:
        return int((~self.done_mask(arms)).sum())

    # -- state evolution -----------------------------------------------
    def record_dispatch(self, device_id: str, arm: ArmSpec) -> None:
        device = self.devices[device_id]
        device.runs[arm.name] = device.runs.get(arm.name, 0) + 1
        device.dispatches += 1
        if self._arrays is not None:
            if not self._arrays.on_dispatch(device_id, arm.name):
                self._arrays = None

    def record_outcome(
        self,
        device_id: str,
        arm: ArmSpec,
        detected: bool,
        cycles: int,
        detected_by: Optional[str] = None,
    ) -> None:
        """Fold one streamed result into the belief."""
        device = self.devices[device_id]
        device.spent_cycles += int(cycles)
        posterior = self._device_posterior(device, arm.class_label)
        fleet = self.fleet_posteriors.setdefault(
            arm.class_label, [0.0, 0.0]
        )
        if detected:
            posterior[0] += 1.0
            fleet[0] += 1.0
            if not device.detected:
                device.detected = True
                device.detected_by = detected_by or arm.name
                device.detected_cycles = device.spent_cycles
        else:
            posterior[1] += 1.0
            fleet[1] += 1.0
        if self._arrays is not None:
            if not self._arrays.on_outcome(self, device, arm.class_label):
                self._arrays = None

    # -- dispatch predicates -------------------------------------------
    def runs_of(self, device_id: str, arm_name: str) -> int:
        return self.devices[device_id].runs.get(arm_name, 0)

    def remaining_cycles(self, device_id: str) -> int:
        return self.cycle_budget - self.devices[device_id].spent_cycles

    def candidates(
        self, device_id: str, arms: Sequence[ArmSpec]
    ) -> List[ArmSpec]:
        """Arms still worth dispatching to a device, catalogue order."""
        remaining = self.remaining_cycles(device_id)
        return [
            arm
            for arm in arms
            if self.runs_of(device_id, arm.name) == 0
            and arm.cost_cycles <= remaining
        ]

    def device_done(self, device_id: str, arms: Sequence[ArmSpec]) -> bool:
        """A device leaves the dispatch pool once it detected (the
        operator pulls it for mitigation) or nothing dispatchable fits
        its remaining budget."""
        device = self.devices[device_id]
        return device.detected or not self.candidates(device_id, arms)

    # -- serialization --------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical, JSON-ready copy of the full belief state.

        ``device_prior`` appears only when set, so beliefs without
        per-device priors keep their historical serialization (and
        digests) byte for byte.
        """
        data = {
            "classes": list(self.classes),
            "cycle_budget": self.cycle_budget,
            "fleet_blend": self.fleet_blend,
            "prior": {
                corner: {label: list(ab) for label, ab in table.items()}
                for corner, table in self.prior.items()
            },
            "fleet_posteriors": {
                label: list(ab)
                for label, ab in self.fleet_posteriors.items()
            },
            "devices": {
                device_id: belief.as_dict()
                for device_id, belief in self.devices.items()
            },
        }
        if self.device_prior:
            data["device_prior"] = {
                device_id: {label: list(ab) for label, ab in table.items()}
                for device_id, table in self.device_prior.items()
            }
        return data

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_snapshot(cls, data: dict) -> "FleetBelief":
        belief = cls.__new__(cls)
        belief.classes = list(data["classes"])
        belief.cycle_budget = int(data["cycle_budget"])
        belief.fleet_blend = float(data["fleet_blend"])
        belief.prior = {
            corner: {
                label: (float(a), float(b))
                for label, (a, b) in table.items()
            }
            for corner, table in data["prior"].items()
        }
        belief.fleet_posteriors = {
            label: [float(a), float(b)]
            for label, (a, b) in data["fleet_posteriors"].items()
        }
        belief.devices = {
            device_id: DeviceBelief.from_dict(entry)
            for device_id, entry in data["devices"].items()
        }
        belief.device_prior = {
            device_id: {
                label: (float(a), float(b))
                for label, (a, b) in table.items()
            }
            for device_id, table in data.get("device_prior", {}).items()
        }
        belief._arrays = None
        return belief

    @classmethod
    def from_json(cls, text: str) -> "FleetBelief":
        return cls.from_snapshot(json.loads(text))

    def digest(self) -> str:
        """sha256 of the canonical serialization — the fingerprint the
        event log's checkpoint records carry, so replay equality also
        proves belief-state equality."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

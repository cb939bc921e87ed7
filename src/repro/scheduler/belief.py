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

The state is a handful of numpy arrays over one arm catalogue — Beta
counts per (device, class), run counts per (device, arm), spent budgets
and detection fields per device — so policies score a whole planning
batch at once and the service reads the fleet's done mask in one
expression.  :meth:`FleetBelief.snapshot` writes the canonical JSON a
per-device dict fold of the same events writes; that fold is kept in
``tests/oracles.py`` as the reference the arrays are tested against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
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


class FleetBelief:
    """The service's full mutable state over one fleet and one arm
    catalogue: per-device posteriors, run counts, budgets, and the
    fleet-level evidence the bandit shares across devices.

    All of it lives in numpy arrays.  Rows are devices in fleet-index
    order (:attr:`row` maps a device id to its row); arm columns are
    catalogue order (:attr:`arms`, sorted by ``index``); class columns
    are the catalogue's class labels in first-appearance order
    (:attr:`class_col`).  ``ab`` holds each (device, class) Beta
    posterior, seeded from the corner prior, and ``touched`` marks the
    posteriors some outcome has moved.

    This object *is* the checkpoint: snapshotting and restoring it
    resumes the service without replaying the event log, because every
    decision input lives here and the policies' RNG streams are
    stateless (keyed by tick and device, never advanced).
    """

    def __init__(
        self,
        fleet: Sequence[DeviceSpec],
        arms: Sequence[ArmSpec],
        classes: Sequence[str],
        cycle_budget: int,
        fleet_blend: float = 0.5,
    ):
        self.classes = list(classes)
        self.cycle_budget = int(cycle_budget)
        self.fleet_blend = float(fleet_blend)
        self.prior = fleet_prior(fleet, self.classes)
        self._allocate(
            arms, [(spec.device_id, spec.index, spec.corner) for spec in fleet]
        )

    def _allocate(
        self, arms: Sequence[ArmSpec], devices: Sequence[Tuple[str, int, str]]
    ) -> None:
        """Lay out the arrays for ``arms`` and ``(id, index, corner)``
        devices, every posterior at its prior and nothing spent."""
        self.arms: List[ArmSpec] = sorted(arms, key=lambda a: a.index)
        self.arm_col = {arm.name: i for i, arm in enumerate(self.arms)}
        labels = list(dict.fromkeys(arm.class_label for arm in self.arms))
        self.class_col = {label: i for i, label in enumerate(labels)}
        self.arm_class = np.array(
            [self.class_col[arm.class_label] for arm in self.arms],
            dtype=np.intp,
        )
        self.cost_int = np.array(
            [arm.cost_cycles for arm in self.arms], dtype=np.int64
        )
        self.cost = self.cost_int.astype(np.float64)
        devices = sorted(devices, key=lambda device: device[1])
        self.device_ids = [device_id for device_id, _, _ in devices]
        self.indices = [index for _, index, _ in devices]
        self.corners = [corner for _, _, corner in devices]
        self.row = {device_id: i for i, device_id in enumerate(self.device_ids)}
        n_devices, n_classes = len(devices), len(labels)
        self.ab = np.array(
            [
                [self._prior_for(corner, label) for label in labels]
                for corner in self.corners
            ],
            dtype=np.float64,
        ).reshape(n_devices, n_classes, 2)
        self.touched = np.zeros((n_devices, n_classes), dtype=bool)
        #: Fleet-wide (alpha, beta) *deltas* per class (the prior is
        #: per-corner, so fleet evidence is kept separate and blended in
        #: at scoring time).
        self.fleet_ab = np.zeros((n_classes, 2), dtype=np.float64)
        #: Times each arm ran per device (deterministic outcomes make a
        #: second run uninformative, so policies dispatch each arm once).
        self.runs = np.zeros((n_devices, len(self.arms)), dtype=np.int64)
        self.spent = np.zeros(n_devices, dtype=np.int64)
        self.dispatches = np.zeros(n_devices, dtype=np.int64)
        self.detected = np.zeros(n_devices, dtype=bool)
        self.detected_by: List[Optional[str]] = [None] * n_devices
        #: Cumulative cycles at first detection (time-to-detection).
        self.detected_cycles: List[Optional[int]] = [None] * n_devices

    def _prior_for(self, corner: str, label: str) -> Tuple[float, float]:
        table = self.prior.get(corner)
        if table is None:
            # Unknown corner (never sampled): neutral Jeffreys prior.
            return (0.5, 0.5)
        return table.get(label, (0.5, 0.5))

    # -- vectorized reads -----------------------------------------------
    def valid_matrix(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """(rows x arms) bool matrix: arms not yet run whose cost fits
        the device's remaining budget."""
        runs = self.runs if rows is None else self.runs[rows]
        spent = self.spent if rows is None else self.spent[rows]
        remaining = self.cycle_budget - spent
        return (runs == 0) & (self.cost_int[None, :] <= remaining[:, None])

    def blended_matrix(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """(rows x classes x 2) scoring counts: ``device + fleet_blend *
        fleet`` elementwise.  Untouched fleet classes hold (0, 0), and
        ``x + blend * 0.0`` is bit-exact for the strictly positive
        alphas/betas here."""
        ab = self.ab if rows is None else self.ab[rows]
        return ab + self.fleet_blend * self.fleet_ab

    def done_mask(self) -> np.ndarray:
        """Per-row: the device left the dispatch pool, because it
        detected (the operator pulls it for mitigation) or nothing
        dispatchable fits its remaining budget."""
        return self.detected | ~self.valid_matrix().any(axis=1)

    def all_done(self) -> bool:
        return bool(self.done_mask().all())

    def active_count(self) -> int:
        return int((~self.done_mask()).sum())

    # -- state evolution -----------------------------------------------
    def record_dispatch(self, device_id: str, arm: ArmSpec) -> None:
        row = self.row[device_id]
        self.runs[row, self.arm_col[arm.name]] += 1
        self.dispatches[row] += 1

    def record_outcome(
        self,
        device_id: str,
        arm: ArmSpec,
        detected: bool,
        cycles: int,
        detected_by: Optional[str] = None,
    ) -> None:
        """Fold one streamed result into the belief."""
        row = self.row[device_id]
        col = self.arm_class[self.arm_col[arm.name]]
        self.spent[row] += int(cycles)
        self.touched[row, col] = True
        side = 0 if detected else 1
        self.ab[row, col, side] += 1.0
        self.fleet_ab[col, side] += 1.0
        if detected and not self.detected[row]:
            self.detected[row] = True
            self.detected_by[row] = detected_by or arm.name
            self.detected_cycles[row] = int(self.spent[row])

    # -- serialization --------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical, JSON-ready copy of the full belief state.

        Lists only touched posteriors, only fleet classes some device
        touched, and only nonzero run counts.
        """
        labels = list(self.class_col)
        ab = self.ab.tolist()
        posteriors: List[dict] = [{} for _ in self.device_ids]
        for row, col in zip(*(a.tolist() for a in np.nonzero(self.touched))):
            posteriors[row][labels[col]] = ab[row][col]
        runs: List[dict] = [{} for _ in self.device_ids]
        rows, cols = np.nonzero(self.runs)
        counts = self.runs[rows, cols].tolist()
        for row, col, count in zip(rows.tolist(), cols.tolist(), counts):
            runs[row][self.arms[col].name] = count
        spent, dispatches = self.spent.tolist(), self.dispatches.tolist()
        detected = self.detected.tolist()
        devices = {}
        for row, device_id in enumerate(self.device_ids):
            devices[device_id] = {
                "device_id": device_id,
                "index": self.indices[row],
                "corner": self.corners[row],
                "posteriors": posteriors[row],
                "runs": runs[row],
                "spent_cycles": spent[row],
                "dispatches": dispatches[row],
                "detected": detected[row],
                "detected_by": self.detected_by[row],
                "detected_cycles": self.detected_cycles[row],
            }
        fleet_ab = self.fleet_ab.tolist()
        fleet_touched = self.touched.any(axis=0).tolist()
        return {
            "classes": list(self.classes),
            "cycle_budget": self.cycle_budget,
            "fleet_blend": self.fleet_blend,
            "prior": {
                corner: {label: list(pair) for label, pair in table.items()}
                for corner, table in self.prior.items()
            },
            "fleet_posteriors": {
                label: fleet_ab[col]
                for col, label in enumerate(labels)
                if fleet_touched[col]
            },
            "devices": devices,
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_snapshot(
        cls, data: dict, arms: Sequence[ArmSpec]
    ) -> "FleetBelief":
        """Restore a :meth:`snapshot` over the catalogue it was taken
        with (the checkpoint's arms digest guards that)."""
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
        entries = list(data["devices"].values())
        belief._allocate(
            arms,
            [(e["device_id"], e["index"], e["corner"]) for e in entries],
        )
        for entry in entries:
            row = belief.row[entry["device_id"]]
            for label, (a, b) in entry["posteriors"].items():
                col = belief.class_col[label]
                belief.ab[row, col] = (float(a), float(b))
                belief.touched[row, col] = True
            for name, count in entry["runs"].items():
                belief.runs[row, belief.arm_col[name]] = int(count)
            belief.spent[row] = int(entry["spent_cycles"])
            belief.dispatches[row] = int(entry["dispatches"])
            belief.detected[row] = bool(entry["detected"])
            belief.detected_by[row] = entry["detected_by"]
            belief.detected_cycles[row] = entry["detected_cycles"]
        for label, (a, b) in data["fleet_posteriors"].items():
            belief.fleet_ab[belief.class_col[label]] = (float(a), float(b))
        return belief

    def digest(self) -> str:
        """sha256 of the canonical serialization — the fingerprint the
        event log's checkpoint records carry, so replay equality also
        proves belief-state equality."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

"""Dispatch policies: belief snapshot in, deterministic schedule out.

A policy answers one question per planning tick: *for each device that
is asking for work, which arm should it run next?*  All policies are
pure functions of ``(belief, arm catalogue, requests, tick, seed)`` —
they never mutate the belief and never carry RNG state between ticks
(Thompson draws come from named streams keyed by ``(seed, tick,
device)``), which is what makes a live run and its replay produce the
same schedules byte for byte.

Three policies ship:

* ``sequential`` — the static baseline: every device walks the arm
  catalogue in fixed order, exactly like a screening flow that runs the
  same test list on every part.  No belief is consulted.
* ``greedy`` — cost-aware exploitation: dispatch the arm with the
  highest posterior-mean detection probability per cycle.
* ``thompson`` — the bandit: sample a detection probability from each
  arm's blended Beta posterior and dispatch the best draw per cycle.
  Sampling keeps exploring low-evidence arms while fleet-level evidence
  steers new devices toward the arms that already caught faults
  elsewhere.

:meth:`Policy.plan` ranks arms with numpy over the belief's array
mirror — candidate masks and scores for a whole batch at once.  Its
schedules are identical to a scalar per-device loop over the dict
posteriors: the arrays copy the dict floats verbatim, the vectorized
expressions apply the same IEEE operations in the same order, and
Thompson still draws its betavariates one candidate at a time from the
same named stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..core.rng import stream_rng
from .belief import ArmSpec, FleetBelief


@dataclass(frozen=True)
class PlanRequest:
    """One device asking the service for its next test."""

    device_id: str
    device_index: int


@dataclass(frozen=True)
class Dispatch:
    """One planned (device, arm) assignment."""

    device_id: str
    device_index: int
    arm: str
    kind: str
    class_label: str
    cost_cycles: int

    def as_record(self) -> dict:
        return {
            "device": self.device_id,
            "arm": self.arm,
            "kind": self.kind,
            "class": self.class_label,
            "cost_cycles": self.cost_cycles,
        }


@dataclass
class Schedule:
    """A tick's worth of dispatches, in deterministic device order."""

    tick: int
    policy: str
    dispatches: List[Dispatch] = field(default_factory=list)
    #: Devices that asked for work but have nothing left to run.
    retired: List[str] = field(default_factory=list)


class Policy:
    """Base class; subclasses implement :meth:`_choose_columns`."""

    name = "policy"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def plan(
        self,
        belief: FleetBelief,
        arms: Sequence[ArmSpec],
        requests: Sequence[PlanRequest],
        tick: int,
    ) -> Schedule:
        """Assign one arm to every requesting device (or retire it).

        Requests are processed in device-index order so the schedule —
        and everything downstream of it — is independent of arrival
        order inside the tick.  Candidate masks and arm ranking run
        vectorized over the belief's array mirror.
        """
        schedule = Schedule(tick=tick, policy=self.name)
        ordered = sorted(requests, key=lambda r: r.device_index)
        if not ordered:
            return schedule
        mirror = belief.arrays(arms)
        rows = np.array(
            [mirror.row[request.device_id] for request in ordered],
            dtype=np.intp,
        )
        valid = belief.valid_matrix(arms, rows)
        columns = self._choose_columns(
            belief, arms, ordered, rows, valid, tick
        )
        if isinstance(columns, np.ndarray):
            columns = columns.tolist()
        catalogue = mirror.arms
        dispatches = schedule.dispatches
        retired = schedule.retired
        for position, request in enumerate(ordered):
            column = columns[position]
            if column < 0:
                retired.append(request.device_id)
                continue
            arm = catalogue[column]
            dispatches.append(
                Dispatch(
                    device_id=request.device_id,
                    device_index=request.device_index,
                    arm=arm.name,
                    kind=arm.kind,
                    class_label=arm.class_label,
                    cost_cycles=arm.cost_cycles,
                )
            )
        return schedule

    def _choose_columns(
        self,
        belief: FleetBelief,
        arms: Sequence[ArmSpec],
        ordered: Sequence[PlanRequest],
        rows: np.ndarray,
        valid: np.ndarray,
        tick: int,
    ) -> Sequence[int]:
        """Catalogue column per request (-1: retire).

        ``rows`` holds the requests' belief-mirror rows and ``valid``
        their (request x catalogue column) candidate mask.
        """
        raise NotImplementedError


class SequentialPolicy(Policy):
    """Static catalogue-order baseline (no belief consulted)."""

    name = "sequential"

    def _choose_columns(self, belief, arms, ordered, rows, valid, tick):
        # Catalogue columns are already sorted by arm index, so the
        # first valid column IS min-by-index.
        columns = valid.argmax(axis=1)
        columns[~valid.any(axis=1)] = -1
        return columns


class GreedyPolicy(Policy):
    """Highest posterior-mean detection probability per cycle."""

    name = "greedy"

    def _choose_columns(self, belief, arms, ordered, rows, valid, tick):
        mirror = belief.arrays(arms)
        ab = belief.blended_matrix(arms, rows)
        mean = ab[..., 0] / (ab[..., 0] + ab[..., 1])
        # Same float ops as a scalar per-arm ranking: negate the
        # per-class mean, divide by integer cost.  ``argmin`` takes the
        # first minimum, matching a (score, arm.index) tie-break because
        # the columns are in arm-index order.
        score = np.negative(mean[:, mirror.arm_class]) / mirror.cost[None, :]
        score[~valid] = np.inf
        columns = score.argmin(axis=1)
        columns[~valid.any(axis=1)] = -1
        return columns


class ThompsonPolicy(Policy):
    """Thompson sampling over the blended Beta posteriors.

    The sampling stream is keyed by ``(policy seed, tick, device
    index)`` and draws one betavariate per candidate in catalogue
    order, so the choice is a pure function of the belief snapshot —
    replay re-derives the identical stream instead of persisting RNG
    state in checkpoints.
    """

    name = "thompson"

    def _choose_columns(self, belief, arms, ordered, rows, valid, tick):
        # The blended posteriors come from the array mirror, but the
        # betavariate draws stay a python loop per candidate in
        # catalogue order — the stream consumed per (tick, device) is
        # byte-identical to the scalar path's.  ``tolist`` hands the
        # loop plain python floats (exact same values) so the hot part
        # pays list indexing, not numpy scalar extraction.
        mirror = belief.arrays(arms)
        ab_rows = belief.blended_matrix(arms, rows).tolist()
        valid_rows = valid.tolist()
        arm_class = mirror.arm_class.tolist()
        costs = [arm.cost_cycles for arm in mirror.arms]
        columns: List[int] = []
        for position, request in enumerate(ordered):
            row_valid = valid_rows[position]
            row_ab = ab_rows[position]
            rng = None
            best = -1
            best_value = float("-inf")
            for col, ok in enumerate(row_valid):
                if not ok:
                    continue
                if rng is None:
                    rng = stream_rng(
                        "scheduler.thompson",
                        self.seed,
                        tick,
                        request.device_index,
                    )
                alpha, beta = row_ab[arm_class[col]]
                draw = rng.betavariate(alpha, beta)
                value = draw / costs[col]
                if value > best_value:
                    best = col
                    best_value = value
            columns.append(best)
        return columns


POLICIES: Dict[str, Callable[[int], Policy]] = {
    "sequential": SequentialPolicy,
    "round_robin": SequentialPolicy,  # alias: static-order baseline
    "greedy": GreedyPolicy,
    "thompson": ThompsonPolicy,
}


def make_policy(name: str, seed: int = 0) -> Policy:
    """Instantiate a registered policy; raises ValueError on unknowns."""
    try:
        factory = POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(
            f"unknown policy {name!r} (known: {known})"
        ) from None
    return factory(seed)

"""Reference implementations the equivalence tests compare against.

They live with the tests, not in ``src/``, because no runtime caller
should ever pick them.  Each is the plain, slow form of one optimized
production layer and must give bit-identical results:

* :func:`reference_arrivals` / :func:`reference_sta` — the per-gate
  dict walk behind the numpy levelized STA propagation;
* :func:`onset_linear` — the age-by-age scan behind the bisecting
  :meth:`AgingAwareSta.onset`;
* :func:`cover_fresh` / :func:`fresh_bmc` — the rebuild-per-depth BMC
  behind the incremental engine;
* :func:`profile_operand_stream_reference` — scalar one-operand-per-
  cycle-group SP profiling behind the packed profiler;
* :class:`DictBelief` — the per-device dict fold behind the arrays of
  :class:`FleetBelief`, with the scalar reads :func:`blended`,
  :func:`mean`, :func:`candidates` and :func:`device_done` over any
  belief snapshot;
* :func:`plan_reference` — scalar per-device planning over a belief
  snapshot, behind the vectorized :meth:`Policy.plan`;
* :func:`unpacked_campaign` — the campaign engine without its packed
  multi-model prefilter;
* :func:`fold_event_stream` — the serve event log folded into a fresh
  :class:`DictBelief`.

The context managers swap an oracle into a whole pipeline with
:func:`unittest.mock.patch`; fork workers started inside the block
inherit the patch.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from unittest import mock

from repro.campaign.engine import DeviceRunner
from repro.campaign.fleet import DeviceSpec
from repro.core import telemetry
from repro.core.config import SchedulerConfig
from repro.core.rng import stream_rng
from repro.formal.bmc import (
    BmcResult,
    BmcStatus,
    BoundedModelChecker,
    CoverObjective,
    suggested_depth,
)
from repro.formal.sat import SatSolver, SatStatus
from repro.netlist.netlist import Netlist
from repro.scheduler.belief import ArmSpec, fleet_prior
from repro.scheduler.policy import Dispatch, PlanRequest, Policy, Schedule
from repro.sim.gatesim import GateSimulator
from repro.sim.probes import SPCounter, SPProfile
from repro.sta.aging_sta import AgingAwareSta
from repro.sta.timing import DelayModel, StaticTimingAnalyzer


# -- STA ----------------------------------------------------------------
def reference_arrivals(
    netlist: Netlist, delays: DelayModel
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Max/min arrival per net by a per-gate dict walk, levelized order.

    Primary inputs are unconstrained (−inf/+inf, transparent to
    max/min); DFF outputs launch at clock arrival plus clock-to-Q.
    """
    source_arrivals = StaticTimingAnalyzer(netlist, delays)._source_arrivals
    arrival_max: Dict[str, float] = {}
    arrival_min: Dict[str, float] = {}
    for net in netlist.nets.values():
        if net.is_input:
            arrival_max[net.name] = float("-inf")
            arrival_min[net.name] = float("inf")
            continue
        late = source_arrivals(net, late=True)
        if late is not None:
            arrival_max[net.name] = late
            arrival_min[net.name] = source_arrivals(net, late=False)
    for inst in netlist.levelize():
        ins = inst.input_nets()
        if not ins:
            # TIE cells: constants never transition, so they must not
            # create timing events.
            arrival_max[inst.output_net.name] = float("-inf")
            arrival_min[inst.output_net.name] = float("inf")
            continue
        in_max = max(arrival_max[n.name] for n in ins)
        in_min = min(arrival_min[n.name] for n in ins)
        arrival_max[inst.output_net.name] = in_max + delays.tmax(inst)
        arrival_min[inst.output_net.name] = in_min + delays.tmin(inst)
    return arrival_max, arrival_min


@contextmanager
def reference_sta():
    """Every :class:`StaticTimingAnalyzer` propagates by dict walk."""

    def propagate(self):
        self._arrival_max, self._arrival_min = reference_arrivals(
            self.netlist, self.delays
        )
        self._propagated = True

    with mock.patch.object(StaticTimingAnalyzer, "propagate", propagate):
        yield


def onset_linear(
    sta: AgingAwareSta,
    profile: SPProfile,
    period: float,
    grid: Sequence[float],
    fresh_instances: Sequence[str] = (),
) -> Optional[float]:
    """First grid age whose full aged STA violates, scanning in order.

    ``fresh_instances`` are patched to their un-aged cell delays after
    the aged model is built, independent of ``aged_delay_model``'s own
    handling.
    """
    for age in grid:
        model, increase = sta.at_age(age).aged_delay_model(profile)
        for name in fresh_instances:
            ctype = sta.netlist.instances[name].ctype
            model.delays[name] = (ctype.tmin, ctype.tmax)
        result = sta.analyze(
            profile,
            clock_period_ns=period,
            aged_model=model,
            delay_increase=increase,
        )
        if result.report.violations:
            return age
    return None


# -- BMC ----------------------------------------------------------------
def cover_fresh(
    checker: BoundedModelChecker,
    objective: CoverObjective,
    max_depth: Optional[int] = None,
    observe: Sequence[str] = (),
) -> BmcResult:
    """:meth:`BoundedModelChecker.cover` with a fresh solver per depth.

    Depth ``d`` re-encodes all ``d`` frames into a new solver and
    requires the objective at the last one by a unit clause.
    """
    max_depth = max_depth or suggested_depth(checker.netlist)
    plan = checker._frame_plan(objective)
    total_conflicts = 0
    result = None
    for depth in range(1, max_depth + 1):
        solver = SatSolver()
        frames: List[Dict[str, int]] = []
        obj_vars: List[int] = []
        for _ in range(depth):
            checker._add_frame(solver, frames, obj_vars, objective, plan)
        if not obj_vars:
            raise ValueError("objective has no conditions")
        solver.add_clause([obj_vars[-1]])
        t0 = time.perf_counter()
        solved = solver.solve(conflict_limit=checker.conflict_budget)
        telemetry.add(f"bmc.solve_s.depth{depth}", time.perf_counter() - t0)
        total_conflicts += solved.conflicts
        if solved.status is SatStatus.UNKNOWN:
            result = BmcResult(
                BmcStatus.BUDGET_EXCEEDED,
                depth_checked=depth,
                conflicts=total_conflicts,
            )
            break
        if solved.status is SatStatus.SAT:
            trace = checker._extract(solved.model, frames, observe)
            trace.property_cycle = depth - 1
            result = BmcResult(
                BmcStatus.COVERED,
                trace=trace,
                depth_checked=depth,
                conflicts=total_conflicts,
            )
            break
    if result is None:
        result = BmcResult(
            BmcStatus.UNREACHABLE,
            depth_checked=max_depth,
            conflicts=total_conflicts,
        )
    telemetry.add("bmc.queries")
    telemetry.add(f"bmc.{result.status.value}")
    telemetry.add("bmc.frames", result.depth_checked)
    return result


@contextmanager
def fresh_bmc():
    """Every BMC cover query runs :func:`cover_fresh`."""

    def cover(self, objective, max_depth=None, observe=()):
        return cover_fresh(self, objective, max_depth, observe)

    with mock.patch.object(BoundedModelChecker, "cover", cover):
        yield


# -- SP profiling ---------------------------------------------------------
def profile_operand_stream_reference(
    netlist: Netlist,
    operands: Sequence[Mapping[str, int]],
    drain_cycles: int = 2,
) -> SPProfile:
    """Serial scalar profiling: one operand per simulated cycle group.

    Reset, then ``1 + drain_cycles`` scalar steps, sampling each: the
    per-lane semantics of the packed run, so its counts — and its SP
    values — equal the packed/parallel engines' bit for bit.
    """
    if not operands:
        raise ValueError("empty operand stream")
    sim = GateSimulator(netlist)
    counter = SPCounter(netlist)
    port_names = [p.name for p in netlist.input_ports()]
    for op in operands:
        sim.reset()
        frame = {name: op.get(name, 0) for name in port_names}
        for _ in range(1 + drain_cycles):
            sim.step(frame)
            counter.sample(sim)
    return counter.profile()


# -- scheduler ------------------------------------------------------------
class DictBelief:
    """The per-device dict fold behind :class:`FleetBelief`'s arrays.

    Its state *is* a snapshot-shaped dict (posteriors seeded from the
    corner prior at first touch, run counts as they occur), so its
    ``to_json`` must equal the arrays' after the same events, and the
    scalar reads below work on either belief's ``snapshot()``.
    """

    def __init__(self, state: dict):
        self.state = state

    @classmethod
    def fresh(
        cls,
        fleet: Sequence[DeviceSpec],
        classes: Sequence[str],
        cycle_budget: int,
        fleet_blend: float = 0.5,
    ) -> "DictBelief":
        prior = fleet_prior(fleet, list(classes))
        return cls({
            "classes": list(classes),
            "cycle_budget": int(cycle_budget),
            "fleet_blend": float(fleet_blend),
            "prior": {
                corner: {label: list(ab) for label, ab in table.items()}
                for corner, table in prior.items()
            },
            "fleet_posteriors": {},
            "devices": {
                spec.device_id: {
                    "device_id": spec.device_id,
                    "index": spec.index,
                    "corner": spec.corner,
                    "posteriors": {},
                    "runs": {},
                    "spent_cycles": 0,
                    "dispatches": 0,
                    "detected": False,
                    "detected_by": None,
                    "detected_cycles": None,
                }
                for spec in fleet
            },
        })

    def snapshot(self) -> dict:
        return self.state

    def record_dispatch(self, device_id: str, arm: ArmSpec) -> None:
        device = self.state["devices"][device_id]
        device["runs"][arm.name] = device["runs"].get(arm.name, 0) + 1
        device["dispatches"] += 1

    def record_outcome(
        self,
        device_id: str,
        arm: ArmSpec,
        detected: bool,
        cycles: int,
        detected_by: Optional[str] = None,
    ) -> None:
        device = self.state["devices"][device_id]
        device["spent_cycles"] += int(cycles)
        label = arm.class_label
        posterior = device["posteriors"].setdefault(
            label, list(prior_for(self.state, device["corner"], label))
        )
        fleet = self.state["fleet_posteriors"].setdefault(label, [0.0, 0.0])
        if detected:
            posterior[0] += 1.0
            fleet[0] += 1.0
            if not device["detected"]:
                device["detected"] = True
                device["detected_by"] = detected_by or arm.name
                device["detected_cycles"] = device["spent_cycles"]
        else:
            posterior[1] += 1.0
            fleet[1] += 1.0

    def to_json(self) -> str:
        return json.dumps(self.state, sort_keys=True, indent=2) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def prior_for(state: dict, corner: str, label: str) -> Tuple[float, float]:
    table = state["prior"].get(corner)
    if table is None:
        return (0.5, 0.5)
    alpha, beta = table.get(label, (0.5, 0.5))
    return alpha, beta


def blended(state: dict, device_id: str, label: str) -> Tuple[float, float]:
    """(alpha, beta) scoring counts: device posterior + blended fleet
    evidence, read from a snapshot."""
    device = state["devices"][device_id]
    alpha, beta = device["posteriors"].get(
        label, prior_for(state, device["corner"], label)
    )
    fleet = state["fleet_posteriors"].get(label)
    blend = state["fleet_blend"]
    if fleet is not None and blend > 0:
        alpha += blend * fleet[0]
        beta += blend * fleet[1]
    return alpha, beta


def mean(state: dict, device_id: str, label: str) -> float:
    alpha, beta = blended(state, device_id, label)
    return alpha / (alpha + beta)


def candidates(
    state: dict, device_id: str, arms: Sequence[ArmSpec]
) -> List[ArmSpec]:
    """Arms still worth dispatching to a device, catalogue order."""
    device = state["devices"][device_id]
    remaining = state["cycle_budget"] - device["spent_cycles"]
    return [
        arm
        for arm in arms
        if device["runs"].get(arm.name, 0) == 0
        and arm.cost_cycles <= remaining
    ]


def device_done(state: dict, device_id: str, arms: Sequence[ArmSpec]) -> bool:
    return state["devices"][device_id]["detected"] or not candidates(
        state, device_id, arms
    )


def _choose_sequential(policy, state, candidates, request, tick):
    return min(candidates, key=lambda arm: arm.index)


def _choose_greedy(policy, state, candidates, request, tick):
    return min(
        candidates,
        key=lambda arm: (
            -mean(state, request.device_id, arm.class_label)
            / arm.cost_cycles,
            arm.index,
        ),
    )


def _choose_thompson(policy, state, candidates, request, tick):
    rng = stream_rng(
        "scheduler.thompson", policy.seed, tick, request.device_index
    )
    best: Optional[ArmSpec] = None
    best_value = float("-inf")
    for arm in sorted(candidates, key=lambda a: a.index):
        alpha, beta = blended(state, request.device_id, arm.class_label)
        draw = rng.betavariate(alpha, beta)
        value = draw / arm.cost_cycles
        if value > best_value:
            best = arm
            best_value = value
    return best


#: Scalar arm choice per policy name, over one device's candidates.
_SCALAR_CHOOSE = {
    "sequential": _choose_sequential,
    "greedy": _choose_greedy,
    "thompson": _choose_thompson,
}


def plan_reference(
    policy: Policy,
    belief,
    arms: Sequence[ArmSpec],
    requests: Sequence[PlanRequest],
    tick: int,
) -> Schedule:
    """:meth:`Policy.plan` by dict lookups and python loops over the
    belief's snapshot, no numpy."""
    choose = _SCALAR_CHOOSE[policy.name]
    state = belief.snapshot()
    schedule = Schedule(tick=tick, policy=policy.name)
    for request in sorted(requests, key=lambda r: r.device_index):
        found = candidates(state, request.device_id, arms)
        if not found:
            schedule.retired.append(request.device_id)
            continue
        arm = choose(policy, state, found, request, tick)
        schedule.dispatches.append(
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


# -- campaign -------------------------------------------------------------
@contextmanager
def unpacked_campaign():
    """Campaigns co-simulate every failure model serially."""
    def prefilter(self, specs):
        pass

    with mock.patch.object(DeviceRunner, "prefilter", prefilter):
        yield


# -- serve ----------------------------------------------------------------
def fold_event_stream(
    fleet: Sequence[DeviceSpec],
    classes: Sequence[str],
    scheduler: SchedulerConfig,
    arms: Sequence[ArmSpec],
    records: Sequence[dict],
) -> DictBelief:
    """Fold a service event log into one fresh dict belief.

    Replays every ``dispatch``/``result`` record, in log order, into a
    :class:`DictBelief` built over the full fleet.  For a run that
    started fresh the result must carry the live service's belief
    digest: the event log alone determines the belief.
    """
    belief = DictBelief.fresh(
        fleet,
        classes,
        cycle_budget=scheduler.cycle_budget,
        fleet_blend=scheduler.fleet_blend,
    )
    arms_by_name = {arm.name: arm for arm in arms}
    for record in records:
        if record.get("type") != "event":
            continue
        attrs = record.get("attrs", {})
        name = record.get("name")
        if name == "dispatch":
            belief.record_dispatch(
                attrs["device"], arms_by_name[attrs["arm"]]
            )
        elif name == "result":
            belief.record_outcome(
                attrs["device"],
                arms_by_name[attrs["arm"]],
                attrs["detected"],
                attrs["cycles"],
                detected_by=attrs.get("detected_by"),
            )
    return belief

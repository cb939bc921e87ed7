"""Bounded model checking over netlists — the JasperGold substitute.

Given a netlist, a *cover objective* (a set of net pairs that must
differ, or nets that must be 1, in some cycle), and optional *assume*
constraints on input ports, the checker unrolls the circuit frame by
frame into CNF and asks the CDCL solver for a witness.

Semantics match SystemVerilog ``cover property`` / ``assume property``
as the paper uses them (§3.3.3):

* ``cover``: find any input sequence making the objective true at some
  cycle ≤ depth; report the shortest one (we solve depth 1, 2, ...).
* ``assume``: restrict module inputs in every frame, e.g. "the opcode
  is a valid ALU operation".

Completeness note: returning UNSAT at the configured depth proves
unreachability only up to that bound.  Every module this repo checks is
a feed-forward pipeline (no state feedback between stages), for which
behaviour is time-invariant once the pipeline is full; pipeline depth
plus one frame therefore suffices, and ``suggested_depth`` computes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import telemetry
from ..netlist.netlist import Instance, Net, Netlist
from .encode import encode_in_set, encode_instance, encode_xor_var
from .sat import SatSolver, SatStatus
from .trace import Trace


class BmcStatus(Enum):
    COVERED = "covered"        # witness found
    UNREACHABLE = "unreachable"  # proven impossible within depth
    BUDGET_EXCEEDED = "budget"   # solver gave up (paper's "FF")


@dataclass
class InputAssumption:
    """An ``assume property`` on one input port, applied every cycle.

    ``allowed`` restricts the port to a set of values; ``fixed`` pins it
    to one value (a degenerate set).
    """

    port: str
    allowed: Sequence[int]

    @classmethod
    def fixed(cls, port: str, value: int) -> "InputAssumption":
        return cls(port=port, allowed=(value,))


@dataclass
class CoverObjective:
    """The covered expression.

    The objective holds in a cycle when *any* of the OR-group conditions
    holds AND *every* AND-group condition holds:

    * ``differ`` (OR group): net-name pairs satisfied when unequal —
      the shadow-vs-original comparison of §3.3.3;
    * ``asserted`` (OR group): nets satisfied when 1;
    * ``asserted_all`` (AND group): nets that must all be 1.

    At least one group must be non-empty.
    """

    differ: Sequence[Tuple[str, str]] = ()
    asserted: Sequence[str] = ()
    asserted_all: Sequence[str] = ()

    def support(self) -> List[str]:
        nets = [n for pair in self.differ for n in pair]
        nets.extend(self.asserted)
        nets.extend(self.asserted_all)
        return nets


@dataclass
class BmcResult:
    status: BmcStatus
    trace: Optional[Trace] = None
    depth_checked: int = 0
    conflicts: int = 0

    def __bool__(self) -> bool:
        return self.status is BmcStatus.COVERED


def suggested_depth(netlist: Netlist) -> int:
    """Pipeline depth (longest DFF chain) + 1 spare frame.

    For feed-forward pipelines this bounds the reachable-behaviour
    horizon; cyclic designs fall back to a conservative default.
    """
    order = netlist.levelize()
    # Longest chain of DFFs: rank DFFs by longest DFF-path feeding them.
    rank: Dict[str, int] = {}

    def dff_rank(dff: Instance, visiting: Set[str]) -> int:
        if dff.name in rank:
            return rank[dff.name]
        if dff.name in visiting:
            return 3  # cycle: conservative constant
        visiting.add(dff.name)
        best = 0
        frontier = [dff.pins["D"]]
        seen: Set[str] = set()
        while frontier:
            net = frontier.pop()
            if net.driver is None:
                continue
            inst = net.driver[0]
            if inst.ctype.is_seq:
                best = max(best, dff_rank(inst, visiting) + 1)
                continue
            if inst.name in seen:
                continue
            seen.add(inst.name)
            frontier.extend(inst.input_nets())
        visiting.discard(dff.name)
        rank[dff.name] = best
        return best

    depth = 0
    for dff in netlist.dffs():
        depth = max(depth, dff_rank(dff, set()))
    return depth + 2


def _static_coi(netlist: Netlist, targets: Sequence[str]) -> Set[str]:
    """Instance names whose behaviour can influence ``targets`` nets.

    Walks fan-in transitively, crossing DFFs (the unroller needs their
    previous-frame D cones too).
    """
    instances: Set[str] = set()
    frontier: List[Net] = [netlist.get_net(n) for n in targets]
    seen_nets: Set[str] = {n.name for n in frontier}
    while frontier:
        net = frontier.pop()
        if net.driver is None:
            continue
        inst = net.driver[0]
        if inst.name in instances:
            continue
        instances.add(inst.name)
        for in_net in inst.input_nets():
            if in_net.name not in seen_nets:
                seen_nets.add(in_net.name)
                frontier.append(in_net)
    return instances


@dataclass
class _FramePlan:
    """COI-reduced cell selection shared by every unrolled frame.

    Computing the static cone of influence and the topological order
    once per (netlist, objective-support) pair — instead of once per
    depth — is one of the lifting-path caches: the same shadow netlist
    is queried at depths 1, 2, … and the plan never changes.
    """

    comb_order: List[Instance]
    dffs: List[Instance]
    input_nets: List[str]


class BoundedModelChecker:
    """Unrolls a netlist and solves cover queries against it.

    Solving is incremental: one persistent :class:`SatSolver` receives
    one frame's CNF per depth, and the per-frame cover selector is
    asserted as a solve-time *assumption literal*, so learned clauses,
    variable activities, and saved phases carry over from depth ``d``
    to ``d+1``.
    """

    def __init__(
        self,
        netlist: Netlist,
        assumptions: Sequence[InputAssumption] = (),
        conflict_budget: int = 200_000,
    ):
        netlist.validate()
        self.netlist = netlist
        self.assumptions = list(assumptions)
        self.conflict_budget = conflict_budget
        self._plan_cache: Dict[Tuple[str, ...], _FramePlan] = {}
        for assumption in self.assumptions:
            if assumption.port not in netlist.ports:
                raise ValueError(f"no input port {assumption.port!r}")

    # ------------------------------------------------------------------
    def _frame_plan(self, objective: CoverObjective) -> _FramePlan:
        """COI reduction for ``objective``, cached per support set."""
        key = tuple(sorted(set(objective.support())))
        plan = self._plan_cache.get(key)
        if plan is None:
            coi = _static_coi(self.netlist, key)
            plan = _FramePlan(
                comb_order=[
                    inst
                    for inst in self.netlist.levelize()
                    if inst.name in coi
                ],
                dffs=[d for d in self.netlist.dffs() if d.name in coi],
                input_nets=sorted(
                    net.name
                    for port in self.netlist.input_ports()
                    for net in port.nets
                ),
            )
            self._plan_cache[key] = plan
        return plan

    def _add_frame(
        self,
        solver: SatSolver,
        frames: List[Dict[str, int]],
        objective_vars: List[int],
        objective: CoverObjective,
        plan: _FramePlan,
    ) -> None:
        """Encode one more frame of the unrolling into ``solver``.

        Appends the frame's net-to-var map to ``frames`` and its cover
        selector variable to ``objective_vars``.  The selector is only
        *implied* towards the conditions (``frame_obj -> conditions``):
        asserting it positively (as an assumption literal) forces the
        objective at that cycle, while leaving it unconstrained keeps
        the frame's CNF satisfiable by any circuit behaviour.
        """
        t = len(frames)
        var_of: Dict[str, int] = {}
        # Input nets: fresh free variables each frame.
        for name in plan.input_nets:
            var_of[name] = solver.new_var()
        # DFF outputs: frame 0 pinned to init; later frames alias
        # the previous frame's D-net variable.
        for dff in plan.dffs:
            q_name = dff.output_net.name
            if t == 0:
                q_var = solver.new_var()
                solver.add_clause([q_var] if dff.init else [-q_var])
                var_of[q_name] = q_var
            else:
                var_of[q_name] = frames[t - 1][dff.pins["D"].name]
        # Combinational cells in topological order.
        for inst in plan.comb_order:
            out_name = inst.output_net.name
            var_of[out_name] = solver.new_var()
            missing = [
                n.name
                for n in inst.input_nets()
                if n.name not in var_of
            ]
            for name in missing:
                # Input outside the COI (e.g. a net fed by a
                # non-COI cell was impossible by construction, but
                # dangling module inputs may appear): free variable.
                var_of[name] = solver.new_var()
            encode_instance(solver, inst, var_of)
        # Assumptions per frame.
        for assumption in self.assumptions:
            port = self.netlist.ports[assumption.port]
            bit_vars = [var_of[n.name] for n in port.nets]
            encode_in_set(solver, bit_vars, assumption.allowed)
        # Objective selector for this frame.
        or_vars: List[int] = []
        for left, right in objective.differ:
            or_vars.append(
                encode_xor_var(solver, var_of[left], var_of[right])
            )
        for name in objective.asserted:
            or_vars.append(var_of[name])
        all_vars = [var_of[name] for name in objective.asserted_all]
        if or_vars or all_vars:
            frame_obj = solver.new_var()
            if or_vars:
                solver.add_clause([-frame_obj] + or_vars)
            for v in all_vars:
                solver.add_clause([-frame_obj, v])
            objective_vars.append(frame_obj)
        frames.append(var_of)

    # ------------------------------------------------------------------
    def cover(
        self,
        objective: CoverObjective,
        max_depth: Optional[int] = None,
        observe: Sequence[str] = (),
    ) -> BmcResult:
        """Find the shortest witness reaching the objective.

        Depths 1..max_depth are tried in order so the returned trace is
        minimal, matching the paper's emphasis on tiny test cases.
        """
        max_depth = max_depth or suggested_depth(self.netlist)
        plan = self._frame_plan(objective)
        result = self._cover_incremental(objective, max_depth, observe, plan)
        telemetry.add("bmc.queries")
        telemetry.add(f"bmc.{result.status.value}")
        telemetry.add("bmc.frames", result.depth_checked)
        return result

    def _cover_incremental(
        self,
        objective: CoverObjective,
        max_depth: int,
        observe: Sequence[str],
        plan: _FramePlan,
    ) -> BmcResult:
        """One persistent solver; cover gated behind assumption literals.

        Depth ``d`` adds frame ``d``'s CNF and solves under the single
        assumption "frame ``d``'s selector holds".  Earlier selectors
        revert to unconstrained, so the query is exactly "objective at
        the last frame" of a fresh ``d``-frame unrolling — but the
        solver keeps its learned clauses and heuristic state between
        depths.  Each depth receives a fresh ``conflict_budget`` on top
        of the cumulative conflict count.
        """
        solver = SatSolver()
        frames: List[Dict[str, int]] = []
        objective_vars: List[int] = []
        for depth in range(1, max_depth + 1):
            self._add_frame(solver, frames, objective_vars, objective, plan)
            if not objective_vars:
                raise ValueError("objective has no conditions")
            t0 = time.perf_counter()
            result = solver.solve(
                conflict_limit=solver.conflicts + self.conflict_budget,
                assumptions=[objective_vars[-1]],
            )
            telemetry.add(f"bmc.solve_s.depth{depth}", time.perf_counter() - t0)
            if result.status is SatStatus.UNKNOWN:
                return BmcResult(
                    BmcStatus.BUDGET_EXCEEDED,
                    depth_checked=depth,
                    conflicts=solver.conflicts,
                )
            if result.status is SatStatus.SAT:
                trace = self._extract(result.model, frames, observe)
                trace.property_cycle = depth - 1
                return BmcResult(
                    BmcStatus.COVERED,
                    trace=trace,
                    depth_checked=depth,
                    conflicts=solver.conflicts,
                )
        return BmcResult(
            BmcStatus.UNREACHABLE,
            depth_checked=max_depth,
            conflicts=solver.conflicts,
        )

    def _extract(
        self,
        model: Mapping[int, bool],
        frames: List[Dict[str, int]],
        observe: Sequence[str],
    ) -> Trace:
        trace = Trace(netlist_name=self.netlist.name)
        for var_of in frames:
            frame_inputs: Dict[str, int] = {}
            for port in self.netlist.input_ports():
                value = 0
                for i, net in enumerate(port.nets):
                    var = var_of.get(net.name)
                    if var is not None and model.get(var, False):
                        value |= 1 << i
                frame_inputs[port.name] = value
            observed: Dict[str, int] = {}
            for name in observe:
                var = var_of.get(name)
                if var is not None:
                    observed[name] = int(model.get(var, False))
            trace.inputs.append(frame_inputs)
            trace.observed.append(observed)
        return trace

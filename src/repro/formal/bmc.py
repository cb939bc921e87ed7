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

Frames are encoded from a *clause template*, compiled once per frame
plan and objective: the frame's CNF over frame-local slots.  Slots run
input nets, then DFF Q outputs, then what the cell-by-cell encoder
allocates, in its order: each cell's output, the assumptions'
``encode_in_set`` selectors, the objective's ``encode_xor_var`` outputs
and the frame selector.  A frame allocates its fresh variables in one
block, maps slots to variables through one table (fresh slots are
consecutive; at frame t > 0 a Q slot *is* the previous frame's D
variable), and hands the clauses to ``SatSolver.add_clauses`` in one
call.  Two DFFs that load the same D net share one variable from frame
1 on, so the clauses over their Q slots would repeat a variable; such
frames take a copy of the template with those slots merged and the
clauses deduplicated again.

The template keeps the cell-by-cell encoder's variable numbering and
clause order exactly, because they steer the search: VSIDS breaks
activity ties toward the lower variable index, and the watches follow
literal order.  Renumbering or reordering would change the witnesses,
and with them every test case built from a witness.

Completeness note: returning UNSAT at the configured depth proves
unreachability only up to that bound.  Every module this repo checks is
a feed-forward pipeline (no state feedback between stages), for which
behaviour is time-invariant once the pipeline is full; pipeline depth
plus one frame therefore suffices, and ``suggested_depth`` computes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..core import telemetry
from ..netlist.cells import CellType
from ..netlist.netlist import Instance, Net, Netlist
from .encode import EncodingError, encode_in_set, encode_xor_var, slot_encoder
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


class _FrameVars(Mapping[str, int]):
    """One unrolled frame's net -> variable view.

    Reads the frame's slot table through the template's slot map, which
    every frame of the query shares.
    """

    __slots__ = ("table", "slot_of")

    def __init__(self, table: List[int], slot_of: Dict[str, int]):
        self.table = table
        self.slot_of = slot_of

    def __getitem__(self, name: str) -> int:
        return self.table[self.slot_of[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.slot_of)

    def __len__(self) -> int:
        return len(self.slot_of)


def _clean(lits: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Drop repeated slot literals; ``None`` for a tautology."""
    seen: Dict[int, int] = {}
    out: List[int] = []
    for lit in lits:
        prior = seen.get(lit >> 1)
        if prior is None:
            seen[lit >> 1] = lit
            out.append(lit)
        elif prior != lit:
            return None
    return tuple(out)


class _SlotRecorder:
    """Stand-in solver that records a frame's CNF over slots.

    :meth:`new_var` hands out the next slot (as the signed variable
    ``slot + 1``) and :meth:`add_clause` appends the clause as slot
    literals, so the existing encoders compile into the template.
    """

    def __init__(self, slots: int, clauses: List[Tuple[int, ...]]):
        self.slots = slots
        self.clauses = clauses

    def new_var(self) -> int:
        self.slots += 1
        return self.slots

    def add_clause(self, lits: Sequence[int]) -> None:
        clause = _clean([((abs(l) - 1) << 1) | (l < 0) for l in lits])
        if clause is not None:
            self.clauses.append(clause)


@dataclass
class _FrameTemplate:
    """One frame's CNF, compiled once over frame-local slots.

    Slots run: input nets, DFF Q outputs, then everything else the frame
    allocates in allocation order.  A clause is a tuple of slot literals
    ``2 * slot + negated``.
    """

    slot_of: Dict[str, int]
    inputs: int
    states: int
    slots: int
    #: Per DFF, in ``plan.dffs`` order: the slot of its D net.
    d_slots: List[int]
    #: Frame 0 only: each Q slot pinned to its DFF's init value.
    init: List[Tuple[int, ...]]
    #: Every frame, in encoding order.
    clauses: List[Tuple[int, ...]]
    #: The frame's cover selector, or ``None`` without conditions.
    objective: Optional[int]
    #: ``clauses`` rewritten for frames where DFFs share a D variable,
    #: keyed by the (Q slot, representative Q slot) pairs.
    aliased: Dict[tuple, List[Tuple[int, ...]]] = field(default_factory=dict)

    def clauses_for(self, alias: Dict[int, int]) -> List[Tuple[int, ...]]:
        """``clauses`` with each aliased Q slot renamed to its
        representative, then deduplicated as :meth:`SatSolver.
        add_clause` would deduplicate them."""
        key = tuple(sorted(alias.items()))
        cached = self.aliased.get(key)
        if cached is None:
            cached = []
            for clause in self.clauses:
                if any((lit >> 1) in alias for lit in clause):
                    clause = _clean([
                        (alias.get(lit >> 1, lit >> 1) << 1) | (lit & 1)
                        for lit in clause
                    ])
                    if clause is None:
                        continue
                cached.append(clause)
            self.aliased[key] = cached
        return cached


@dataclass
class _FramePlan:
    """COI-reduced cell selection shared by every unrolled frame.

    Computing the static cone of influence and the topological order
    once per (netlist, objective-support) pair — instead of once per
    depth — is one of the lifting-path caches: the same shadow netlist
    is queried at depths 1, 2, … and the plan never changes.  The
    compiled clause templates live here too, one per objective.
    """

    comb_order: List[Instance]
    dffs: List[Instance]
    input_nets: List[str]
    templates: Dict[tuple, _FrameTemplate] = field(default_factory=dict)


@dataclass
class _EncodeWork:
    """Frame-encoding work of one cover query."""

    seconds: float = 0.0
    clauses: int = 0


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

    def _template(
        self, plan: _FramePlan, objective: CoverObjective
    ) -> _FrameTemplate:
        """``plan``'s clause template for ``objective``, compiled once."""
        key = (
            tuple(objective.differ),
            tuple(objective.asserted),
            tuple(objective.asserted_all),
        )
        template = plan.templates.get(key)
        if template is None:
            template = self._compile(plan, objective)
            plan.templates[key] = template
        return template

    def _compile(
        self, plan: _FramePlan, objective: CoverObjective
    ) -> _FrameTemplate:
        """Encode one frame over slots, in the unroller's order."""
        slot_of: Dict[str, int] = {}
        for name in plan.input_nets:
            slot_of[name] = len(slot_of)
        for dff in plan.dffs:
            slot_of[dff.output_net.name] = len(slot_of)

        def slot(name: str) -> int:
            found = slot_of.get(name)
            if found is None:
                raise EncodingError(f"net {name!r} has no slot in the frame")
            return found

        init = [
            ((slot_of[dff.output_net.name] << 1) | (not dff.init),)
            for dff in plan.dffs
        ]
        clauses: List[Tuple[int, ...]] = []
        cells: Dict[CellType, tuple] = {}
        for inst in plan.comb_order:
            ctype = inst.ctype
            cell = cells.get(ctype)
            if cell is None:
                cell = (slot_encoder(inst), ctype.inputs, ctype.output)
                cells[ctype] = cell
            encode, inputs, output = cell
            pins = [len(slot_of)]
            slot_of[inst.pins[output].name] = pins[0]
            for pin in inputs:
                pins.append(slot(inst.pins[pin].name))
            if len(set(pins)) == len(pins):
                clauses.extend(encode(*pins))
            else:
                for clause in encode(*pins):
                    cleaned = _clean(clause)
                    if cleaned is not None:
                        clauses.append(cleaned)
        d_slots = [slot(dff.pins["D"].name) for dff in plan.dffs]

        # Assumptions and the objective through the existing encoders;
        # a signed variable is ``slot + 1``.
        recorder = _SlotRecorder(len(slot_of), clauses)
        for assumption in self.assumptions:
            port = self.netlist.ports[assumption.port]
            bit_vars = [slot(n.name) + 1 for n in port.nets]
            encode_in_set(recorder, bit_vars, assumption.allowed)
        or_vars: List[int] = []
        for left, right in objective.differ:
            or_vars.append(
                encode_xor_var(recorder, slot(left) + 1, slot(right) + 1)
            )
        for name in objective.asserted:
            or_vars.append(slot(name) + 1)
        all_vars = [slot(name) + 1 for name in objective.asserted_all]
        frame_obj: Optional[int] = None
        if or_vars or all_vars:
            selector = recorder.new_var()
            if or_vars:
                recorder.add_clause([-selector] + or_vars)
            for v in all_vars:
                recorder.add_clause([-selector, v])
            frame_obj = selector - 1
        return _FrameTemplate(
            slot_of=slot_of,
            inputs=len(plan.input_nets),
            states=len(plan.dffs),
            slots=recorder.slots,
            d_slots=d_slots,
            init=init,
            clauses=clauses,
            objective=frame_obj,
        )

    def _add_frame(
        self,
        solver: SatSolver,
        frames: List[_FrameVars],
        objective_vars: List[int],
        objective: CoverObjective,
        plan: _FramePlan,
    ) -> int:
        """Encode one more frame of the unrolling into ``solver``.

        Appends the frame's net-to-var view to ``frames`` and its cover
        selector variable to ``objective_vars``; returns the number of
        clauses handed to the solver.  The selector is only *implied*
        towards the conditions (``frame_obj -> conditions``): asserting
        it positively (as an assumption literal) forces the objective
        at that cycle, while leaving it unconstrained keeps the frame's
        CNF satisfiable by any circuit behaviour.

        The frame instantiates ``plan``'s template: one bulk variable
        allocation, one slot table, one bulk clause insertion.  Frame
        0 allocates every slot and pins the DFF outputs to their init
        values; a later frame's Q slots alias the previous frame's D
        variables and allocate nothing.
        """
        template = self._template(plan, objective)
        inputs, states = template.inputs, template.states
        clauses = template.clauses
        if not frames:
            first = solver.new_vars(template.slots)
            table = list(range(first, first + template.slots))
            solver.add_clauses(template.init, table)
            handed = len(template.init)
        else:
            fresh = template.slots - states
            first = solver.new_vars(fresh)
            previous = frames[-1].table
            q_vars = [previous[d] for d in template.d_slots]
            table = list(range(first, first + inputs))
            table.extend(q_vars)
            table.extend(range(first + inputs, first + fresh))
            if len(set(q_vars)) < states:
                # DFFs sharing a D variable: clauses over their Q slots
                # would repeat a variable, so take the deduplicated form.
                alias: Dict[int, int] = {}
                owner: Dict[int, int] = {}
                for q_slot, var in enumerate(q_vars, inputs):
                    rep = owner.setdefault(var, q_slot)
                    if rep != q_slot:
                        alias[q_slot] = rep
                clauses = template.clauses_for(alias)
            handed = 0
        solver.add_clauses(clauses, table)
        if template.objective is not None:
            objective_vars.append(table[template.objective])
        frames.append(_FrameVars(table, template.slot_of))
        return handed + len(clauses)

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
        solver = SatSolver()
        work = _EncodeWork()
        result = self._cover_incremental(
            solver, work, objective, max_depth, observe, plan
        )
        telemetry.add("bmc.queries")
        telemetry.add(f"bmc.{result.status.value}")
        telemetry.add("bmc.frames", result.depth_checked)
        telemetry.add("bmc.encode_s", work.seconds)
        telemetry.add("bmc.vars", solver.num_vars)
        telemetry.add("bmc.clauses", work.clauses)
        return result

    def _cover_incremental(
        self,
        solver: SatSolver,
        work: _EncodeWork,
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
        of the cumulative conflict count.  Frame encoding accumulates
        into ``work``.
        """
        frames: List[_FrameVars] = []
        objective_vars: List[int] = []
        for depth in range(1, max_depth + 1):
            t0 = time.perf_counter()
            work.clauses += self._add_frame(
                solver, frames, objective_vars, objective, plan
            )
            work.seconds += time.perf_counter() - t0
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
        frames: List[Mapping[str, int]],
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

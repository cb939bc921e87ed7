"""Incremental-vs-fresh BMC equivalence and parallel lifting determinism.

The incremental BMC engine (one persistent solver, per-depth cover
objectives asserted through assumption literals) must be observationally
identical to the rebuild-per-depth oracle (``tests/oracles.py``): same
verdict and same witness length for every cover query.  Its frames,
instantiated from a compiled clause template, must leave the solver in
the state the cell-by-cell oracle encoder leaves it in.  These tests
drive the engines over randomly drawn failure models on the ALU and FPU
shadow netlists, and check that sharding endpoint pairs across worker
processes changes nothing about the lifting report.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ErrorLiftingConfig
from repro.core.pool import fork_available
from repro.cpu.alu_design import build_alu
from repro.cpu.fpu_design import build_fpu
from repro.cpu.mappers import AluMapper, FpuMapper
from repro.formal.bmc import (
    BmcStatus, BoundedModelChecker, CoverObjective, _FramePlan,
)
from repro.formal.encode import EncodingError
from repro.formal.sat import SatSolver
from repro.lifting.instrument import instrument_for_cover
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.lifting.parallel import lift_pairs
from repro.netlist.cells import make_vega28_library
from repro.netlist.netlist import Netlist
from repro.sta.timing import TimingViolation

from oracles import add_frame_reference, cover_fresh, fresh_bmc


def _dff_pairs(netlist, limit=8):
    """Structurally valid (start, end) DFF pairs: start in end's D cone."""
    pairs = []
    for end in netlist.dffs():
        seen = set()
        stack = [end.pins["D"]]
        while stack:
            net = stack.pop()
            if net.name in seen:
                continue
            seen.add(net.name)
            if net.driver is None:
                continue
            inst = net.driver[0]
            if inst.ctype.name == "DFF":
                pairs.append((inst.name, end.name))
            else:
                stack.extend(inst.pins[pin] for pin in inst.ctype.inputs)
    pairs.sort()
    # Spread the sample across the netlist instead of taking one corner.
    stride = max(1, len(pairs) // limit)
    return pairs[::stride][:limit]


@functools.lru_cache(maxsize=None)
def _unit_instrumentations(unit):
    """(shadow netlist, output pairs) per drawable failure model."""
    netlist = build_alu() if unit == "alu" else build_fpu()
    out = []
    for start, end in _dff_pairs(netlist):
        for kind in (ViolationKind.SETUP, ViolationKind.HOLD):
            for c_mode in (CMode.ZERO, CMode.ONE):
                model = FailureModel(start, end, kind, c_mode)
                try:
                    instr = instrument_for_cover(netlist, model)
                except Exception:
                    continue  # endpoint cannot influence outputs
                out.append((model.label, instr))
    return out


class TestIncrementalFreshEquivalence:
    @pytest.mark.parametrize("unit", ["alu", "fpu"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_same_verdict_and_trace_length(self, unit, data):
        candidates = _unit_instrumentations(unit)
        assert candidates, f"no instrumentable pairs on the {unit}"
        label, instr = data.draw(st.sampled_from(candidates))
        depth = data.draw(st.integers(min_value=2, max_value=5))
        objective = CoverObjective(differ=instr.output_pairs)
        observe = [net for pair in instr.output_pairs for net in pair]

        checker = BoundedModelChecker(instr.netlist)
        fresh = cover_fresh(checker, objective, depth, observe)
        incremental = checker.cover(
            objective, max_depth=depth, observe=observe
        )

        assert incremental.status is fresh.status, label
        assert incremental.depth_checked == fresh.depth_checked, label
        if fresh.status is BmcStatus.COVERED:
            assert incremental.trace.depth == fresh.trace.depth, label
            assert (
                incremental.trace.property_cycle == fresh.trace.property_cycle
            ), label


def _solver_state(solver):
    return (
        solver.num_vars,
        [c.lits for c in solver._clauses],
        list(solver._trail),
        solver._unsat,
    )


def _assert_same_unrolling(checker, objective, depth, label):
    """Template frames and oracle frames leave equal solvers.

    Both solvers are solved after each frame, as the incremental engine
    does, so the next frame meets root-level assignments.
    """
    plan = checker._frame_plan(objective)
    template, reference = SatSolver(), SatSolver()
    template_frames, reference_frames = [], []
    template_objs, reference_objs = [], []
    for _ in range(depth):
        checker._add_frame(
            template, template_frames, template_objs, objective, plan
        )
        add_frame_reference(
            checker, reference, reference_frames, reference_objs,
            objective, plan,
        )
        assert _solver_state(template) == _solver_state(reference), label
        assert template_objs == reference_objs, label
        assert dict(template_frames[-1]) == reference_frames[-1], label
        for solver in (template, reference):
            solver.solve(
                conflict_limit=solver.conflicts + 200,
                assumptions=[template_objs[-1]],
            )
        assert _solver_state(template) == _solver_state(reference), label


def _shared_d_netlist():
    """Two DFF pairs that each share one D net.

    ``d`` is free; ``one`` is a TIE1 output, so its variable is assigned
    at the root in every frame.  From frame 1 on each pair's Q slots
    alias one variable, and the cells and the objective over them
    repeat a variable or turn tautological.
    """
    nl = Netlist("shared_d", make_vega28_library())
    a = nl.add_input_port("a").bit(0)
    net = {name: nl.add_net(name) for name in (
        "one", "d", "q1", "q2", "q3", "q4", "both", "either",
    )}
    nl.add_instance("TIE1", {"Y": net["one"]})
    nl.add_instance("AND2", {"A": a, "B": net["one"], "Y": net["d"]})
    nl.add_instance("DFF", {"D": net["d"], "Q": net["q1"]})
    nl.add_instance("DFF", {"D": net["d"], "Q": net["q2"]}, init=1)
    nl.add_instance("DFF", {"D": net["one"], "Q": net["q3"]})
    nl.add_instance("DFF", {"D": net["one"], "Q": net["q4"]})
    nl.add_instance(
        "AND2", {"A": net["q1"], "B": net["q2"], "Y": net["both"]}
    )
    nl.add_instance(
        "OR2", {"A": net["q3"], "B": net["q4"], "Y": net["either"]}
    )
    return nl


class TestFrameTemplateEquivalence:
    @pytest.mark.parametrize("unit", ["alu", "fpu"])
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_template_frames_match_cell_encoder(self, unit, data):
        label, instr = data.draw(st.sampled_from(_unit_instrumentations(unit)))
        depth = data.draw(st.integers(min_value=1, max_value=4))
        mapper = AluMapper() if unit == "alu" else FpuMapper()
        checker = BoundedModelChecker(
            instr.netlist, assumptions=mapper.assumptions()
        )
        objective = CoverObjective(differ=instr.output_pairs)
        _assert_same_unrolling(checker, objective, depth, label)

    def test_shared_d_net_takes_the_deduplicating_path(self):
        checker = BoundedModelChecker(_shared_d_netlist())
        objective = CoverObjective(
            differ=[("q1", "q2")], asserted=["both"], asserted_all=["either"]
        )
        _assert_same_unrolling(checker, objective, 4, "shared D")

    def test_cover_on_shared_d_net(self):
        checker = BoundedModelChecker(_shared_d_netlist())
        # q1 and q2 start 0 and 1 but load the same D from cycle 1 on.
        differ = checker.cover(CoverObjective(differ=[("q1", "q2")]), 3)
        assert differ.status is BmcStatus.COVERED
        assert differ.trace.property_cycle == 0
        both = checker.cover(CoverObjective(asserted=["both"]), 3)
        assert both.status is BmcStatus.COVERED
        assert both.trace.property_cycle == 1
        assert both.trace.inputs[0]["a"] == 1

    def test_net_without_slot_is_an_encoding_error(self):
        checker = BoundedModelChecker(_shared_d_netlist())
        objective = CoverObjective(asserted=["both"])
        plan = checker._frame_plan(objective)
        # Without the cell driving ``d``, the DFFs' D net has no slot.
        broken = _FramePlan(
            comb_order=[i for i in plan.comb_order if i.output_net.name != "d"],
            dffs=plan.dffs,
            input_nets=plan.input_nets,
        )
        with pytest.raises(EncodingError, match="'d' has no slot"):
            checker._compile(broken, objective)


ADDER_VIOLATIONS = [
    TimingViolation(
        kind="setup", start="d4", end="d10", cells=("x7", "x8"),
        arrival=0.95, required=0.94,
    ),
    TimingViolation(
        kind="hold", start="d1", end="d9", cells=("x5",),
        arrival=0.0, required=0.05,
    ),
    TimingViolation(
        kind="setup", start="d3", end="d10", cells=("x7", "x8"),
        arrival=0.95, required=0.94,
    ),
]


def _fingerprint(results):
    return [
        (
            r.start,
            r.end,
            r.outcome.value,
            [
                (v.model.label, v.status.value, v.conversion_failed)
                for v in r.variants
            ],
        )
        for r in results
    ]


class TestParallelLifting:
    def _lifter(self, paper_adder, **overrides):
        config = ErrorLiftingConfig(bmc_depth=4, **overrides)
        return ErrorLifter(paper_adder, config)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self, paper_adder):
        lifter = self._lifter(paper_adder)
        serial = lift_pairs(lifter, ADDER_VIOLATIONS, workers=1)
        parallel = lift_pairs(lifter, ADDER_VIOLATIONS, workers=2)
        assert _fingerprint(parallel) == _fingerprint(serial)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_more_workers_than_pairs(self, paper_adder):
        lifter = self._lifter(paper_adder)
        results = lift_pairs(lifter, ADDER_VIOLATIONS, workers=16)
        assert _fingerprint(results) == _fingerprint(
            [lifter.lift_pair(v) for v in ADDER_VIOLATIONS]
        )

    def test_zero_workers_means_auto(self, paper_adder):
        lifter = self._lifter(paper_adder)
        results = lift_pairs(lifter, ADDER_VIOLATIONS, workers=0)
        assert _fingerprint(results) == _fingerprint(
            [lifter.lift_pair(v) for v in ADDER_VIOLATIONS]
        )

    def test_serial_fallback_without_fork(self, paper_adder, monkeypatch):
        import repro.core.pool as pool_mod

        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        lifter = self._lifter(paper_adder)
        results = lift_pairs(lifter, ADDER_VIOLATIONS, workers=8)
        assert _fingerprint(results) == _fingerprint(
            [lifter.lift_pair(v) for v in ADDER_VIOLATIONS]
        )

    def test_config_workers_drive_lift(self, paper_adder):
        from repro.sta.timing import StaReport

        report = StaReport(netlist_name="adder", period_ns=1.0)
        report.violations.extend(ADDER_VIOLATIONS)
        serial = self._lifter(paper_adder, workers=1).lift(report)
        parallel = self._lifter(paper_adder, workers=2).lift(report)
        assert _fingerprint(parallel.pairs) == _fingerprint(serial.pairs)

    def test_incremental_flag_does_not_change_reports(self, paper_adder):
        """Lifting on the fresh-solver BMC oracle gives the same report."""
        from repro.sta.timing import StaReport

        report = StaReport(netlist_name="adder", period_ns=1.0)
        report.violations.extend(ADDER_VIOLATIONS)
        incremental = self._lifter(paper_adder).lift(report)
        with fresh_bmc():
            fresh = self._lifter(paper_adder).lift(report)
        assert _fingerprint(incremental.pairs) == _fingerprint(fresh.pairs)

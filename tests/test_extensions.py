"""Tests for the §6.3 fuzz-lifting extension."""

from repro.formal.bmc import BmcStatus, BoundedModelChecker, CoverObjective
from repro.formal.bmc import InputAssumption
from repro.lifting.fuzz import FuzzTraceGenerator
from repro.lifting.instrument import instrument_for_cover, make_failing_netlist
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.sim.gatesim import GateSimulator

SETUP_MODEL = FailureModel("d4", "d10", ViolationKind.SETUP, CMode.ONE)


class TestFuzzTraceGenerator:
    def test_finds_activating_trace(self, paper_adder):
        instr = instrument_for_cover(paper_adder, SETUP_MODEL)
        fuzzer = FuzzTraceGenerator(instr, seed=1)
        result = fuzzer.search(max_trials=100, max_depth=5)
        assert result.covered
        assert result.trace is not None
        assert result.trace.mismatch_nets == ["o[1]"]

    def test_trace_replays_on_failing_netlist(self, paper_adder):
        instr = instrument_for_cover(paper_adder, SETUP_MODEL)
        fuzzer = FuzzTraceGenerator(instr, seed=2)
        result = fuzzer.search(max_trials=100, max_depth=5)
        failing = make_failing_netlist(paper_adder, SETUP_MODEL)
        good = GateSimulator(paper_adder)
        bad = GateSimulator(failing.netlist)
        mismatch = False
        for frame in result.trace.inputs:
            if good.step(frame) != bad.step(frame):
                mismatch = True
        assert mismatch

    def test_respects_assumptions(self, paper_adder):
        instr = instrument_for_cover(paper_adder, SETUP_MODEL)
        fuzzer = FuzzTraceGenerator(
            instr,
            assumptions=[InputAssumption("a", [1, 3])],
            seed=4,
        )
        result = fuzzer.search(max_trials=100, max_depth=5)
        assert result.covered
        for frame in result.trace.inputs:
            assert frame["a"] in (1, 3)

    def test_cannot_prove_unreachability(self, paper_adder):
        """Fuzzing an unactivatable fault just exhausts its budget."""
        instr = instrument_for_cover(paper_adder, SETUP_MODEL)
        # Freeze both inputs: the trigger (d4 toggling) can never fire.
        fuzzer = FuzzTraceGenerator(
            instr,
            assumptions=[
                InputAssumption.fixed("a", 0),
                InputAssumption.fixed("b", 0),
            ],
            seed=5,
        )
        result = fuzzer.search(max_trials=30, max_depth=4)
        assert not result.covered
        assert result.trials == 30
        # The BMC, by contrast, *proves* it.
        bmc = BoundedModelChecker(
            instr.netlist,
            assumptions=[
                InputAssumption.fixed("a", 0),
                InputAssumption.fixed("b", 0),
            ],
        )
        formal = bmc.cover(
            CoverObjective(differ=instr.output_pairs), max_depth=4
        )
        assert formal.status is BmcStatus.UNREACHABLE

    def test_agrees_with_bmc_on_coverable_fault(self, paper_adder):
        instr = instrument_for_cover(paper_adder, SETUP_MODEL)
        bmc = BoundedModelChecker(instr.netlist)
        formal = bmc.cover(
            CoverObjective(differ=instr.output_pairs), max_depth=4
        )
        fuzz = FuzzTraceGenerator(instr, seed=6).search(max_trials=200)
        assert (formal.status is BmcStatus.COVERED) == fuzz.covered

#!/usr/bin/env python3
"""The §6.3 Error Lifting extension: fuzz-based trace generation.

Fuzzing is the alternative trace generator the paper sketches for
Error Lifting.  This example runs it head-to-head with the bounded
model checker on the same ALU failure model, then on a fault that
fuzzing cannot settle but the BMC proves unreachable.

Run:  python examples/fuzz_vs_formal.py
"""

import time

from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.formal.bmc import BoundedModelChecker, CoverObjective
from repro.lifting.fuzz import FuzzTraceGenerator
from repro.lifting.instrument import instrument_for_cover
from repro.lifting.models import CMode, FailureModel, ViolationKind


def main() -> None:
    alu = build_alu()

    print("Fuzzing vs formal trace generation ...")
    mapper = AluMapper()
    model = FailureModel("a_q_r3", "res_q_r9", ViolationKind.SETUP, CMode.ONE)
    instr = instrument_for_cover(alu, model)

    t0 = time.time()
    fuzz = FuzzTraceGenerator(
        instr, assumptions=mapper.assumptions(), seed=1
    ).search(max_trials=300, max_depth=4)
    fuzz_time = time.time() - t0
    t0 = time.time()
    bmc = BoundedModelChecker(instr.netlist, assumptions=mapper.assumptions())
    formal = bmc.cover(CoverObjective(differ=instr.output_pairs), max_depth=4)
    formal_time = time.time() - t0
    print(f"  fuzz:   covered={fuzz.covered} after {fuzz.trials} trials "
          f"({fuzz_time*1000:.0f} ms)")
    print(f"  formal: {formal.status.value} at depth {formal.depth_checked} "
          f"({formal_time*1000:.0f} ms, {formal.conflicts} conflicts)")

    # And the case fuzzing cannot settle: a mission-constant start flop.
    ur_model = FailureModel(
        "dft_q_r0", "res_q_r0", ViolationKind.SETUP, CMode.ONE
    )
    ur_instr = instrument_for_cover(alu, ur_model)
    fuzz_ur = FuzzTraceGenerator(
        ur_instr, assumptions=mapper.assumptions(), seed=2
    ).search(max_trials=100, max_depth=4)
    formal_ur = BoundedModelChecker(
        ur_instr.netlist, assumptions=mapper.assumptions()
    ).cover(CoverObjective(differ=ur_instr.output_pairs), max_depth=4)
    print(f"  DFT-path fault: fuzz covered={fuzz_ur.covered} "
          f"(inconclusive); formal verdict={formal_ur.status.value} "
          "(proven harmless)")


if __name__ == "__main__":
    main()

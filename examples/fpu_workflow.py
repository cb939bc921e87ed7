#!/usr/bin/env python3
"""Vega on the binary16 FPU: clock gating, hold violations, and stalls.

Highlights the FPU-specific phenomena from the paper's evaluation:

* the clock-gated datapath ages asymmetrically against the always-on
  input-valid flop, producing a *hold* violation via clock phase shift
  (Table 3's FPU hold row);
* the handshake failure mode: injecting the hold failure on the
  valid chain makes the CPU stall, which the watchdog converts into a
  detection (Table 6's "S" entries).

Run:  python examples/fpu_workflow.py
"""

from repro.aging.charlib import AgingTimingLibrary
from repro.core.config import AgingAnalysisConfig, ErrorLiftingConfig
from repro.cpu.cosim import GateFpuBackend
from repro.cpu.cpu import CpuStall
from repro.cpu.fpu_design import build_fpu
from repro.cpu.mappers import FpuMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.instrument import make_failing_netlist
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.netlist.cells import VEGA28
from repro.sim.parallel_profile import profile_workload_streams
from repro.sta.aging_sta import AgingAwareSta
from repro.workloads import collect_operand_streams


def main() -> None:
    fpu = build_fpu()
    stats = fpu.stats()
    print(f"FPU synthesized: {stats['_cells']} cells, {stats['_dffs']} flops")

    print("\n[1/4] Profiling + aging STA with datapath clock gating ...")
    _, fpu_stream = collect_operand_streams(["minver"])
    profile = profile_workload_streams(fpu, {"minver": fpu_stream})
    gated = {d.name: 0.96 for d in fpu.dffs() if d.name != "v_q_r0"}
    sta = AgingAwareSta(
        fpu,
        AgingTimingLibrary.characterize(VEGA28),
        config=AgingAnalysisConfig(clock_margin=0.03, max_paths_per_endpoint=100),
        gated_instances=gated,
        clock_chain_length=24,
    )
    result = sta.analyze(profile)
    report = result.report
    shift = sta.clock_tree.max_phase_shift(sta.timing_lib)
    print(f"  aged clock phase shift across branches: {shift*1000:.1f} ps")
    print(f"  setup violations: {len(report.setup_violations())} paths; "
          f"hold violations: {len(report.hold_violations())} "
          f"{report.unique_endpoint_pairs('hold')}")

    print("\n[2/4] Lifting (with the initial-value mitigation) ...")
    lifter = ErrorLifter(
        fpu, ErrorLiftingConfig(enable_mitigation=True), FpuMapper()
    )
    lifting = lifter.lift(report)
    print(f"  outcomes: {lifting.outcome_counts()}")
    suite = AgingLibrary.from_lifting_report(lifting, name="vega_fpu")
    print(f"  {len(suite.test_cases)} tests, "
          f"{suite.suite_cycles()} cycles per pass")

    print("\n[3/4] Handshake failure -> CPU stall ...")
    hold_model = FailureModel(
        "v_q_r0", "ov_q_r0", ViolationKind.HOLD, CMode.ZERO
    )
    failing = make_failing_netlist(fpu, hold_model)
    backend = GateFpuBackend(failing.netlist, timeout=12)
    try:
        backend.execute(0, 0x3C00, 0x3C00)  # fadd 1.0 + 1.0
        backend.execute(0, 0x4000, 0x3C00)
        print("  unexpected: no stall")
    except CpuStall as stall:
        print(f"  CpuStall raised: {stall}")
    detection = suite.run_suite(fpu=GateFpuBackend(failing.netlist, timeout=12))
    print(f"  suite verdict: detected={detection.detected} "
          f"(stalled={detection.stalled})")

    print("\n[4/4] Data-path failure detection ...")
    data_failing = lifter.failing_netlists(report)[0]
    print(f"  injected: {data_failing.model.label}")
    detection = suite.run_suite(fpu=GateFpuBackend(data_failing.netlist))
    print(f"  detected={detection.detected} by={detection.detected_by!r}")


if __name__ == "__main__":
    main()

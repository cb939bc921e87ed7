#!/usr/bin/env python3
"""Full Vega workflow on the 32-bit ALU (§4-5 of the paper).

Synthesizes the RV32I ALU, profiles it with the embench-style *minver*
workload, runs aging-aware STA for a 10-year lifetime, lifts the
violating paths into software test cases, and finally injects one of
the discovered failures into a gate-level co-simulation to watch the
generated suite catch it.

Run:  python examples/alu_workflow.py
"""

from repro.aging.charlib import AgingTimingLibrary
from repro.core.config import AgingAnalysisConfig, ErrorLiftingConfig
from repro.cpu.alu_design import build_alu
from repro.cpu.cosim import GateAluBackend
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.netlist.cells import VEGA28
from repro.sim.parallel_profile import profile_workload_streams
from repro.sta.aging_sta import AgingAwareSta
from repro.workloads import collect_operand_streams


def main() -> None:
    alu = build_alu()
    stats = alu.stats()
    print(f"ALU synthesized: {stats['_cells']} cells, {stats['_dffs']} flops")

    print("\n[1/4] Signal-probability profiling with 'minver' ...")
    alu_stream, _ = collect_operand_streams(["minver"])
    profile = profile_workload_streams(alu, {"minver": alu_stream})
    parked_low = sum(1 for v in profile.sp.values() if v < 0.05)
    print(f"  {len(alu_stream)} ALU operations profiled; "
          f"{parked_low}/{len(profile.sp)} nets parked near logic 0")

    print("\n[2/4] Aging-aware STA (10-year lifetime, worst corner) ...")
    timing_lib = AgingTimingLibrary.characterize(VEGA28)
    sta = AgingAwareSta(
        alu,
        timing_lib,
        config=AgingAnalysisConfig(clock_margin=0.03, max_paths_per_endpoint=100),
    )
    result = sta.analyze(profile)
    report = result.report
    print(f"  target period {result.period_ns:.3f} ns "
          f"({1000/result.period_ns:.0f} MHz); fresh design meets timing: "
          f"{not result.fresh_report.violations}")
    print(f"  after aging: {len(report.setup_violations())} setup-violating "
          f"paths, {len(report.unique_endpoint_pairs())} unique endpoint pairs")

    print("\n[3/4] Error Lifting (formal test generation) ...")
    lifter = ErrorLifter(alu, ErrorLiftingConfig(), AluMapper())
    lifting = lifter.lift(report)
    print(f"  outcomes: {lifting.outcome_counts()}")
    suite = AgingLibrary.from_lifting_report(lifting, name="vega_alu")
    print(f"  {len(suite.test_cases)} test cases; "
          f"one full pass takes {suite.suite_cycles()} cycles")
    for case in suite.test_cases[:3]:
        print("   ", case.describe().splitlines()[0].lstrip("; "))

    print("\n[4/4] Injecting a failure and running the suite ...")
    failing = lifter.failing_netlists(report)[0]
    print(f"  injected: {failing.model.label}")
    detection = suite.run_suite(alu=GateAluBackend(failing.netlist))
    if detection.detected:
        print(f"  DETECTED by test {detection.detected_by!r} "
              f"after {detection.cycles} cycles")
    else:
        print("  not detected by this suite order")
    healthy = suite.run_suite(alu=GateAluBackend(alu))
    print(f"  healthy ALU passes the suite: {not healthy.detected}")


if __name__ == "__main__":
    main()

"""Ablation — representative-workload choice for SP profiling (§6.3).

The paper profiles with *minver* and suggests a commercial flow where
"data center operators could collect valuable traces ... to refine
Aging Analysis and generate a test suite tailored for specific data
center workloads."  This ablation compares the aging-prone pairs found
under the minver profile against a profile aggregated over all ten
workloads: richer traces exercise more of the datapath, shifting which
cells park at stressed states and therefore which paths age worst.
"""

from repro.aging.charlib import AgingTimingLibrary
from repro.core.config import AgingAnalysisConfig
from repro.netlist.cells import VEGA28
from repro.sim.parallel_profile import profile_workload_streams
from repro.sta.aging_sta import AgingAwareSta
from repro.workloads import WORKLOADS, collect_operand_streams


def test_ablation_workload_profiles(ctx, benchmark, recorder):
    alu = ctx.alu.netlist
    timing_lib = AgingTimingLibrary.characterize(VEGA28)
    config = AgingAnalysisConfig(clock_margin=0.03, max_paths_per_endpoint=100)

    def analyze(names):
        stream, _ = collect_operand_streams(names, max_ops_per_unit=4000)
        profile = profile_workload_streams(alu, {"stream": stream})
        sta = AgingAwareSta(alu, timing_lib, config=config)
        return profile, sta.analyze(profile)

    minver_profile, minver_result = analyze(["minver"])
    all_profile, all_result = analyze(sorted(WORKLOADS))

    def parked(profile):
        return sum(1 for v in profile.sp.values() if v < 0.02 or v > 0.98)

    rows = ["profile   | parked nets | setup paths | pairs | WNS(ps)"]
    for label, profile, result in (
        ("minver", minver_profile, minver_result),
        ("all-ten", all_profile, all_result),
    ):
        report = result.report
        rows.append(
            f"{label:9s} | {parked(profile):11d} | "
            f"{len(report.setup_violations()):11d} | "
            f"{len(report.unique_endpoint_pairs()):5d} | "
            f"{report.wns_setup_ns*1000:7.1f}"
        )
        recorder.sample(
            "ablation_workload_profile", "parked_nets", parked(profile),
            "nets", profile=label, unit="alu",
        )
        recorder.sample(
            "ablation_workload_profile", "setup_paths",
            len(report.setup_violations()), "paths", profile=label,
            unit="alu",
        )
    minver_pairs = set(minver_result.report.unique_endpoint_pairs())
    all_pairs = set(all_result.report.unique_endpoint_pairs())
    rows.append(
        f"pair overlap: {len(minver_pairs & all_pairs)} shared, "
        f"{len(minver_pairs - all_pairs)} minver-only, "
        f"{len(all_pairs - minver_pairs)} all-ten-only"
    )
    recorder.sample(
        "ablation_workload_profile", "shared_pairs",
        len(minver_pairs & all_pairs), "pairs", unit="alu",
        bigger_is_better=True,
    )
    recorder.table("ablation_workload_profile", "\n".join(rows))

    # Richer workloads exercise more nets: fewer parked at extremes.
    assert parked(all_profile) <= parked(minver_profile)
    # Both profiles expose aging violations; the sets need not match —
    # that is the point of workload-tailored test suites.
    assert minver_pairs and all_pairs

    result = benchmark(analyze, ["minver"])
    assert result is not None

"""Recovered lifetime vs accuracy/frequency cost per response policy.

Once Vega flags eroding timing, the operator chooses a response; this
benchmark maps the trade-off frontier the ``repro respond`` verb
reports.  On the ALU under its mission profile the first violation
onsets early in deployment; each policy (clock derate, re-synthesis
with the violating cone modelled as fresh silicon, approximation of
the violating cone) buys back lifetime at a different cost — frequency
for derate, area for resynth, exactness for approximate.

Recovered onsets are censored once a policy pushes the violation past
the age grid, so every row also reports its setup slack at the mission
age; that number is never censored and tells the policies apart.

``VEGA_SMOKE=1`` coarsens the onset grid so CI exercises every policy
quickly.  Both modes sample 128 operand frames for the accuracy cost:
at 32 frames the approximate policy's corrupted outputs never show up
and its cost reads 0 %.  The per-policy contracts (derate pays
frequency only, resynth proven exact, approximate provably inexact and
measurably less accurate) hold in both modes.
"""

import os
import time

from repro.core.config import ResponseConfig
from repro.core.experiments import CLOCK_CHAIN_LENGTH
from repro.response import ResponseEngine

SMOKE = os.environ.get("VEGA_SMOKE") == "1"

CONFIG = ResponseConfig(
    age_grid=(
        tuple(float(a) for a in (2, 4, 8, 16))
        if SMOKE
        else tuple(float(a) for a in range(1, 17))
    ),
    accuracy_samples=128,
    workers=2,
)


def test_response_tradeoff(ctx, benchmark, recorder):
    unit = ctx.alu

    def build_engine():
        return ResponseEngine(
            unit.netlist,
            "alu",
            unit.sp_profile,
            aging=ctx.config.aging,
            config=CONFIG,
            gated_instances=unit.gated_instances(),
            clock_chain_length=CLOCK_CHAIN_LENGTH,
            operands=ctx.stream("alu"),
        )

    start = time.perf_counter()
    report = build_engine().evaluate()
    wall = time.perf_counter() - start

    assert report.baseline_onset_years is not None, (
        "no violation inside the scan horizon — nothing to respond to"
    )
    rows_by_policy = {row["policy"]: row for row in report.policies}
    derate = rows_by_policy["derate"]
    resynth = rows_by_policy["resynth"]
    approximate = rows_by_policy["approximate"]
    assert derate["frequency_cost_pct"] > 0.0
    assert derate["accuracy_cost_pct"] == 0.0
    assert resynth["equivalent"] is True
    assert approximate["equivalent"] is False
    assert approximate["accuracy_cost_pct"] > 0.0
    for row in report.policies:
        assert row["recovered_years"] >= 0.0
    slacks = [row["mission_slack_ns"] for row in report.policies]
    assert len(set(slacks)) == 3, slacks
    assert min(slacks) > report.baseline_mission_slack_ns

    recorder.sample(
        "response_tradeoff", "baseline_onset_years",
        report.baseline_onset_years, "years",
        period_ns=report.period_ns, bigger_is_better=True,
    )
    recorder.sample(
        "response_tradeoff", "mission_slack_ns",
        report.baseline_mission_slack_ns, "ns", policy="none",
        bigger_is_better=True,
    )
    for row in report.policies:
        recorder.sample(
            "response_tradeoff", "recovered_years",
            row["recovered_years"], "years", policy=row["policy"],
            censored=row["censored"], bigger_is_better=True,
        )
        recorder.sample(
            "response_tradeoff", "mission_slack_ns",
            row["mission_slack_ns"], "ns", policy=row["policy"],
            bigger_is_better=True,
        )
        recorder.sample(
            "response_tradeoff", "frequency_cost_pct",
            row["frequency_cost_pct"], "percent", policy=row["policy"],
        )
        recorder.sample(
            "response_tradeoff", "accuracy_cost_pct",
            row["accuracy_cost_pct"], "percent", policy=row["policy"],
        )
        recorder.sample(
            "response_tradeoff", "area_delta_cells",
            row["area_delta_cells"], "cells", policy=row["policy"],
        )
    recorder.sample(
        "response_tradeoff", "wall_time", wall, "seconds",
        policies=len(report.policies), timing=True,
    )

    table = [
        f"ALU response trade-off frontier: first violation "
        f"{report.victim_start} ~> {report.victim_end} at "
        f"{report.baseline_onset_years:.1f}y, signed off at "
        f"{report.period_ns:.4f} ns, slack at the "
        f"{report.mission_years:.0f}y mission "
        f"{report.baseline_mission_slack_ns:+.4f} ns"
        + (" [smoke]" if SMOKE else ""),
        "policy      | recovered | slack@mission | freq cost | accuracy "
        "| cells",
    ]
    for row in report.policies:
        mark = "*" if row["censored"] else " "
        table.append(
            f"{row['policy']:<11s} | {row['recovered_years']:+8.2f}y{mark}"
            f"| {row['mission_slack_ns']:+10.4f} ns "
            f"| {row['frequency_cost_pct']:8.1f}% "
            f"| {row['accuracy_cost_pct']:7.2f}% "
            f"| {row['area_delta_cells']:+d}"
        )
    if any(row["censored"] for row in report.policies):
        table.append(
            f"(* censored: violation pushed past the "
            f"{report.horizon_years:.0f}y horizon)"
        )
    recorder.table("response_tradeoff", "\n".join(table))

    report2 = benchmark(lambda: build_engine().evaluate())
    assert report2.to_json() == report.to_json()

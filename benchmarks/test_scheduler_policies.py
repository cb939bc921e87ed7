"""Adaptive dispatch vs static test ordering — time to detection.

The point of the belief-driven scheduler: at an equal per-device cycle
budget, learning which tests pay off should find faults *sooner* than
walking a fixed test list.  This benchmark samples 8 fleets (seeds
2024 and 1–7; full ALU failure-model catalogue, per-case vega arms
plus the random and SiliFuzz-lite baseline suites) and runs every
policy on each under 3 policy seeds (7, 8, 9).  It compares penalized
mean time-to-detection — the cumulative cycles a device spent until
its first detecting test, with escapes charged the full budget —
paired on (fleet seed, policy seed): for each policy pair it reports
the mean paired difference, its standard deviation, and how many of
the 24 pairs fall below 0.

Acceptance: the Thompson-sampling bandit's paired mean penalized TTD
is below the static sequential baseline's.  The runs are
deterministic (named RNG streams, logical-time service), so the
recorded table is byte-stable.

``VEGA_SMOKE=1`` shrinks each fleet so CI can exercise the comparison
in seconds.
"""

import os
import statistics

from repro.core.config import CampaignConfig, SchedulerConfig
from repro.scheduler import ScheduleSession

SMOKE = os.environ.get("VEGA_SMOKE") == "1"
DEVICES = 16 if SMOKE else 64
POLICIES = ("sequential", "greedy", "thompson")
FLEET_SEEDS = (2024, 1, 2, 3, 4, 5, 6, 7)
POLICY_SEEDS = (7, 8, 9)
#: (a, b) pairs reported as the paired difference a − b.
PAIRS = (
    ("thompson", "sequential"),
    ("greedy", "sequential"),
    ("greedy", "thompson"),
)


def _run_policy(ctx, policy, fleet_seed, policy_seed):
    config = CampaignConfig(
        devices=DEVICES,
        seed=fleet_seed,
        silifuzz_snapshots=3,
        base_onset_years=6.0,
    )
    sched = SchedulerConfig(
        policy=policy,
        policy_seed=policy_seed,
        batch_size=16,
        checkpoint_every=1_000_000,
        cycle_budget=25_000,
    )
    session = ScheduleSession(
        ctx.alu.netlist,
        "alu",
        ctx.alu.suite(False),
        ctx.alu.failure_models(),
        config=config,
        scheduler=sched,
    )
    return session.run().report


def test_adaptive_policy_beats_static_baseline(ctx, recorder):
    runs = [(fleet, pseed) for fleet in FLEET_SEEDS for pseed in POLICY_SEEDS]
    reports = {
        (policy, run): _run_policy(ctx, policy, *run)
        for run in runs
        for policy in POLICIES
    }
    meta = dict(
        devices=DEVICES, fleet_seeds=list(FLEET_SEEDS),
        policy_seeds=list(POLICY_SEEDS),
    )
    budget = reports["sequential", runs[0]].cycle_budget

    rows = [
        f"Time-to-detection by dispatch policy — {DEVICES}-device ALU "
        f"fleets, equal {budget}-cycle budget per device; "
        f"{len(FLEET_SEEDS)} fleet seeds x {len(POLICY_SEEDS)} policy "
        f"seeds = {len(runs)} runs per policy",
        "policy     | detected | escapes | events | mean penalized TTD",
    ]
    for policy in POLICIES:
        rs = [reports[policy, run] for run in runs]
        ttd = statistics.mean(r.penalized_ttd_cycles for r in rs)
        detected = sum(r.detected for r in rs)
        escapes = sum(r.escapes for r in rs)
        events = sum(r.events for r in rs)
        rows.append(
            f"{policy:10s} | {detected:8d} | {escapes:7d} "
            f"| {events:6d} | {ttd:.1f}"
        )
        # Logical-time metrics: byte-deterministic for the seeds, so
        # they hard-fail the regression gate on any drift.
        recorder.sample(
            "scheduler_policies", "penalized_ttd", ttd, "cycles",
            policy=policy, **meta,
        )
        recorder.sample(
            "scheduler_policies", "detected", detected, "devices",
            policy=policy, bigger_is_better=True, **meta,
        )
        recorder.sample(
            "scheduler_policies", "escapes", escapes, "devices",
            policy=policy, **meta,
        )
        recorder.sample(
            "scheduler_policies", "events", events, "events",
            policy=policy, bigger_is_better=True, **meta,
        )

    rows += [
        "",
        "paired difference (a - b), penalized TTD in cycles",
        "pair                  | mean   | std dev | pairs below 0",
    ]
    paired = {}
    for a, b in PAIRS:
        diffs = [
            reports[a, run].penalized_ttd_cycles
            - reports[b, run].penalized_ttd_cycles
            for run in runs
        ]
        mean, std = statistics.mean(diffs), statistics.stdev(diffs)
        below = sum(d < 0 for d in diffs)
        paired[a, b] = mean
        name = f"{a} - {b}"
        rows.append(
            f"{name:21s} | {mean:6.1f} | {std:7.1f} | {below} of {len(runs)}"
        )
        recorder.sample(
            "scheduler_policies", "paired_ttd_diff", mean, "cycles",
            pair=name, **meta,
        )
        recorder.sample(
            "scheduler_policies", "paired_ttd_diff_std", std, "cycles",
            pair=name, **meta,
        )
        recorder.sample(
            "scheduler_policies", "pairs_below_zero", below, "pairs",
            pair=name, bigger_is_better=True, **meta,
        )
    recorder.table("scheduler_policies", "\n".join(rows))

    # Same fleet, same per-device budget: every policy must see the
    # same devices on each run.
    for run in runs:
        assert len({reports[p, run].faulty for p in POLICIES}) == 1, run

    # The acceptance bar: adaptive dispatch detects sooner than the
    # static sequential order at equal budget, on the paired mean.
    assert paired["thompson", "sequential"] < 0, (
        f"thompson - sequential paired mean penalized TTD "
        f"{paired['thompson', 'sequential']:.1f} cycles is not below 0"
    )

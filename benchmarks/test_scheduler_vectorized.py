"""Vectorized scheduler scoring — numpy planning vs the scalar path.

One planning tick asks the policy to rank every arm for every
requesting device.  The scalar reference (``plan_reference`` in
``tests/oracles.py``) rebuilds per-device candidate lists and walks
the dict posteriors of the belief's snapshot; the vectorized path
scores the whole (devices x arms) matrix over the belief's arrays.  Both produce
byte-identical schedules (pinned by ``tests/test_vectorized_scheduler``
and re-asserted here); this benchmark measures the throughput gap at
fleet scale.

The fleet and arm catalogue are synthetic — 1024 devices and 64 arms
(one per lifted test case plus the baseline suites, the shape
``build_arms`` produces for a full library) — so the benchmark
isolates planning cost from co-simulation.  Acceptance (non-smoke):
the vectorized greedy tick is at least 10x the scalar reference, and
thompson (whose betavariate draws are inherently sequential) never
regresses.

``VEGA_SMOKE=1`` shrinks the fleet so CI exercises the path in
seconds.
"""

import os
import time

from repro.campaign.fleet import DeviceSpec
from repro.scheduler.belief import ArmSpec, FleetBelief
from repro.scheduler.policy import PlanRequest, make_policy

from oracles import plan_reference

SMOKE = os.environ.get("VEGA_SMOKE") == "1"
DEVICES = 128 if SMOKE else 1024
CASE_ARMS = 16 if SMOKE else 62
REPEATS = 2 if SMOKE else 5
MIN_GREEDY_SPEEDUP = 1.5 if SMOKE else 10.0
POLICIES = ("sequential", "greedy", "thompson")

CORNERS = ("typ", "fast", "slow")
CLASSES = tuple(f"cls{i}" for i in range(6))


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fleet():
    return [
        DeviceSpec(
            index=i,
            device_id=f"dev{i:04d}",
            corner=CORNERS[i % len(CORNERS)],
            onset_years=5.0,
            faulty=False,
            model=None,
            backend_seed=i,
        )
        for i in range(DEVICES)
    ]


def _arms():
    arms = [
        ArmSpec(
            f"case:c{i}", "case", CLASSES[i % len(CLASSES)],
            400 + 13 * i, i,
        )
        for i in range(CASE_ARMS)
    ]
    arms.append(ArmSpec("suite:random", "random", "*", 5000, CASE_ARMS))
    arms.append(
        ArmSpec("suite:silifuzz", "silifuzz", "*", 6000, CASE_ARMS + 1)
    )
    return arms


def _belief(fleet, arms):
    """A mid-campaign belief: every third device has folded outcomes."""
    belief = FleetBelief(fleet, arms, list(CLASSES), cycle_budget=25_000)
    for i in range(0, len(fleet), 3):
        arm = arms[(7 * i) % len(arms)]
        belief.record_dispatch(fleet[i].device_id, arm)
        belief.record_outcome(
            fleet[i].device_id,
            arm,
            detected=(i % 17 == 0),
            cycles=arm.cost_cycles,
        )
    return belief


def test_scheduler_vectorized(ctx, benchmark, recorder):
    fleet = _fleet()
    arms = _arms()
    belief = _belief(fleet, arms)
    requests = [PlanRequest(s.device_id, s.index) for s in fleet]

    rows = [
        f"Vectorized planning: {DEVICES} devices, {len(arms)} arms"
        + (" [smoke]" if SMOKE else ""),
        "policy     | scalar (ms) | vectorized (ms) | speedup | devices/s",
    ]
    speedups = {}
    for name in POLICIES:
        policy = make_policy(name, seed=7)
        vec_time, vec_schedule = _timed(
            lambda: policy.plan(belief, requests, 1)
        )
        ref_time, ref_schedule = _timed(
            lambda: plan_reference(policy, belief, arms, requests, 1)
        )
        assert vec_schedule.dispatches == ref_schedule.dispatches
        assert vec_schedule.retired == ref_schedule.retired
        speedup = ref_time / vec_time
        speedups[name] = speedup
        devices_per_s = DEVICES / vec_time
        rows.append(
            f"{name:10s} | {ref_time * 1e3:11.2f} | {vec_time * 1e3:15.2f} "
            f"| {speedup:6.1f}x | {devices_per_s:9.0f}"
        )
        for path, wall in (("scalar", ref_time), ("vectorized", vec_time)):
            recorder.sample(
                "scheduler_vectorized", "plan_wall_time", wall * 1e3,
                "ms/tick", policy=name, path=path, devices=DEVICES,
                arms=len(arms), timing=True,
            )
        recorder.sample(
            "scheduler_vectorized", "plan_throughput", devices_per_s,
            "devices/s", policy=name, path="vectorized", devices=DEVICES,
            arms=len(arms), timing=True, bigger_is_better=True,
        )
        recorder.sample(
            "scheduler_vectorized", "speedup", speedup, "ratio",
            policy=name, devices=DEVICES, arms=len(arms), timing=True,
            bigger_is_better=True,
        )
        recorder.sample(
            "scheduler_vectorized", "dispatches_planned",
            len(vec_schedule.dispatches), "dispatches", policy=name,
            devices=DEVICES, arms=len(arms), bigger_is_better=True,
        )
    recorder.table("scheduler_vectorized", "\n".join(rows))

    assert speedups["greedy"] >= MIN_GREEDY_SPEEDUP, (
        f"vectorized greedy planning only {speedups['greedy']:.1f}x "
        f"the scalar reference"
    )
    # Thompson's draws are inherently sequential (stream-for-stream
    # identical betavariates); vectorized candidate masks and posterior
    # reads must still keep it from regressing.
    assert speedups["thompson"] >= (0.5 if SMOKE else 0.9), (
        f"vectorized thompson planning regressed to "
        f"{speedups['thompson']:.2f}x the scalar reference"
    )

    policy = make_policy("greedy", seed=7)
    schedule = benchmark(lambda: policy.plan(belief, requests, 1))
    assert len(schedule.dispatches) + len(schedule.retired) == DEVICES

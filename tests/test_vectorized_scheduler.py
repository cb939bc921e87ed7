"""Tests for the vectorized scheduler scoring path.

The numpy mirror (:class:`repro.scheduler.belief._BeliefArrays`) and
the vectorized :meth:`Policy.plan` are optimizations with an equality
contract: every schedule, retire decision, fleet predicate, snapshot,
and digest must be identical to the scalar reference in
``tests/oracles.py``.  These tests drive both paths over evolving
belief states and compare byte for byte.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.fleet import DeviceSpec
from repro.scheduler.belief import ArmSpec, FleetBelief
from repro.scheduler.policy import PlanRequest, make_policy

from oracles import plan_reference

CORNERS = ["typ", "fast", "slow"]
CLASSES = [f"cls{i}" for i in range(4)]


def make_fleet(n):
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
        for i in range(n)
    ]


def make_arms(n_cases):
    arms = [
        ArmSpec(
            f"case:c{i}", "case", CLASSES[i % len(CLASSES)],
            400 + 13 * i, i,
        )
        for i in range(n_cases)
    ]
    arms.append(ArmSpec("suite:random", "random", "*", 5000, n_cases))
    arms.append(
        ArmSpec("suite:silifuzz", "silifuzz", "*", 6000, n_cases + 1)
    )
    return arms


def make_belief(fleet, history_step=3, detect_step=17, budget=25_000):
    """A belief with folded-in history so posteriors/budgets vary."""
    arms = make_arms(10)
    belief = FleetBelief(fleet, CLASSES, cycle_budget=budget)
    for i in range(0, len(fleet), history_step):
        arm = arms[(7 * i) % len(arms)]
        belief.record_dispatch(fleet[i].device_id, arm)
        belief.record_outcome(
            fleet[i].device_id,
            arm,
            detected=(i % detect_step == 0),
            cycles=arm.cost_cycles,
        )
    return belief, arms


def assert_schedules_equal(vec, ref):
    assert vec.tick == ref.tick
    assert vec.policy == ref.policy
    assert vec.dispatches == ref.dispatches
    assert vec.retired == ref.retired


@pytest.mark.parametrize("policy_name", ["sequential", "greedy", "thompson"])
class TestPlanEquivalence:
    def test_matches_reference(self, policy_name):
        fleet = make_fleet(60)
        belief, arms = make_belief(fleet)
        policy = make_policy(policy_name, seed=7)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        for tick in (1, 2, 5, 40):
            assert_schedules_equal(
                policy.plan(belief, arms, requests, tick),
                plan_reference(policy, belief, arms, requests, tick),
            )

    def test_matches_after_evolution(self, policy_name):
        """Incremental mirror sync: plan between mutations, re-plan."""
        fleet = make_fleet(24)
        belief, arms = make_belief(fleet)
        policy = make_policy(policy_name, seed=3)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        for tick in range(1, 6):
            schedule = policy.plan(belief, arms, requests, tick)
            assert_schedules_equal(
                schedule,
                plan_reference(policy, belief, arms, requests, tick),
            )
            # Fold the tick's outcomes back in (mutates the mirror
            # incrementally), alternating detection verdicts.
            for n, dispatch in enumerate(schedule.dispatches):
                arm = next(a for a in arms if a.name == dispatch.arm)
                belief.record_dispatch(dispatch.device_id, arm)
                belief.record_outcome(
                    dispatch.device_id,
                    arm,
                    detected=(n % 5 == 0),
                    cycles=arm.cost_cycles,
                )

    def test_near_exhausted_budgets(self, policy_name):
        """Retire paths: budgets too small for most (then all) arms."""
        fleet = make_fleet(12)
        policy = make_policy(policy_name, seed=1)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        for budget in (0, 400, 450, 6000):
            belief, arms = make_belief(fleet, budget=budget)
            assert_schedules_equal(
                policy.plan(belief, arms, requests, 1),
                plan_reference(policy, belief, arms, requests, 1),
            )

    @given(
        n_devices=st.integers(min_value=1, max_value=30),
        history_step=st.integers(min_value=1, max_value=6),
        detect_step=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=2**16),
        tick=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_beliefs(
        self, policy_name, n_devices, history_step, detect_step, seed, tick
    ):
        fleet = make_fleet(n_devices)
        belief, arms = make_belief(
            fleet, history_step=history_step, detect_step=detect_step
        )
        policy = make_policy(policy_name, seed=seed)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        assert_schedules_equal(
            policy.plan(belief, arms, requests, tick),
            plan_reference(policy, belief, arms, requests, tick),
        )


class TestFleetPredicates:
    def test_done_mask_matches_device_done(self):
        fleet = make_fleet(40)
        belief, arms = make_belief(fleet, detect_step=5, budget=1200)
        mirror = belief.arrays(arms)
        mask = belief.done_mask(arms)
        for spec in fleet:
            assert mask[mirror.row[spec.device_id]] == belief.device_done(
                spec.device_id, arms
            )
        scalar_done = sum(
            belief.device_done(s.device_id, arms) for s in fleet
        )
        assert belief.active_count(arms) == len(fleet) - scalar_done
        assert belief.all_done(arms) == (scalar_done == len(fleet))

    def test_catalogue_change_rebuilds_mirror(self):
        fleet = make_fleet(8)
        belief, arms = make_belief(fleet)
        belief.arrays(arms)
        other = make_arms(4)
        mirror = belief.arrays(other)
        assert [a.name for a in mirror.arms] == [a.name for a in other]

    def test_foreign_event_invalidates_mirror(self):
        """Events outside the mirror's catalogue drop it, not corrupt it."""
        fleet = make_fleet(8)
        belief, arms = make_belief(fleet)
        belief.arrays(arms)
        foreign = ArmSpec("case:elsewhere", "case", CLASSES[0], 123, 99)
        belief.record_dispatch(fleet[0].device_id, foreign)
        assert belief._arrays is None
        policy = make_policy("greedy", 7)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        assert_schedules_equal(
            policy.plan(belief, arms, requests, 1),
            plan_reference(policy, belief, arms, requests, 1),
        )


class TestSerializationUntouched:
    def test_snapshot_identical_after_array_use(self):
        fleet = make_fleet(16)
        belief, arms = make_belief(fleet)
        before = belief.to_json()
        digest_before = belief.digest()
        policy = make_policy("thompson", 7)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        policy.plan(belief, arms, requests, 1)
        belief.done_mask(arms)
        assert belief.to_json() == before
        assert belief.digest() == digest_before

    def test_roundtrip_then_vectorized_plan(self):
        fleet = make_fleet(16)
        belief, arms = make_belief(fleet)
        restored = FleetBelief.from_json(belief.to_json())
        assert restored.digest() == belief.digest()
        policy = make_policy("greedy", 7)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        assert_schedules_equal(
            policy.plan(restored, arms, requests, 3),
            plan_reference(policy, belief, arms, requests, 3),
        )

"""Tests for the array belief and the vectorized scheduler scoring path.

:class:`repro.scheduler.belief.FleetBelief` keeps its state in numpy
arrays and :meth:`Policy.plan` scores whole batches over them; both
carry an equality contract: every schedule, retire decision, fleet
predicate, snapshot, and digest must be identical to the dict fold and
the scalar reads in ``tests/oracles.py``.  These tests drive both paths
over evolving belief states and compare byte for byte.
"""

import json


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.fleet import DeviceSpec
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.scheduler.belief import BROAD_CLASS, ArmSpec, FleetBelief
from repro.scheduler.policy import PlanRequest, make_policy

from oracles import DictBelief, device_done, plan_reference

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
    belief = FleetBelief(fleet, arms, CLASSES, cycle_budget=budget)
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
                policy.plan(belief, requests, tick),
                plan_reference(policy, belief, arms, requests, tick),
            )

    def test_matches_after_evolution(self, policy_name):
        """Plan between mutations, re-plan."""
        fleet = make_fleet(24)
        belief, arms = make_belief(fleet)
        policy = make_policy(policy_name, seed=3)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        for tick in range(1, 6):
            schedule = policy.plan(belief, requests, tick)
            assert_schedules_equal(
                schedule,
                plan_reference(policy, belief, arms, requests, tick),
            )
            # Fold the tick's outcomes back in, alternating detection
            # verdicts.
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
                policy.plan(belief, requests, 1),
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
            policy.plan(belief, requests, tick),
            plan_reference(policy, belief, arms, requests, tick),
        )


class TestFleetPredicates:
    def test_done_mask_matches_device_done(self):
        fleet = make_fleet(40)
        belief, arms = make_belief(fleet, detect_step=5, budget=1200)
        state = belief.snapshot()
        mask = belief.done_mask()
        for spec in fleet:
            assert mask[belief.row[spec.device_id]] == device_done(
                state, spec.device_id, arms
            )
        scalar_done = sum(
            device_done(state, s.device_id, arms) for s in fleet
        )
        assert belief.active_count() == len(fleet) - scalar_done
        assert belief.all_done() == (scalar_done == len(fleet))


class TestSerializationUntouched:
    def test_snapshot_identical_after_array_use(self):
        fleet = make_fleet(16)
        belief, arms = make_belief(fleet)
        before = belief.to_json()
        digest_before = belief.digest()
        policy = make_policy("thompson", 7)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        policy.plan(belief, requests, 1)
        belief.done_mask()
        assert belief.to_json() == before
        assert belief.digest() == digest_before

    def test_roundtrip_then_vectorized_plan(self):
        fleet = make_fleet(16)
        belief, arms = make_belief(fleet)
        restored = FleetBelief.from_snapshot(
            json.loads(belief.to_json()), arms
        )
        assert restored.digest() == belief.digest()
        policy = make_policy("greedy", 7)
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        assert_schedules_equal(
            policy.plan(restored, requests, 3),
            plan_reference(policy, belief, arms, requests, 3),
        )


# ---------------------------------------------------------------------
# The arrays against the dict fold, over random catalogues and streams
# ---------------------------------------------------------------------
FOLD_MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, mode)
    for mode in (CMode.ZERO, CMode.ONE, CMode.RANDOM)
]
#: The fleet's classes: the first two are carried by devices and
#: targeted by arms; the third is carried but no arm targets it.
FOLD_CLASSES = sorted(m.label for m in FOLD_MODELS[:2]) + [
    FOLD_MODELS[2].label
]
#: An arm class outside the fleet's classes (neutral prior).
STRAY_CLASS = "stray"


@st.composite
def fold_cases(draw):
    """A fleet, an arm catalogue, and a dispatch/outcome stream."""
    n_devices = draw(st.integers(min_value=1, max_value=8))
    fleet = []
    for i in range(n_devices):
        carried = draw(st.sampled_from([None, 0, 1, 2]))
        fleet.append(
            DeviceSpec(
                index=i,
                device_id=f"dev{i:04d}",
                corner=draw(st.sampled_from(CORNERS)),
                onset_years=5.0,
                faulty=carried is not None,
                model=None if carried is None else FOLD_MODELS[carried],
                backend_seed=i,
            )
        )
    labels = draw(
        st.lists(
            st.sampled_from(FOLD_CLASSES[:2] + [STRAY_CLASS]),
            min_size=0,
            max_size=6,
        )
    )
    labels += [BROAD_CLASS] * draw(st.integers(min_value=1, max_value=2))
    order = draw(st.permutations(range(len(labels))))
    arms = [
        ArmSpec(
            f"arm:{i}", "case" if label != BROAD_CLASS else "random",
            label, draw(st.integers(min_value=1, max_value=900)), order[i],
        )
        for i, label in enumerate(labels)
    ]
    events = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=n_devices - 1),
                st.integers(min_value=0, max_value=len(arms) - 1),
                st.booleans(),
                st.integers(min_value=0, max_value=700),
            ),
            max_size=40,
        )
    )
    budget = draw(st.sampled_from([0, 500, 1500, 25_000]))
    blend = draw(st.sampled_from([0.0, 0.5, 1.0]))
    unknown_corner = draw(st.one_of(st.none(), st.sampled_from(CORNERS)))
    return fleet, arms, events, budget, blend, unknown_corner


def fold(beliefs, fleet, arms, events):
    for is_dispatch, device, arm, detected, cycles in events:
        device_id, spec = fleet[device].device_id, arms[arm]
        for belief in beliefs:
            if is_dispatch:
                belief.record_dispatch(device_id, spec)
            else:
                belief.record_outcome(
                    device_id, spec, detected, cycles,
                    detected_by=None if cycles % 3 else f"by{cycles}",
                )


class TestDictFoldEquivalence:
    @given(case=fold_cases(), tick=st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_arrays_match_dict_fold(self, case, tick):
        fleet, arms, events, budget, blend, unknown_corner = case
        belief = FleetBelief(
            fleet, arms, FOLD_CLASSES, cycle_budget=budget, fleet_blend=blend
        )
        reference = DictBelief.fresh(
            fleet, FOLD_CLASSES, cycle_budget=budget, fleet_blend=blend
        )
        if unknown_corner is not None:
            # A corner missing from the prior table: neutral prior.
            data = belief.snapshot()
            data["prior"].pop(unknown_corner, None)
            belief = FleetBelief.from_snapshot(data, arms)
            reference.state["prior"].pop(unknown_corner, None)
        fold([belief, reference], fleet, arms, events)
        assert belief.to_json() == reference.to_json()

        state = reference.snapshot()
        mask = belief.done_mask()
        assert [bool(mask[belief.row[s.device_id]]) for s in fleet] == [
            device_done(state, s.device_id, arms) for s in fleet
        ]

        restored = FleetBelief.from_snapshot(belief.snapshot(), arms)
        assert restored.digest() == belief.digest()
        requests = [PlanRequest(s.device_id, s.index) for s in fleet]
        for name in ("sequential", "greedy", "thompson"):
            policy = make_policy(name, seed=tick)
            live = policy.plan(belief, requests, tick)
            assert_schedules_equal(policy.plan(restored, requests, tick), live)
            assert_schedules_equal(
                plan_reference(policy, reference, arms, requests, tick), live
            )

    @given(case=fold_cases())
    @settings(max_examples=20, deadline=None)
    def test_arm_outside_catalogue_raises(self, case):
        fleet, arms, events, budget, blend, _ = case
        belief = FleetBelief(fleet, arms, FOLD_CLASSES, cycle_budget=budget)
        fold([belief], fleet, arms, events)
        before = belief.digest()
        # Same class as a catalogued arm, but not in the catalogue.
        foreign = ArmSpec("case:elsewhere", "case", arms[0].class_label, 9, 99)
        device_id = fleet[0].device_id
        with pytest.raises(KeyError):
            belief.record_dispatch(device_id, foreign)
        with pytest.raises(KeyError):
            belief.record_outcome(device_id, foreign, True, 9)
        assert belief.digest() == before

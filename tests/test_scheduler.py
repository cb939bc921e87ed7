"""Tests for the online fleet scheduler (repro.scheduler)."""

import dataclasses
import hashlib
import json

import pytest

from repro.campaign import CampaignEngine
from repro.campaign.fleet import fleet_digest, sample_fleet
from repro.core.artifacts import ArtifactCache
from repro.core.config import (
    CampaignConfig,
    ErrorLiftingConfig,
    SchedulerConfig,
)
from repro.core.experiments import ExperimentContext
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.scheduler import (
    DetectionService,
    EventLog,
    FleetBelief,
    ScheduleReport,
    ScheduleSession,
    build_arms,
    fleet_prior,
    make_policy,
    verify_replay,
)
from repro.scheduler.belief import BROAD_CLASS, ArmSpec
from repro.scheduler.policy import PlanRequest
from repro.sta.timing import TimingViolation

from oracles import fold_event_stream, mean

MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.RANDOM),
]

CONFIG = CampaignConfig(
    devices=8,
    seed=11,
    silifuzz_snapshots=3,
    base_onset_years=6.0,
)

SCHED = SchedulerConfig(
    policy="thompson",
    policy_seed=7,
    batch_size=4,
    checkpoint_every=4,
    cycle_budget=40_000,
)


@pytest.fixture(scope="module")
def alu_netlist():
    return build_alu()


@pytest.fixture(scope="module")
def vega_library(alu_netlist):
    lifter = ErrorLifter(alu_netlist, ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    return AgingLibrary(
        name="sched_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )


def make_session(
    alu_netlist, vega_library, config=CONFIG, sched=SCHED, cache=None
):
    return ScheduleSession(
        alu_netlist,
        "alu",
        vega_library,
        MODELS,
        config=config,
        scheduler=sched,
        cache=cache,
    )


def _fleet():
    return sample_fleet(CONFIG, MODELS, 6.0)


def _classes():
    return sorted({m.label for m in MODELS})


# ---------------------------------------------------------------------
# Belief state
# ---------------------------------------------------------------------
class TestBelief:
    def test_fleet_prior_reflects_corner_populations(self):
        fleet = _fleet()
        prior = fleet_prior(fleet, _classes())
        assert set(prior) == {spec.corner for spec in fleet}
        for table in prior.values():
            assert BROAD_CLASS in table
            for alpha, beta in table.values():
                assert alpha > 0 and beta > 0
        # Every device here is faulty (onset well inside the mission),
        # so the broad-class prior is hot at every corner.
        for table in prior.values():
            alpha, beta = table[BROAD_CLASS]
            assert alpha > beta

    def test_outcome_updates_posterior_and_ttd(self):
        fleet = _fleet()
        device = fleet[0].device_id
        label = _classes()[0]
        arm = ArmSpec("case:x", "case", label, 40, 0)
        belief = FleetBelief(fleet, [arm], _classes(), cycle_budget=1000)
        before = mean(belief.snapshot(), device, label)
        belief.record_outcome(device, arm, False, 40)
        snapshot = belief.snapshot()
        assert mean(snapshot, device, label) < before
        assert snapshot["devices"][device]["spent_cycles"] == 40
        assert not snapshot["devices"][device]["detected"]

        belief.record_outcome(device, arm, True, 35, detected_by="x")
        snapshot = belief.snapshot()
        state = snapshot["devices"][device]
        assert state["detected"] and state["detected_by"] == "x"
        assert state["detected_cycles"] == 75  # cumulative cycles at hit
        # Fleet-level evidence moved too.
        assert snapshot["fleet_posteriors"][label] == [1.0, 1.0]

    def test_candidates_respect_budget_and_run_counts(self):
        fleet = _fleet()
        device = fleet[0].device_id
        arms = [
            ArmSpec("a", "case", _classes()[0], 60, 0),
            ArmSpec("b", "case", _classes()[1], 300, 1),  # over budget
        ]
        belief = FleetBelief(fleet, arms, _classes(), cycle_budget=100)
        row = belief.row[device]
        assert belief.valid_matrix()[row].tolist() == [True, False]
        assert not belief.done_mask()[row]
        belief.record_dispatch(device, arms[0])
        assert not belief.valid_matrix()[row].any()
        assert belief.done_mask()[row]

    def test_snapshot_roundtrip_is_exact(self):
        fleet = _fleet()
        arm = ArmSpec("a", "case", _classes()[0], 10, 0)
        belief = FleetBelief(fleet, [arm], _classes(), cycle_budget=500)
        belief.record_dispatch(fleet[0].device_id, arm)
        belief.record_outcome(fleet[0].device_id, arm, True, 10)
        clone = FleetBelief.from_snapshot(json.loads(belief.to_json()), [arm])
        assert clone.digest() == belief.digest()
        assert clone.to_json() == belief.to_json()
        # The restored belief keeps evolving identically.
        for b in (belief, clone):
            b.record_outcome(fleet[1].device_id, arm, False, 10)
        assert clone.digest() == belief.digest()


# ---------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------
class TestPolicies:
    def _arms(self):
        labels = _classes()
        return [
            ArmSpec(f"case:{k}", "case", labels[k % len(labels)], 50 + k, k)
            for k in range(4)
        ]

    def _requests(self, fleet):
        return [
            PlanRequest(device_id=s.device_id, device_index=s.index)
            for s in fleet[:4]
        ]

    @pytest.mark.parametrize(
        "name", ["sequential", "greedy", "thompson"]
    )
    def test_policies_are_deterministic(self, name):
        fleet = _fleet()
        arms = self._arms()
        requests = self._requests(fleet)
        schedules = []
        for _ in range(2):
            belief = FleetBelief(fleet, arms, _classes(), cycle_budget=1000)
            policy = make_policy(name, seed=5)
            schedules.append(policy.plan(belief, requests, tick=3))
        first, second = schedules
        assert [d.as_record() for d in first.dispatches] == [
            d.as_record() for d in second.dispatches
        ]

    def test_sequential_walks_catalogue_order(self):
        fleet = _fleet()
        arms = self._arms()
        belief = FleetBelief(fleet, arms, _classes(), cycle_budget=1000)
        policy = make_policy("sequential")
        schedule = policy.plan(belief, self._requests(fleet), tick=1)
        assert {d.arm for d in schedule.dispatches} == {"case:0"}

    def test_thompson_draws_depend_on_seed_stream(self):
        fleet = _fleet()
        arms = self._arms()
        belief = FleetBelief(fleet, arms, _classes(), cycle_budget=1000)
        requests = self._requests(fleet)
        picks = {
            seed: tuple(
                d.arm
                for d in make_policy("thompson", seed)
                .plan(belief, requests, tick=1)
                .dispatches
            )
            for seed in range(12)
        }
        # Some seed must explore off the greedy pick.
        assert len(set(picks.values())) > 1

    def test_plan_retires_exhausted_devices(self):
        fleet = _fleet()
        arms = self._arms()
        belief = FleetBelief(fleet, arms, _classes(), cycle_budget=1000)
        for arm in arms:
            belief.record_dispatch(fleet[0].device_id, arm)
        schedule = make_policy("greedy").plan(
            belief, self._requests(fleet), tick=1
        )
        assert fleet[0].device_id in schedule.retired

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("nonesuch")


# ---------------------------------------------------------------------
# Service mechanics (no fleet execution needed)
# ---------------------------------------------------------------------
def _service():
    fleet = _fleet()
    arms = [ArmSpec("a", "case", _classes()[0], 10, 0)]
    belief = FleetBelief(fleet, arms, _classes(), cycle_budget=1000)
    return DetectionService(
        belief=belief,
        policy=make_policy("sequential"),
        config=SCHED,
        log=EventLog(run_id="test"),
    ), fleet


class TestServiceMechanics:
    def test_checkpoint_state_roundtrips_belief(self):
        service, fleet = _service()
        arm = service.belief.arms[0]
        service.belief.record_outcome(
            fleet[0].device_id, arm, True, 10, detected_by="a"
        )
        state = service.checkpoint_state()
        restored = FleetBelief.from_snapshot(
            state["belief"], service.belief.arms
        )
        assert restored.digest() == service.belief.digest()
        assert state["policy"] == "sequential"

    def test_event_log_counts_semantic_events(self):
        log = EventLog(run_id="test")
        log.event("dispatch", 1, device="d0", arm="a")
        log.event("result", 1, device="d0", arm="a", detected=True)
        records = log.trace_records()
        assert records[0]["type"] == "meta"
        assert records[-1]["counters"] == {
            "scheduler.dispatch": 1,
            "scheduler.result": 1,
        }


# ---------------------------------------------------------------------
# End-to-end sessions
# ---------------------------------------------------------------------
class TestScheduleSession:
    def test_for_unit_samples_the_campaign_fleet(self):
        # Without a pinned onset, schedule/serve and campaign run must
        # derive the same base onset, so they see the same devices.
        experiment = ExperimentContext().unit("alu")
        config = CampaignConfig(devices=16)
        engine = CampaignEngine.for_unit(experiment, config=config)
        session = ScheduleSession.for_unit(experiment, config=config)
        assert session.base_onset_years == engine.base_onset_years
        campaign_fleet, schedule_fleet = (
            fleet_digest(
                sample_fleet(config, run.failing_models, run.base_onset_years)
            )
            for run in (engine, session)
        )
        assert schedule_fleet == campaign_fleet

    def test_arm_catalogue_covers_cases_and_suites(
        self, alu_netlist, vega_library
    ):
        from repro.campaign.engine import DeviceRunner

        runner = DeviceRunner(alu_netlist, "alu", CONFIG, vega_library)
        arms = build_arms(vega_library, runner)
        kinds = {arm.kind for arm in arms}
        assert kinds == {"case", "random", "silifuzz"}
        assert all(arm.cost_cycles > 0 for arm in arms)
        assert [arm.index for arm in arms] == list(range(len(arms)))
        case_arms = [a for a in arms if a.kind == "case"]
        assert len(case_arms) == len(vega_library.test_cases)
        assert all(a.class_label != BROAD_CLASS for a in case_arms)

    @pytest.mark.parametrize("batch_size", [16, 4, 2, 3])
    def test_live_equals_replay_at_any_configuration(
        self, alu_netlist, vega_library, batch_size
    ):
        sched = dataclasses.replace(SCHED, batch_size=batch_size)
        session = make_session(alu_netlist, vega_library, sched=sched)
        outcome = session.run()
        matches, replayed = verify_replay(session, outcome)
        assert matches
        assert replayed.report.to_json() == outcome.report.to_json()

    def test_event_log_is_a_valid_trace(self, alu_netlist, vega_library):
        from repro.core.telemetry import dump_trace, parse_trace

        outcome = make_session(alu_netlist, vega_library).run()
        text = outcome.log.to_jsonl()
        records = parse_trace(text)
        assert dump_trace(records) == text
        names = {r["name"] for r in records if r["type"] == "event"}
        assert {"dispatch", "result", "drain"} <= names
        # Ticks are monotone logical time.
        ticks = [r["t_s"] for r in records if r["type"] == "event"]
        assert ticks == sorted(ticks)

    def test_policies_change_trajectories(self, alu_netlist, vega_library):
        logs = {}
        for policy in ("sequential", "thompson"):
            sched = dataclasses.replace(SCHED, policy=policy)
            outcome = make_session(
                alu_netlist, vega_library, sched=sched
            ).run()
            logs[policy] = outcome.log.to_jsonl()
            assert outcome.report.policy == policy
        assert logs["sequential"] != logs["thompson"]

    def test_detection_outcomes_match_campaign_ground_truth(
        self, alu_netlist, vega_library
    ):
        """Every faulty device the full campaign suites detect, the
        scheduler (which dispatches the same tests one by one until a
        hit) also detects within budget."""
        outcome = make_session(alu_netlist, vega_library).run()
        report = outcome.report
        assert report.devices == CONFIG.devices
        assert report.faulty == sum(1 for s in outcome.fleet if s.faulty)
        assert report.detected == report.faulty  # these faults are loud
        assert report.mean_ttd_cycles is not None
        assert report.mean_ttd_cycles <= SCHED.cycle_budget

    def test_report_json_roundtrip(self, alu_netlist, vega_library):
        report = make_session(alu_netlist, vega_library).run().report
        clone = ScheduleReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert clone.summary_lines() == report.summary_lines()

    def test_restart_after_kill_matches_uninterrupted(
        self, alu_netlist, vega_library, tmp_path
    ):
        """Kill the service mid-run after N ingested events; resuming
        from the last belief checkpoint must land on the same final
        report and belief as a run that was never interrupted."""
        sched = dataclasses.replace(
            SCHED, batch_size=16, checkpoint_every=4
        )
        uninterrupted = make_session(
            alu_netlist, vega_library, sched=sched
        ).run()

        cache = ArtifactCache(tmp_path)
        killed = make_session(
            alu_netlist, vega_library, sched=sched, cache=cache
        ).run(kill_after_events=9)
        assert killed.killed
        assert killed.report.events < uninterrupted.report.events

        resumed = make_session(
            alu_netlist, vega_library, sched=sched, cache=cache
        ).run(resume=True)
        assert resumed.resumed
        assert resumed.report.to_json() == uninterrupted.report.to_json()
        assert resumed.belief.digest() == uninterrupted.belief.digest()

    def test_resume_of_finished_run_executes_nothing(
        self, alu_netlist, vega_library, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        sched = dataclasses.replace(SCHED, checkpoint_every=1)
        first = make_session(
            alu_netlist, vega_library, sched=sched, cache=cache
        ).run()
        again = make_session(
            alu_netlist, vega_library, sched=sched, cache=cache
        ).run(resume=True)
        assert again.resumed
        assert again.report.events == first.report.events
        assert again.belief.digest() == first.belief.digest()

    def test_outcomes_are_memoized_across_devices(
        self, alu_netlist, vega_library
    ):
        """Devices sharing a failure model share simulations — the
        fleet-level dedup that keeps big fleets cheap."""
        from repro.core import telemetry as tele_mod

        tele = tele_mod.Telemetry(run_id="memo-test")
        with tele_mod.use(tele):
            make_session(alu_netlist, vega_library).run()
        assert tele.counters.get("scheduler.outcome_memo_hits", 0) > 0

    @pytest.mark.parametrize("policy", ["sequential", "greedy", "thompson"])
    def test_event_log_fold_reproduces_belief(
        self, alu_netlist, vega_library, policy
    ):
        """The serve log alone determines the belief: folding its
        dispatch/result records into a fresh belief lands on the live
        service's digest."""
        from repro.campaign.engine import DeviceRunner

        config = dataclasses.replace(CONFIG, devices=16)
        sched = dataclasses.replace(SCHED, policy=policy)
        outcome = make_session(
            alu_netlist, vega_library, config=config, sched=sched
        ).run()
        runner = DeviceRunner(alu_netlist, "alu", config, vega_library)
        records = [
            json.loads(line) for line in outcome.log.to_jsonl().splitlines()
        ]
        folded = fold_event_stream(
            outcome.fleet,
            _classes(),
            sched,
            build_arms(vega_library, runner),
            records,
        )
        assert folded.digest() == outcome.belief.digest()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedTrajectories:
    """Event logs and reports pinned by sha256 (16-hex prefixes).

    The digests cover the whole serve trajectory: dispatch order, tick
    boundaries, result ``seq`` numbers, checkpoint placement, the
    retire records and the ``run_id`` derived from the session key.
    Any change to the dispatch loop that moves one event shows here.
    """

    @pytest.mark.parametrize(
        "policy,log_sha,report_sha",
        [
            ("sequential", "3e13979ba86472cd", "27c608a1bb240dca"),
            ("greedy", "744c00c77bcd23b6", "b4bda73d473f1b10"),
            ("thompson", "76ef344e9a0b38d3", "79dc0b7c5d72616d"),
        ],
    )
    def test_policy_trajectories(
        self, alu_netlist, vega_library, policy, log_sha, report_sha
    ):
        sched = dataclasses.replace(SCHED, policy=policy)
        outcome = make_session(alu_netlist, vega_library, sched=sched).run()
        assert _sha(outcome.log.to_jsonl()) == log_sha
        assert _sha(outcome.report.to_json()) == report_sha

    def test_devices_park_across_ticks(self, alu_netlist, vega_library):
        # 40 devices in batches of 4: most requests wait out several
        # ticks before they are planned.
        config = dataclasses.replace(CONFIG, devices=40)
        outcome = make_session(alu_netlist, vega_library, config=config).run()
        assert outcome.report.ticks > outcome.report.devices // 4
        assert _sha(outcome.log.to_jsonl()) == "3b4b5d8068a3418a"
        assert _sha(outcome.report.to_json()) == "9d6c250bc3c82ed0"


# ---------------------------------------------------------------------
# Service bookkeeping: config validation, retire accounting
# ---------------------------------------------------------------------
class TestSchedulerConfig:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, batch_size):
        # A zero batch would slice no requests on every tick and never
        # drain the fleet.
        with pytest.raises(ValueError, match="batch_size"):
            SchedulerConfig(batch_size=batch_size)

    @pytest.mark.parametrize("field", ["checkpoint_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            SchedulerConfig(**{field: value})


class TestDrainRetireSymmetry:
    def test_each_retired_device_is_logged_once(
        self, alu_netlist, vega_library
    ):
        # 40 devices in batches of 4 retire from the parked pool, the
        # returning pool and the planner; each path logs one record.
        config = dataclasses.replace(CONFIG, devices=40)
        outcome = make_session(alu_netlist, vega_library, config=config).run()
        retired = [
            r["attrs"]
            for r in outcome.log.records
            if r.get("name") == "retire"
        ]
        devices = [attrs["device"] for attrs in retired]
        assert devices and len(devices) == len(set(devices))
        devices = outcome.belief.snapshot()["devices"]
        for attrs in retired:
            assert attrs["detected"] == devices[attrs["device"]]["detected"]

    def test_dispatch_arm_helper_is_gone(self):
        assert not hasattr(DetectionService, "dispatch_arm")

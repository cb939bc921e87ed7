"""Tests for the online fleet scheduler (repro.scheduler)."""

import asyncio
import dataclasses
import json

import pytest

from repro.campaign.fleet import sample_fleet
from repro.core.artifacts import ArtifactCache
from repro.core.config import (
    CampaignConfig,
    ErrorLiftingConfig,
    SchedulerConfig,
)
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.scheduler import (
    DetectionService,
    EventLog,
    FleetBelief,
    ResultEvent,
    RetryAfter,
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

from oracles import fold_event_stream

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
    batch_window=3,
    ingest_queue=8,
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
        belief = FleetBelief(fleet, _classes(), cycle_budget=1000)
        device = fleet[0].device_id
        label = _classes()[0]
        arm = ArmSpec("case:x", "case", label, 40, 0)
        before = belief.mean(device, label)
        belief.record_outcome(device, arm, False, 40)
        assert belief.mean(device, label) < before
        assert belief.devices[device].spent_cycles == 40
        assert not belief.devices[device].detected

        belief.record_outcome(device, arm, True, 35, detected_by="x")
        state = belief.devices[device]
        assert state.detected and state.detected_by == "x"
        assert state.detected_cycles == 75  # cumulative cycles at hit
        # Fleet-level evidence moved too.
        assert belief.fleet_posteriors[label] == [1.0, 1.0]

    def test_candidates_respect_budget_and_run_counts(self):
        fleet = _fleet()
        belief = FleetBelief(fleet, _classes(), cycle_budget=100)
        device = fleet[0].device_id
        arms = [
            ArmSpec("a", "case", _classes()[0], 60, 0),
            ArmSpec("b", "case", _classes()[1], 300, 1),  # over budget
        ]
        assert [a.name for a in belief.candidates(device, arms)] == ["a"]
        belief.record_dispatch(device, arms[0])
        assert belief.candidates(device, arms) == []
        assert belief.device_done(device, arms)

    def test_snapshot_roundtrip_is_exact(self):
        fleet = _fleet()
        belief = FleetBelief(fleet, _classes(), cycle_budget=500)
        arm = ArmSpec("a", "case", _classes()[0], 10, 0)
        belief.record_dispatch(fleet[0].device_id, arm)
        belief.record_outcome(fleet[0].device_id, arm, True, 10)
        clone = FleetBelief.from_json(belief.to_json())
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
        "name", ["sequential", "greedy", "thompson", "round_robin"]
    )
    def test_policies_are_deterministic(self, name):
        fleet = _fleet()
        arms = self._arms()
        requests = self._requests(fleet)
        schedules = []
        for _ in range(2):
            belief = FleetBelief(fleet, _classes(), cycle_budget=1000)
            policy = make_policy(name, seed=5)
            schedules.append(
                policy.plan(belief, arms, requests, tick=3)
            )
        first, second = schedules
        assert [d.as_record() for d in first.dispatches] == [
            d.as_record() for d in second.dispatches
        ]

    def test_sequential_walks_catalogue_order(self):
        fleet = _fleet()
        arms = self._arms()
        belief = FleetBelief(fleet, _classes(), cycle_budget=1000)
        policy = make_policy("sequential")
        schedule = policy.plan(
            belief, arms, self._requests(fleet), tick=1
        )
        assert {d.arm for d in schedule.dispatches} == {"case:0"}

    def test_thompson_draws_depend_on_seed_stream(self):
        fleet = _fleet()
        arms = self._arms()
        belief = FleetBelief(fleet, _classes(), cycle_budget=1000)
        requests = self._requests(fleet)
        picks = {
            seed: tuple(
                d.arm
                for d in make_policy("thompson", seed)
                .plan(belief, arms, requests, tick=1)
                .dispatches
            )
            for seed in range(12)
        }
        # Some seed must explore off the greedy pick.
        assert len(set(picks.values())) > 1

    def test_plan_retires_exhausted_devices(self):
        fleet = _fleet()
        arms = self._arms()
        belief = FleetBelief(fleet, _classes(), cycle_budget=1000)
        for arm in arms:
            belief.record_dispatch(fleet[0].device_id, arm)
        schedule = make_policy("greedy").plan(
            belief, arms, self._requests(fleet), tick=1
        )
        assert fleet[0].device_id in schedule.retired

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("nonesuch")


# ---------------------------------------------------------------------
# Service mechanics (no fleet execution needed)
# ---------------------------------------------------------------------
def _service(queue=2):
    fleet = _fleet()
    belief = FleetBelief(fleet, _classes(), cycle_budget=1000)
    arms = [ArmSpec("a", "case", _classes()[0], 10, 0)]
    sched = dataclasses.replace(SCHED, ingest_queue=queue)
    return DetectionService(
        belief=belief,
        arms=arms,
        policy=make_policy("sequential"),
        config=sched,
        log=EventLog(run_id="test"),
    ), fleet


class TestServiceMechanics:
    def test_full_ingest_queue_raises_retry_after(self):
        service, fleet = _service(queue=2)

        async def drive():
            for k in range(2):
                await service.submit_result(
                    ResultEvent(
                        device_id=fleet[k].device_id,
                        device_index=fleet[k].index,
                        arm="a",
                        class_label=_classes()[0],
                        detected=False,
                        stalled=False,
                        cycles=10,
                    )
                )
            with pytest.raises(RetryAfter) as exc:
                await service.submit_result(
                    ResultEvent(
                        device_id=fleet[2].device_id,
                        device_index=fleet[2].index,
                        arm="a",
                        class_label=_classes()[0],
                        detected=False,
                        stalled=False,
                        cycles=10,
                    )
                )
            assert exc.value.retry_after >= 1

        asyncio.run(drive())

    def test_retry_after_scales_with_queue_occupancy(self):
        # Regression: the hint used to be a constant 1, so every
        # client of a saturated service retried on the very next pass.
        service, fleet = _service(queue=12)

        def event(k):
            dev = fleet[k % len(fleet)]
            return ResultEvent(
                device_id=dev.device_id,
                device_index=dev.index,
                arm="a",
                class_label=_classes()[0],
                detected=False,
                stalled=False,
                cycles=10,
            )

        hints = []

        async def drive():
            for k in range(12):
                await service.submit_result(event(k))
                hints.append(service._retry_hint())
            with pytest.raises(RetryAfter) as exc:
                await service.submit_result(event(12))
            assert exc.value.retry_after == hints[-1]

        asyncio.run(drive())
        # Monotone non-decreasing in occupancy, strictly larger for a
        # full queue than a near-empty one.
        assert hints == sorted(hints)
        assert hints[-1] > hints[0]

    def test_fuller_service_advertises_longer_backoff(self):
        def saturate(queue):
            service, fleet = _service(queue=queue)

            async def drive():
                for k in range(queue):
                    await service.submit_result(
                        ResultEvent(
                            device_id=fleet[k % len(fleet)].device_id,
                            device_index=fleet[k % len(fleet)].index,
                            arm="a",
                            class_label=_classes()[0],
                            detected=False,
                            stalled=False,
                            cycles=10,
                        )
                    )
                with pytest.raises(RetryAfter) as exc:
                    await service.submit_result(
                        ResultEvent(
                            device_id=fleet[0].device_id,
                            device_index=fleet[0].index,
                            arm="a",
                            class_label=_classes()[0],
                            detected=False,
                            stalled=False,
                            cycles=10,
                        )
                    )
                return exc.value.retry_after

            return asyncio.run(drive())

        assert saturate(12) > saturate(4) >= 1

    def test_checkpoint_state_roundtrips_belief(self):
        service, fleet = _service()
        arm = service.arms[0]
        service.belief.record_outcome(
            fleet[0].device_id, arm, True, 10, detected_by="a"
        )
        state = service.checkpoint_state()
        restored = FleetBelief.from_snapshot(state["belief"])
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

    @pytest.mark.parametrize(
        "batch_size,batch_window,ingest_queue",
        [(16, 3, 32), (4, 3, 8), (2, 1, 2), (3, 0, 1)],
    )
    def test_live_equals_replay_at_any_configuration(
        self, alu_netlist, vega_library, batch_size, batch_window,
        ingest_queue,
    ):
        sched = dataclasses.replace(
            SCHED,
            batch_size=batch_size,
            batch_window=batch_window,
            ingest_queue=ingest_queue,
        )
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


# ---------------------------------------------------------------------
# Service bookkeeping: retry hints, drain accounting
# ---------------------------------------------------------------------
class TestRetryHintInFlight:
    def test_hint_accounts_for_outstanding_batch(self):
        service, fleet = _service()
        batch = SCHED.batch_size
        # Saturate the buffer and put a full batch in flight.
        service._buffer = [object()] * batch
        service._outstanding = {
            spec.device_id: None for spec in fleet[:batch]
        }
        hint = service._retry_hint()
        # One pass to drain the backlog + one for the in-flight batch.
        assert hint == 2
        # The old hint ignored the in-flight batch entirely: with the
        # window at zero it said 1 — an immediate re-collision.
        service._window = 0
        assert hint > 1

    def test_hint_monotone_in_outstanding_depth(self):
        service, fleet = _service()
        service._buffer = [object()] * 4
        hints = []
        for depth in (0, 4, 8):
            service._outstanding = {
                spec.device_id: None for spec in fleet[:depth]
            }
            service._window = SCHED.batch_window  # window exhausted
            hints.append(service._retry_hint())
        assert hints == sorted(hints)
        assert hints[-1] > hints[0]

    def test_hint_keeps_window_deadline_when_idle(self):
        service, _ = _service()
        service._buffer = [object()] * 2
        service._outstanding = {}
        service._window = 1
        # ceil(2/4) backlog + (3 - 1) window remainder
        assert service._retry_hint() == 1 + (SCHED.batch_window - 1)


class TestDrainRetireSymmetry:
    def test_drain_path_logs_retire_like_planner(self):
        service, fleet = _service()
        service.request_shutdown()
        dispatch = asyncio.run(
            service.request_plan(fleet[0].device_id, fleet[0].index)
        )
        assert dispatch is None
        retires = [
            r
            for r in service.log.records
            if r.get("name") == "retire"
        ]
        assert len(retires) == 1
        assert retires[0]["attrs"]["device"] == fleet[0].device_id
        assert retires[0]["attrs"]["detected"] is False

    def test_stopped_service_does_not_log(self):
        service, fleet = _service()
        service._stopped = True
        assert (
            asyncio.run(
                service.request_plan(fleet[0].device_id, fleet[0].index)
            )
            is None
        )
        assert not any(
            r.get("name") == "retire" for r in service.log.records
        )

    def test_dispatch_arm_helper_is_gone(self):
        assert not hasattr(DetectionService, "dispatch_arm")

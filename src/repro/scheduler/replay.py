"""Driving the service against a campaign fleet, and exact replay.

:class:`ScheduleSession` is the scheduler-side sibling of
:class:`~repro.campaign.engine.CampaignEngine`: it samples the same
virtual fleet (same ``campaign.fleet`` RNG streams, so a campaign and a
scheduled run over one config see identical devices) and serves it with
:class:`~repro.scheduler.service.DetectionService`, each device carrying
its ground-truth failure model.

Dispatched arms execute through the campaign's
:class:`~repro.campaign.engine.DeviceRunner` — per-case arms run
single-test :class:`~repro.integration.library_gen.AgingLibrary`
suites, baseline arms reuse :meth:`DeviceRunner.suite_outcome` — with
outcomes memoized under :func:`~repro.campaign.engine.
device_outcome_key`, the same fleet-level dedup the offline campaign
uses.

Because the whole stack is deterministic (sampled fleet, measured arm
costs, named policy RNG streams, logical-time service), *replay is
re-execution*: :meth:`ScheduleSession.run` produces the identical
event log and belief every time, and :func:`verify_replay` pins that
down by re-running and diffing the logs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign.engine import DeviceRunner, device_outcome_key
from ..campaign.fleet import DeviceSpec, fleet_digest, sample_fleet
from ..core import lifetime, telemetry
from ..core.artifacts import ArtifactCache
from ..core.config import CampaignConfig, SchedulerConfig
from ..integration.library_gen import AgingLibrary
from ..lifting.models import FailureModel
from ..netlist.netlist import Netlist
from .belief import BROAD_CLASS, ArmSpec, FleetBelief, arms_digest
from .policy import Dispatch, make_policy
from .service import DetectionService, EventLog, ResultEvent


@dataclass
class ScheduleReport:
    """Aggregated outcome of one scheduled run (JSON round-trippable).

    Like :class:`~repro.campaign.report.CampaignReport`, only inputs
    that are identical for any execution interleaving enter — the
    restart-safety test compares an interrupted-and-resumed run's
    report against an uninterrupted one's, field for field.
    """

    unit: str
    policy: str
    policy_seed: int
    devices: int
    faulty: int
    detected: int
    escapes: int
    ticks: int
    events: int
    cycle_budget: int
    total_spent_cycles: int
    #: Mean cycles-to-first-detection over detected faulty devices.
    mean_ttd_cycles: Optional[float]
    #: Same mean with escapes charged the full cycle budget — the
    #: number that penalizes a policy for missing devices.
    penalized_ttd_cycles: Optional[float]
    rows: List[dict] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "unit": self.unit,
            "policy": self.policy,
            "policy_seed": self.policy_seed,
            "devices": self.devices,
            "faulty": self.faulty,
            "detected": self.detected,
            "escapes": self.escapes,
            "ticks": self.ticks,
            "events": self.events,
            "cycle_budget": self.cycle_budget,
            "total_spent_cycles": self.total_spent_cycles,
            "mean_ttd_cycles": self.mean_ttd_cycles,
            "penalized_ttd_cycles": self.penalized_ttd_cycles,
            "rows": self.rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScheduleReport":
        data = json.loads(text)
        return cls(**{name: data[name] for name in (
            "unit", "policy", "policy_seed", "devices", "faulty",
            "detected", "escapes", "ticks", "events", "cycle_budget",
            "total_spent_cycles", "mean_ttd_cycles",
            "penalized_ttd_cycles", "rows",
        )})

    def summary_lines(self) -> List[str]:
        lines = [
            f"scheduler report — unit={self.unit} policy={self.policy} "
            f"seed={self.policy_seed}",
            f"  devices={self.devices} faulty={self.faulty} "
            f"detected={self.detected} escapes={self.escapes}",
            f"  ticks={self.ticks} events={self.events} "
            f"spent_cycles={self.total_spent_cycles}",
        ]
        if self.mean_ttd_cycles is not None:
            lines.append(
                f"  mean time-to-detection: {self.mean_ttd_cycles:.1f} "
                f"cycles (penalized {self.penalized_ttd_cycles:.1f}, "
                f"budget {self.cycle_budget})"
            )
        else:
            lines.append(
                f"  mean time-to-detection: n/a (budget "
                f"{self.cycle_budget})"
            )
        return lines

    @classmethod
    def from_state(
        cls,
        unit: str,
        policy: str,
        policy_seed: int,
        fleet: Sequence[DeviceSpec],
        belief: FleetBelief,
        ticks: int,
        events: int,
    ) -> "ScheduleReport":
        devices = belief.snapshot()["devices"]
        rows = []
        detections: List[int] = []
        penalized: List[int] = []
        detected = escapes = faulty = 0
        total_spent = 0
        for spec in fleet:
            device = devices[spec.device_id]
            total_spent += device["spent_cycles"]
            if spec.faulty:
                faulty += 1
                if device["detected"]:
                    detected += 1
                    detections.append(device["detected_cycles"])
                    penalized.append(device["detected_cycles"])
                else:
                    escapes += 1
                    penalized.append(belief.cycle_budget)
            rows.append(
                {
                    "device": spec.device_id,
                    "corner": spec.corner,
                    "faulty": spec.faulty,
                    "model": spec.model_label,
                    "detected": device["detected"],
                    "detected_by": device["detected_by"],
                    "detected_cycles": device["detected_cycles"],
                    "spent_cycles": device["spent_cycles"],
                    "dispatches": device["dispatches"],
                }
            )
        return cls(
            unit=unit,
            policy=policy,
            policy_seed=policy_seed,
            devices=len(fleet),
            faulty=faulty,
            detected=detected,
            escapes=escapes,
            ticks=ticks,
            events=events,
            cycle_budget=belief.cycle_budget,
            total_spent_cycles=total_spent,
            mean_ttd_cycles=(
                sum(detections) / len(detections) if detections else None
            ),
            penalized_ttd_cycles=(
                sum(penalized) / len(penalized) if penalized else None
            ),
            rows=rows,
        )


@dataclass
class ScheduleOutcome:
    """Everything one :meth:`ScheduleSession.run` produced."""

    report: ScheduleReport
    log: EventLog
    belief: FleetBelief
    fleet: List[DeviceSpec]
    checkpoint_key: str
    killed: bool = False
    resumed: bool = False


class FleetAdapter:
    """Executes dispatched arms on the fleet's simulated devices.

    Wraps the campaign's :class:`DeviceRunner` so gate-level backends
    and assembled programs are built once per session and shared.
    Instrumented netlists (and their compiled simulators) outlive the
    session: the runner reads them from the process-wide memo, so a
    second session over the same golden netlist object builds none.
    Per-arm outcomes are memoized under :func:`device_outcome_key` —
    devices carrying the same failure model replay the same simulation
    result instead of re-running it.
    """

    def __init__(self, runner: DeviceRunner, library: AgingLibrary):
        self.runner = runner
        self.library = library
        self._case_libraries: Dict[str, AgingLibrary] = {
            case.name: AgingLibrary(
                name=f"{library.name}__arm_{case.name}",
                test_cases=[case],
            )
            for case in library.test_cases
        }
        self._memo: Dict[tuple, ResultEvent] = {}

    def execute(self, spec: DeviceSpec, dispatch: Dispatch) -> ResultEvent:
        key = (device_outcome_key(spec), dispatch.arm)
        memo = self._memo.get(key)
        if memo is not None:
            telemetry.add("scheduler.outcome_memo_hits")
            return replace(memo, device_id=spec.device_id)
        result = self._execute_fresh(spec, dispatch)
        self._memo[key] = result
        return result

    def _execute_fresh(
        self, spec: DeviceSpec, dispatch: Dispatch
    ) -> ResultEvent:
        config = self.runner.config
        if dispatch.kind == "case":
            case_library = self._case_libraries[
                dispatch.arm.split(":", 1)[1]
            ]
            verdict = case_library.run_suite(
                strategy=config.strategy,
                max_instructions=config.max_suite_instructions,
                **self.runner.backends(spec),
            )
            detected_by = (
                verdict.detected_by
                or (case_library.test_cases[0].name
                    if verdict.detected else None)
            )
            return ResultEvent(
                device_id=spec.device_id,
                arm=dispatch.arm,
                detected=verdict.detected,
                stalled=verdict.stalled,
                cycles=verdict.cycles,
                detected_by=detected_by,
            )
        outcome = self.runner.suite_outcome(dispatch.kind, spec)
        return ResultEvent(
            device_id=spec.device_id,
            arm=dispatch.arm,
            detected=outcome.detected,
            stalled=outcome.stalled,
            cycles=outcome.cycles,
            detected_by=outcome.detected_by,
        )


def build_arms(
    library: AgingLibrary, runner: DeviceRunner
) -> List[ArmSpec]:
    """The arm catalogue: one arm per vega case, one per baseline suite.

    Costs are *measured* on the golden model (the cycles a healthy
    device would spend), in the same spirit as
    ``ProfileGuidedIntegrator.estimate_overhead``.
    """
    config = runner.config
    arms: List[ArmSpec] = []
    if "vega" in config.suites:
        costs = library.case_cycle_costs()
        for case in library.test_cases:
            arms.append(
                ArmSpec(
                    name=f"case:{case.name}",
                    kind="case",
                    class_label=case.model.label,
                    cost_cycles=costs[case.name],
                    index=len(arms),
                )
            )
    if "random" in config.suites and runner.random_library is not None:
        arms.append(
            ArmSpec(
                name="suite:random",
                kind="random",
                class_label=BROAD_CLASS,
                cost_cycles=runner.random_library.suite_cycles(
                    config.strategy
                ),
                index=len(arms),
            )
        )
    if "silifuzz" in config.suites and runner.snapshot_programs:
        golden = runner._fuzz.detects(
            runner.snapshots, programs=runner.snapshot_programs
        )
        arms.append(
            ArmSpec(
                name="suite:silifuzz",
                kind="silifuzz",
                class_label=BROAD_CLASS,
                cost_cycles=int(golden["cycles"]),
                index=len(arms),
            )
        )
    if not arms:
        raise ValueError(
            "no dispatchable arms: campaign config enables no suites"
        )
    return arms


class ScheduleSession:
    """One scheduled detection run over a sampled fleet."""

    def __init__(
        self,
        netlist: Netlist,
        unit: str,
        library: AgingLibrary,
        failing_models: Sequence[FailureModel],
        config: Optional[CampaignConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
        cache: Optional[ArtifactCache] = None,
        base_onset_years: Optional[float] = None,
    ):
        self.netlist = netlist
        self.unit = unit
        self.library = library
        self.failing_models = list(failing_models)
        self.config = config or CampaignConfig()
        self.scheduler = scheduler or SchedulerConfig()
        self.cache = cache
        if base_onset_years is None:
            base_onset_years = lifetime.base_onset_years(self.config)
        self.base_onset_years = float(base_onset_years)

    @classmethod
    def for_unit(
        cls,
        unit_experiment,
        config: Optional[CampaignConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
        cache: Optional[ArtifactCache] = None,
        mitigation: bool = False,
    ) -> "ScheduleSession":
        """Session over a :class:`~repro.core.experiments.UnitExperiment`
        (the same pipeline reuse and base onset as
        :meth:`CampaignEngine.for_unit`, so both sample one fleet)."""
        config = config or CampaignConfig()
        base = lifetime.base_onset_years(config, unit_experiment)
        return cls(
            unit_experiment.netlist,
            unit_experiment.unit,
            unit_experiment.suite(mitigation),
            unit_experiment.failure_models(),
            config=config,
            scheduler=scheduler,
            cache=cache,
            base_onset_years=base,
        )

    # -- identity -------------------------------------------------------
    def session_key(self, fleet: Sequence[DeviceSpec]) -> str:
        """Content-addressed identity of this scheduled run.

        Every input that changes the trajectory enters — including the
        batch size, because it changes the order evidence arrives in
        and therefore the belief's path (unlike the campaign's
        ``workers``, which never does).
        """
        config = self.config
        sched = self.scheduler
        return ArtifactCache.digest(
            "scheduler",
            self.netlist.structural_hash(),
            self.unit,
            [
                config.seed,
                config.devices,
                list(config.suites),
                config.strategy,
                config.mission_years,
                config.onset_sigma,
                config.worst_corner_fraction,
                config.random_suite_size,
                config.silifuzz_snapshots,
                config.max_suite_instructions,
            ],
            [
                sched.policy,
                sched.policy_seed,
                sched.batch_size,
                # The deleted batch-window and ingest-queue knobs' values:
                # keeps checkpoint keys and log run ids unchanged.
                4,
                64,
                sched.checkpoint_every,
                sched.cycle_budget,
                sched.fleet_blend,
            ],
            round(self.base_onset_years, 9),
            fleet_digest(fleet),
            self.library.suite_source(config.strategy),
        )

    # -- execution ------------------------------------------------------
    def run(
        self,
        resume: bool = False,
        kill_after_events: Optional[int] = None,
    ) -> ScheduleOutcome:
        """Execute (or resume) the scheduled run to completion.

        ``resume=True`` loads the latest belief checkpoint published
        under the session key and continues from it; without a matching
        checkpoint the run starts fresh.  ``kill_after_events``
        simulates an abrupt service death after that many ingested
        results — no drain, no final checkpoint — for restart-safety
        tests.
        """
        fleet = sample_fleet(
            self.config, self.failing_models, self.base_onset_years
        )
        key = self.session_key(fleet)
        runner = DeviceRunner(
            self.netlist, self.unit, self.config, self.library
        )
        arms = build_arms(self.library, runner)
        adapter = FleetAdapter(runner, self.library)
        classes = sorted({model.label for model in self.failing_models})

        tick = 0
        events = 0
        resumed = False
        belief: Optional[FleetBelief] = None
        if resume and self.cache is not None:
            state = self.cache.load_checkpoint(key)
            # A state whose belief is not canonical text (an older
            # format stored the snapshot dict) is a miss: start fresh.
            if (
                isinstance(state, dict)
                and isinstance(state.get("belief"), str)
                and state.get("arms") == arms_digest(arms)
                and state.get("policy") == self.scheduler.policy
                and state.get("policy_seed") == self.scheduler.policy_seed
            ):
                belief = FleetBelief.from_snapshot(
                    json.loads(state["belief"]), arms
                )
                tick = int(state["tick"])
                events = int(state["events_ingested"])
                resumed = True
                telemetry.event(
                    "scheduler.resumed", tick=tick, events=events
                )
        if belief is None:
            belief = FleetBelief(
                fleet,
                arms,
                classes,
                cycle_budget=self.scheduler.cycle_budget,
                fleet_blend=self.scheduler.fleet_blend,
            )

        policy = make_policy(
            self.scheduler.policy, self.scheduler.policy_seed
        )
        log = EventLog(run_id=f"sched-{key[:12]}")
        service = DetectionService(
            belief=belief,
            policy=policy,
            config=self.scheduler,
            log=log,
            cache=self.cache,
            checkpoint_key=key,
            tick=tick,
            events_ingested=events,
            kill_after_events=kill_after_events,
        )

        with telemetry.span(
            "scheduler.run",
            unit=self.unit,
            policy=policy.name,
            devices=len(fleet),
            arms=len(arms),
        ) as span:
            done = belief.done_mask().tolist()
            active = [
                spec for spec in fleet if not done[belief.row[spec.device_id]]
            ]
            service.run(active, adapter.execute)
            if span is not None:
                span.annotate(
                    ticks=service.tick,
                    events=service.events_ingested,
                    resumed=resumed,
                )

        report = ScheduleReport.from_state(
            self.unit,
            policy.name,
            policy.seed,
            fleet,
            belief,
            ticks=service.tick,
            events=service.events_ingested,
        )
        return ScheduleOutcome(
            report=report,
            log=log,
            belief=belief,
            fleet=list(fleet),
            checkpoint_key=key,
            killed=kill_after_events is not None
            and service.events_ingested >= kill_after_events,
            resumed=resumed,
        )


def verify_replay(
    session: ScheduleSession, reference: ScheduleOutcome
) -> Tuple[bool, ScheduleOutcome]:
    """Re-execute a session and compare event logs byte for byte.

    Returns ``(matches, replayed_outcome)`` — the reproducibility check
    behind ``repro schedule --verify-replay`` and the CI smoke step.
    """
    replayed = session.run()
    matches = (
        replayed.log.to_jsonl() == reference.log.to_jsonl()
        and replayed.belief.digest() == reference.belief.digest()
    )
    return matches, replayed

"""The detection service: one synchronous dispatch loop, checkpoints.

:class:`DetectionService` is the fleet-side half of the paper's
"proactive runtime detection" story: devices get their next test, run
it during idle cycles, and report the verdict back; the service folds
verdicts into the :class:`~repro.scheduler.belief.FleetBelief` and
plans the next dispatches with a :class:`~repro.scheduler.policy.Policy`.

The service runs on **logical time**: one *tick* is one planning round,
and no wall-clock value ever enters the decision path or the event
log.  Every device is executed in-process by a caller-supplied
function, so a run is a deterministic function of (fleet, arms,
policy, seed, scheduler config) — live execution and replay produce
byte-identical event logs.

Each round of :meth:`DetectionService.run`:

* **Retire** — parked devices that are done (detected, or nothing left
  within budget) get a ``retire`` record and leave the pool.
* **Batch** — the live devices, sorted by index, fill a batch of up to
  ``batch_size``; the rest stay parked.  Devices whose results just came
  back rejoin the pool before planning when the parked devices alone
  cannot fill a batch, and otherwise wait one round behind them.
* **Plan and execute** — the policy plans the batch; each dispatched
  device runs its arm and its result is folded in, in device order.
* **Checkpoint** — every ``checkpoint_every`` ingested results (at a
  tick boundary, so no half-processed state exists) the full belief
  snapshot publishes through :class:`~repro.core.artifacts.
  ArtifactCache.store_checkpoint` under a content-addressed key.  A
  killed service restarted from the checkpoint continues without
  replaying the event log.
* **Drain** — once the fleet is retired, a final checkpoint is written
  and the log closes with a ``drain`` event.

The event log is TRACE_SCHEMA JSONL (meta line, ``event`` records with
the tick as ``t_s``, closing ``counters`` line), so ``repro trace
summarize`` and :func:`~repro.core.telemetry.parse_trace` work on it
unchanged.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..campaign.fleet import DeviceSpec
from ..core import telemetry
from ..core.artifacts import ArtifactCache
from ..core.config import SchedulerConfig
from ..core.telemetry import TRACE_SCHEMA
from .belief import FleetBelief, arms_digest
from .policy import Dispatch, PlanRequest, Policy


@dataclass(frozen=True)
class ResultEvent:
    """One detection outcome of a dispatched arm on a device."""

    device_id: str
    arm: str
    detected: bool
    stalled: bool
    cycles: int
    detected_by: Optional[str] = None


class EventLog:
    """Deterministic JSONL event log (TRACE_SCHEMA-compatible).

    Unlike :class:`~repro.core.telemetry.Telemetry` this log carries no
    wall-clock timestamps: ``t_s`` is the logical tick, the run id is
    derived from the run's content identity, and only semantic records
    (dispatch/result/checkpoint/retire/drain) enter.  That is what lets
    a live run and its replay be compared byte for byte.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: List[dict] = [
            {"type": "meta", "schema": TRACE_SCHEMA, "run_id": run_id}
        ]
        self.counters: Dict[str, int] = {}

    def event(self, name: str, tick: int, **attrs: object) -> None:
        self.records.append(
            {"type": "event", "name": name, "t_s": tick, "attrs": attrs}
        )
        self.counters[f"scheduler.{name}"] = (
            self.counters.get(f"scheduler.{name}", 0) + 1
        )

    def trace_records(self) -> List[dict]:
        return self.records + [
            {"type": "counters", "counters": dict(self.counters)}
        ]

    def to_jsonl(self) -> str:
        out = io.StringIO()
        for record in self.trace_records():
            out.write(json.dumps(record, sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def write_jsonl(self, path: str) -> None:
        # The tmp name carries the pid: concurrent processes may
        # publish logs under the same path, and a shared
        # f"{path}.tmp" would let two writers clobber each other's
        # half-written file before the rename.  fsync before
        # os.replace so the atomic rename never publishes an empty or
        # partially flushed log after a crash.
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fp:
            fp.write(self.to_jsonl())
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)


class ServiceKilled(Exception):
    """Raised internally when a simulated kill point is reached."""


class DetectionService:
    """Synchronous scheduler service over one fleet.

    :meth:`run` serves a list of devices to completion, calling
    ``execute(spec, dispatch)`` for every dispatched arm (see
    :class:`repro.scheduler.replay.FleetAdapter`).  The arms are the
    belief's catalogue.  ``kill_after_events`` is a simulated kill
    switch: the service drops dead (no drain, no final checkpoint) once
    that many events have been ingested.
    """

    def __init__(
        self,
        belief: FleetBelief,
        policy: Policy,
        config: SchedulerConfig,
        log: EventLog,
        cache: Optional[ArtifactCache] = None,
        checkpoint_key: Optional[str] = None,
        tick: int = 0,
        events_ingested: int = 0,
        kill_after_events: Optional[int] = None,
    ):
        self.belief = belief
        self._arms_by_name = {arm.name: arm for arm in belief.arms}
        self.policy = policy
        self.config = config
        self.log = log
        self.cache = cache
        self.checkpoint_key = checkpoint_key
        self.tick = int(tick)
        self.events_ingested = int(events_ingested)
        self._last_checkpoint = self.events_ingested
        self.kill_after_events = kill_after_events

    def run(
        self,
        specs: Sequence[DeviceSpec],
        execute: Callable[[DeviceSpec, Dispatch], ResultEvent],
    ) -> None:
        """Serve ``specs`` until every device is retired, then drain.

        A simulated kill returns at once: belief and log stay as they
        are, and the periodic checkpoints are the only survivors.
        """
        try:
            self._serve(specs, execute)
        except ServiceKilled:
            return
        self._maybe_checkpoint(force=True)
        self.log.event(
            "drain",
            self.tick,
            events_ingested=self.events_ingested,
            belief=self.belief.digest(),
        )

    def _serve(self, specs, execute) -> None:
        # ``parked`` waits for a batch; ``back`` holds the devices whose
        # results the last tick folded in.
        parked: List[DeviceSpec] = list(specs)
        back: List[DeviceSpec] = []
        while True:
            live = self._retire_done(parked)
            if not live and self.belief.all_done():
                return
            size = self.config.batch_size
            if back and len(live) < min(
                size, self.belief.active_count()
            ):
                live += self._retire_done(back)
                back = []
                if not live:
                    return
            live.sort(key=lambda spec: spec.index)
            parked = live[size:] + back
            back = self._tick(live[:size], execute)
            self._maybe_checkpoint()

    def _retire_done(self, specs: List[DeviceSpec]) -> List[DeviceSpec]:
        """Log a ``retire`` for each done device; return the rest."""
        done = self.belief.done_mask().tolist()
        row = self.belief.row
        live = []
        for spec in specs:
            if done[row[spec.device_id]]:
                self._log_retire(spec.device_id)
            else:
                live.append(spec)
        return live

    def _tick(self, batch, execute) -> List[DeviceSpec]:
        """Plan one batch, execute it, fold the results in; returns the
        devices that ran."""
        self.tick += 1
        schedule = self.policy.plan(
            self.belief,
            [PlanRequest(spec.device_id, spec.index) for spec in batch],
            self.tick,
        )
        by_device = {d.device_id: d for d in schedule.dispatches}
        dispatched = []
        for spec in batch:
            dispatch = by_device.get(spec.device_id)
            if dispatch is None:
                self._log_retire(spec.device_id)
                continue
            self.belief.record_dispatch(
                spec.device_id, self._arms_by_name[dispatch.arm]
            )
            self.log.event(
                "dispatch",
                self.tick,
                device=spec.device_id,
                arm=dispatch.arm,
                kind=dispatch.kind,
                cost_cycles=dispatch.cost_cycles,
                policy=self.policy.name,
            )
            telemetry.add("scheduler.dispatches")
            dispatched.append((spec, dispatch))
        # Every dispatched device runs its arm before the first result
        # folds in, as concurrent devices would.
        results = [execute(spec, dispatch) for spec, dispatch in dispatched]
        for result in results:
            self._ingest(result)
        return [spec for spec, _ in dispatched]

    def _ingest(self, result: ResultEvent) -> None:
        self.belief.record_outcome(
            result.device_id,
            self._arms_by_name[result.arm],
            result.detected,
            result.cycles,
            detected_by=result.detected_by,
        )
        self.events_ingested += 1
        self.log.event(
            "result",
            self.tick,
            device=result.device_id,
            arm=result.arm,
            detected=result.detected,
            stalled=result.stalled,
            cycles=result.cycles,
            detected_by=result.detected_by,
            seq=self.events_ingested,
        )
        telemetry.add("scheduler.results")
        if (
            self.kill_after_events is not None
            and self.events_ingested >= self.kill_after_events
        ):
            raise ServiceKilled()

    def _log_retire(self, device_id: str) -> None:
        self.log.event(
            "retire",
            self.tick,
            device=device_id,
            detected=bool(self.belief.detected[self.belief.row[device_id]]),
        )

    # -- checkpoints ---------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Everything a restarted service needs to resume."""
        return {
            "belief": self.belief.snapshot(),
            "tick": self.tick,
            "events_ingested": self.events_ingested,
            "arms": arms_digest(self.belief.arms),
            "policy": self.policy.name,
            "policy_seed": self.policy.seed,
        }

    def _maybe_checkpoint(self, force: bool = False) -> None:
        due = (
            self.events_ingested - self._last_checkpoint
            >= self.config.checkpoint_every
        )
        if not (due or (force and self.events_ingested
                        > self._last_checkpoint)):
            return
        self._last_checkpoint = self.events_ingested
        digest = self.belief.digest()
        if self.cache is not None and self.checkpoint_key is not None:
            self.cache.store_checkpoint(
                self.checkpoint_key, self.checkpoint_state()
            )
            telemetry.add("scheduler.checkpoints")
        self.log.event(
            "checkpoint",
            self.tick,
            events_ingested=self.events_ingested,
            belief=digest,
        )

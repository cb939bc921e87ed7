"""The online detection service: dispatch loop, ingestion, checkpoints.

:class:`DetectionService` is the fleet-side half of the paper's
"proactive runtime detection" story run as an *online* system: devices
ask for their next test, run it during idle cycles, and stream the
verdict back; the service folds verdicts into the
:class:`~repro.scheduler.belief.FleetBelief` and plans the next
dispatches with a :class:`~repro.scheduler.policy.Policy`.

The service is an asyncio event loop with **logical time**: one *tick*
is one planning round, and no wall-clock value ever enters the
decision path or the event log.  Because every client in this repo is
pure computation driven by the same single-threaded loop, a run is a
deterministic function of (fleet, arms, policy, seed, scheduler
config) — live execution and replay produce byte-identical event logs.

Operational mechanics:

* **Batching** — plan requests accumulate until ``batch_size`` devices
  are waiting (or the ``batch_window`` grace, counted in scheduler
  passes, elapses with a partial batch).  Results for a batch must all
  be ingested before the next batch plans, so ticks are strictly
  ordered.
* **Backpressure** — the ingest buffer is bounded at ``ingest_queue``;
  a submit against a full buffer raises :class:`RetryAfter` telling the
  client how many passes to back off.  Rejections are operational
  noise, not semantics: they count into :mod:`repro.core.telemetry`,
  never into the canonical event log.
* **Checkpoints** — every ``checkpoint_every`` ingested results (at a
  tick boundary, so no half-processed state exists) the full belief
  snapshot publishes through :class:`~repro.core.artifacts.
  ArtifactCache.store_checkpoint` under a content-addressed key.  A
  killed service restarted from the checkpoint continues without
  replaying the event log.
* **Drain** — shutdown stops planning, ingests whatever is still in
  flight, resolves waiting clients with "no more work", writes a final
  checkpoint, and closes the log with a ``drain`` event.

The event log is TRACE_SCHEMA JSONL (meta line, ``event`` records with
the tick as ``t_s``, closing ``counters`` line), so ``repro trace
summarize`` and :func:`~repro.core.telemetry.parse_trace` work on it
unchanged.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import telemetry
from ..core.artifacts import ArtifactCache
from ..core.config import SchedulerConfig
from ..core.telemetry import TRACE_SCHEMA
from .belief import ArmSpec, FleetBelief, arms_digest
from .policy import Dispatch, PlanRequest, Policy


class RetryAfter(Exception):
    """Backpressure verdict: the ingest buffer is full.

    ``retry_after`` is the suggested client back-off, in scheduler
    passes (logical time — there are no wall-clock timers anywhere in
    the service).  The service scales it with queue occupancy and the
    batch deadline, so a saturated fleet's clients fan out across
    ticks instead of all retrying on the very next pass.
    """

    def __init__(self, retry_after: int = 1):
        super().__init__(f"ingest queue full; retry after {retry_after}")
        self.retry_after = int(retry_after)


@dataclass(frozen=True)
class ResultEvent:
    """One streamed detection outcome from a device client."""

    device_id: str
    device_index: int
    arm: str
    class_label: str
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
    """Asyncio scheduler service over one fleet.

    Drive it by running :meth:`run` concurrently with client tasks that
    call :meth:`request_plan` / :meth:`submit_result` (see
    :mod:`repro.scheduler.replay` for the simulated clients).
    """

    def __init__(
        self,
        belief: FleetBelief,
        arms: Sequence[ArmSpec],
        policy: Policy,
        config: SchedulerConfig,
        log: EventLog,
        cache: Optional[ArtifactCache] = None,
        checkpoint_key: Optional[str] = None,
        tick: int = 0,
        events_ingested: int = 0,
    ):
        self.belief = belief
        self.arms = list(arms)
        #: name -> ArmSpec, built once; the ingest hot path resolves
        #: every streamed result's arm against this instead of a
        #: linear catalogue scan.
        self._arms_by_name = {arm.name: arm for arm in self.arms}
        self.policy = policy
        self.config = config
        self.log = log
        self.cache = cache
        self.checkpoint_key = checkpoint_key
        self.tick = int(tick)
        self.events_ingested = int(events_ingested)
        self._last_checkpoint = self.events_ingested
        #: Simulated kill switch: drop dead (no drain, no final
        #: checkpoint) once this many events have been ingested.
        self.kill_after_events: Optional[int] = None
        self._waiters: List[Tuple[PlanRequest, asyncio.Future]] = []
        self._outstanding: Dict[str, Dispatch] = {}
        self._buffer: List[ResultEvent] = []
        self._draining = False
        self._stopped = False
        self._window = 0

    # -- client API ----------------------------------------------------
    async def request_plan(
        self, device_id: str, device_index: int
    ) -> Optional[Dispatch]:
        """Ask for the device's next test; None means "retire".

        The request parks until the batch it lands in is planned.
        """
        if self._draining or self._stopped:
            # A drained client retires exactly like one the planner
            # retires: with a logged ``retire`` event.  The two paths
            # used to be asymmetric (the planner logged, this early
            # return did not), so drain accounting depended on *where*
            # a client happened to be when shutdown began.  A stopped
            # (killed or fully drained) service keeps its log closed.
            if self._draining and not self._stopped:
                self._log_retire(device_id)
            return None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(
            (PlanRequest(device_id=device_id, device_index=device_index),
             future)
        )
        return await future

    async def submit_result(self, result: ResultEvent) -> None:
        """Stream one outcome in; raises :class:`RetryAfter` when the
        bounded ingest buffer is full."""
        if self._stopped:
            return  # dead service: drop the result, client will retire
        if len(self._buffer) >= self.config.ingest_queue:
            telemetry.add("scheduler.ingest_rejected")
            raise RetryAfter(retry_after=self._retry_hint())
        self._buffer.append(result)
        telemetry.add("scheduler.ingest_accepted")
        # One pass of cooperative latency so the scheduler loop can
        # drain the buffer before the same client submits again.
        await asyncio.sleep(0)

    def _retry_hint(self) -> int:
        """Back-off hint: scheduler passes until the next drain is
        expected to free ingest capacity.

        The backlog drains in batch-sized planning rounds, so a deeper
        buffer means proportionally more passes before a retried
        submit can land.  On top of that the next drain is deferred by
        whichever is pending: the in-flight batch (its remaining
        results must stream in and ingest before the next plan) or,
        with nothing outstanding, a partial batch's remaining grace
        window.  Monotone non-decreasing in queue occupancy, so a
        saturated fleet's clients spread their retries instead of
        hammering every tick.
        """
        batch = self.config.batch_size
        backlog_passes = -(-len(self._buffer) // batch)  # ceil
        if self._outstanding:
            # Results still in flight: they land in the buffer and
            # ingest batch-wise before capacity frees for a retried
            # submit, so the hint must cover their drain too — the old
            # hint ignored them and saturated clients re-collided on
            # the very next pass.
            deadline = -(-len(self._outstanding) // batch)
        else:
            deadline = max(0, self.config.batch_window - self._window)
        return max(1, backlog_passes + deadline)

    def request_shutdown(self) -> None:
        """Begin a graceful drain: no new batches, finish in-flight."""
        self._draining = True

    # -- scheduler loop ------------------------------------------------
    async def run(self) -> None:
        """Scheduler main loop; returns once the fleet is drained."""
        try:
            while not self._stopped:
                progressed = self._step()
                if self._finished():
                    break
                if not progressed:
                    # Yield so clients can enqueue requests/results.
                    await asyncio.sleep(0)
        except ServiceKilled:
            # Simulated hard kill: leave belief/log state as-is (the
            # periodic checkpoints are the only survivors), but release
            # parked clients so the driving gather() can unwind.
            self._stopped = True
            self._retire_waiters()
            return
        self._drain()

    def _finished(self) -> bool:
        if self._outstanding or self._buffer:
            return False
        if any(not future.done() for _, future in self._waiters):
            return False
        if self._draining:
            return True
        # Nothing in flight and nobody waiting: done exactly when the
        # whole fleet is retired (detected or out of dispatchable
        # arms).  Clients of done devices that have not re-requested
        # yet get their "retire" answer from ``request_plan`` directly
        # once the loop stops.
        return self.belief.all_done(self.arms)

    def _step(self) -> bool:
        """One scheduler pass: ingest, then maybe plan.  Returns
        whether any state advanced."""
        progressed = False
        if self._buffer:
            self._ingest()
            progressed = True
        if not self._outstanding and not self._buffer and not self._draining:
            progressed = self._maybe_plan() or progressed
        elif self._draining and not self._outstanding and not self._buffer:
            self._retire_waiters(log=True)
            progressed = True
        return progressed

    # -- ingestion -----------------------------------------------------
    def _ingest(self) -> None:
        """Fold buffered results into the belief, device order."""
        batch = sorted(self._buffer, key=lambda r: r.device_index)
        self._buffer.clear()
        for result in batch:
            dispatch = self._outstanding.pop(result.device_id, None)
            arm = self._arm_by_name(result.arm)
            self.belief.record_outcome(
                result.device_id,
                arm,
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
            if dispatch is None:
                telemetry.add("scheduler.unmatched_results")
            if (
                self.kill_after_events is not None
                and self.events_ingested >= self.kill_after_events
            ):
                raise ServiceKilled()
        if not self._outstanding:
            self._maybe_checkpoint()

    def _arm_by_name(self, name: str) -> ArmSpec:
        try:
            return self._arms_by_name[name]
        except KeyError:
            raise KeyError(f"unknown arm {name!r}") from None

    # -- planning ------------------------------------------------------
    def _maybe_plan(self) -> bool:
        pending = [
            (request, future)
            for request, future in self._waiters
            if not future.done()
        ]
        if not pending:
            return False
        live: List[Tuple[PlanRequest, asyncio.Future]] = []
        for request, future in pending:
            if self.belief.device_done(request.device_id, self.arms):
                future.set_result(None)
                self._log_retire(request.device_id)
            else:
                live.append((request, future))
        self._waiters = list(live)
        if not live:
            return True
        target = min(self.config.batch_size, self._active_devices())
        if len(live) < target and self._window < self.config.batch_window:
            self._window += 1
            return False
        self._window = 0
        live.sort(key=lambda item: item[0].device_index)
        batch = live[: self.config.batch_size]
        self._waiters = list(live[self.config.batch_size :])
        self.tick += 1
        schedule = self.policy.plan(
            self.belief,
            self.arms,
            [request for request, _ in batch],
            self.tick,
        )
        by_device = {d.device_id: d for d in schedule.dispatches}
        for request, future in batch:
            dispatch = by_device.get(request.device_id)
            if dispatch is None:
                future.set_result(None)
                self._log_retire(request.device_id)
                continue
            self.belief.record_dispatch(
                request.device_id, self._arm_by_name(dispatch.arm)
            )
            self._outstanding[request.device_id] = dispatch
            self.log.event(
                "dispatch",
                self.tick,
                device=request.device_id,
                arm=dispatch.arm,
                kind=dispatch.kind,
                cost_cycles=dispatch.cost_cycles,
                policy=self.policy.name,
            )
            telemetry.add("scheduler.dispatches")
            future.set_result(dispatch)
        return True

    def _active_devices(self) -> int:
        return self.belief.active_count(self.arms)

    def _log_retire(self, device_id: str) -> None:
        """One canonical ``retire`` record, shared by every path that
        sends a client home (planner, drain, early drain return)."""
        device = self.belief.devices.get(device_id)
        self.log.event(
            "retire",
            self.tick,
            device=device_id,
            detected=device.detected if device is not None else False,
        )

    def _retire_waiters(self, log: bool = False) -> None:
        """Resolve every parked client with "no more work".

        ``log=True`` on the graceful-drain path records a ``retire``
        event per resolved client — the same accounting the planner
        gives retired devices — so drained and planner-retired clients
        are logged identically.  The kill path leaves ``log=False``:
        a dead service's log is abandoned, only checkpoints survive.
        """
        for request, future in self._waiters:
            if not future.done():
                if log:
                    self._log_retire(request.device_id)
                future.set_result(None)
        self._waiters = []

    # -- checkpoints and drain -----------------------------------------
    def checkpoint_state(self) -> dict:
        """Everything a restarted service needs to resume."""
        return {
            "belief": self.belief.snapshot(),
            "tick": self.tick,
            "events_ingested": self.events_ingested,
            "arms": arms_digest(self.arms),
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

    def _drain(self) -> None:
        self._retire_waiters()
        self._maybe_checkpoint(force=True)
        self.log.event(
            "drain",
            self.tick,
            events_ingested=self.events_ingested,
            belief=self.belief.digest(),
        )
        self._stopped = True

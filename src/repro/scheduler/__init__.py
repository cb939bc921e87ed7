"""Online fleet scheduler: adaptive dispatch, streaming detection.

The offline campaign (:mod:`repro.campaign`) answers "what would the
fleet look like if every device ran every suite".  This package runs
the same fleet as a *detection service*: each tick plans the next test
for a batch of devices, runs it, and folds the verdicts into a
per-device aging belief state that steers what gets dispatched next —
detection value per cycle instead of a fixed test list.

Modules:

* :mod:`~repro.scheduler.belief` — Beta-Bernoulli posteriors per
  (device, failure-model class), fleet-level evidence sharing, priors
  from the fleet's corner/onset distributions.
* :mod:`~repro.scheduler.policy` — sequential / greedy /
  Thompson-sampling dispatch policies; pure functions of a belief
  snapshot.
* :mod:`~repro.scheduler.service` — the synchronous dispatch loop:
  batching, belief checkpoints, drain, and the deterministic
  TRACE_SCHEMA event log.
* :mod:`~repro.scheduler.replay` — arm execution on the fleet's
  simulated devices through the campaign's
  :class:`~repro.campaign.engine.DeviceRunner`, session driver,
  schedule reports, byte-exact replay verification.

The service runs in one process, driven by ``repro schedule``.  Its
telemetry counters reach the user through that verb's ``--trace`` and
``--metrics``, like every other traced verb's.
"""

from .belief import ArmSpec, FleetBelief, fleet_prior
from .policy import (
    Dispatch,
    PlanRequest,
    POLICIES,
    Policy,
    Schedule,
    make_policy,
)
from .replay import (
    FleetAdapter,
    ScheduleOutcome,
    ScheduleReport,
    ScheduleSession,
    build_arms,
    verify_replay,
)
from .service import DetectionService, EventLog, ResultEvent

__all__ = [
    "ArmSpec",
    "DetectionService",
    "Dispatch",
    "EventLog",
    "FleetAdapter",
    "FleetBelief",
    "PlanRequest",
    "POLICIES",
    "Policy",
    "ResultEvent",
    "Schedule",
    "ScheduleOutcome",
    "ScheduleReport",
    "ScheduleSession",
    "build_arms",
    "fleet_prior",
    "make_policy",
    "verify_replay",
]

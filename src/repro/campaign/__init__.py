"""Fleet-scale fault-injection campaigns.

The paper's deployment target is a *fleet*: Vega suites run across
data-center machines so aging SDCs are caught before they corrupt user
traffic.  This package turns the single-device evaluation layer into a
population study:

* :mod:`~repro.campaign.fleet` samples a deterministic virtual fleet —
  per-device aging corner, violation-onset draw, and injected failure
  model;
* :mod:`~repro.campaign.engine` executes detection campaigns (the Vega
  library plus the random and SiliFuzz-style baselines) against every
  faulty device, sharded across ``fork`` workers with per-shard
  resume checkpoints;
* :mod:`~repro.campaign.report` aggregates fleet metrics into a
  :class:`~repro.campaign.report.CampaignReport` artifact;
* :mod:`~repro.campaign.packed` resolves many failure models per
  gate-sim pass (one shadow-mux bit-plane each) — the fault-parallel
  prefilter the engine runs before shard dispatch.
"""

from .engine import CampaignEngine, DeviceResult, SuiteOutcome
from .fleet import DeviceSpec, fleet_digest, sample_fleet
from .packed import PackedPrefilter, ReplayBackend, ReplayMismatch
from .report import CampaignReport

__all__ = [
    "CampaignEngine",
    "CampaignReport",
    "DeviceResult",
    "DeviceSpec",
    "PackedPrefilter",
    "ReplayBackend",
    "ReplayMismatch",
    "SuiteOutcome",
    "fleet_digest",
    "sample_fleet",
]

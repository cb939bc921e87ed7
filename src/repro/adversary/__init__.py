"""Targeted wearout-attack scenarios (ROADMAP item 4a).

Recent work shows attackers can craft instruction mixes that skew
signal probabilities toward the BTI-stressed state on chosen victim
paths, aging one core far faster than its neighbours (targeted wearout
attacks, arXiv 2508.16868).  This package turns that threat model into
a deterministic scenario engine:

* :mod:`~repro.adversary.search` — seeded candidate generation plus
  beam hill-climbing over operand streams, scored by the packed SP
  profiler against the victim cone's stress duty; byte-identical for
  any worker count, resumable via per-round checkpoints;
* :mod:`~repro.adversary.fleet` — materializes *attack fleets*:
  :class:`~repro.campaign.fleet.DeviceSpec` devices sharing the natural
  fleet's per-device draws, with onsets accelerated by the attacker's
  stress ratio, ready to drop into the campaign engine and its packed
  prefilter;
* :mod:`~repro.adversary.report` — the canonical-JSON
  :class:`~repro.adversary.report.AttackReport` comparing detection of
  attacker-accelerated vs natural aging at equal budget.
"""

from .fleet import sample_attack_fleet
from .report import AttackReport
from .search import (
    AttackSearch,
    AttackSearchResult,
    AttackTarget,
    generate_candidate,
    mutate_candidate,
    select_target,
    stress_score,
)

__all__ = [
    "AttackReport",
    "AttackSearch",
    "AttackSearchResult",
    "AttackTarget",
    "generate_candidate",
    "mutate_candidate",
    "sample_attack_fleet",
    "select_target",
    "stress_score",
]

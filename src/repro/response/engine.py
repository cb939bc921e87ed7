"""The response engine: evaluate reconfiguration policies on aged timing.

Every policy evaluation reduces to the onset search shared with the
lifetime simulator and the surrogate's exact oracle —
:meth:`~repro.sta.aging_sta.AgingAwareSta.onset` bisects the age grid
for the first violating age — plus, for the structural policies,
netlist clone surgery checked by the lifting engine's sequential
equivalence machinery:

* ``derate`` bisects the derate grid for the shortest period whose
  mission-age STA is clean, then re-searches onset — frequency cost;
* ``resynth`` optimizes a clone (:func:`repro.netlist.opt.optimize`),
  *proves* the result equivalent, and models the violating cone's
  cells as fresh silicon (the re-synthesized cone replaces its aged
  transistors) before re-searching onset — area cost, exactness
  guaranteed;
* ``approximate`` bypasses the violating endpoint's capture logic
  (rewiring its D pin to the driver's first fanin), sweeps the
  dangling cone, re-profiles the approximated netlist with the
  mission operand stream (fork-sharded, cached), and measures the
  output-accuracy cost over deterministic random operands — lifetime
  recovered by *removing* the aged critical path, paid in exactness.

Completed policies publish checkpoints through the artifact cache, so
an evaluation killed mid-policy resumes at the first incomplete policy
and produces a byte-identical :class:`~repro.response.report
.ResponseReport`; worker counts never enter keys or results.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import telemetry
from ..core.artifacts import ArtifactCache
from ..core.config import AgingAnalysisConfig, ResponseConfig
from ..core.rng import stream_rng
from ..formal.equiv import check_equivalence
from ..netlist.netlist import Netlist
from ..netlist.opt import optimize
from ..sim.gatesim import GateSimulator
from ..sim.parallel_profile import profile_workload_streams
from ..sim.probes import SPProfile
from ..sta.aging_sta import CENSOR_FACTOR, AgingAwareSta, censor_onset
from ..sta.timing import TimingViolation

#: Checkpoint payload version; bump on incompatible layout changes.
_CHECKPOINT_VERSION = 2


def _profile_digest(profile: SPProfile) -> str:
    """Content identity of an SP profile, for response cache keys."""
    if profile.ones is not None:
        body = sorted(profile.ones.items())
    else:
        body = sorted(profile.sp.items())
    return ArtifactCache.digest(
        "sp-identity", profile.netlist_name, profile.samples, body
    )


class ResponseEngine:
    """Evaluates response policies for one unit's aged timing.

    Args:
        netlist: The deployed unit.
        unit: Unit name for reports.
        profile: The unit's mission SP profile (what aged it).
        aging: Phase-1 analysis config (clock margin, path caps).
        config: Response-policy config.
        gated_instances: Clock-gated sinks, as the aging STA takes.
        clock_chain_length: Clock distribution chain depth.
        cache: Optional artifact cache for checkpoints and re-profiles.
        operands: Optional mission operand stream; when present the
            ``approximate`` policy re-profiles its modified netlist
            with it (sharded across ``config.workers``) instead of
            reusing the original profile.
    """

    def __init__(
        self,
        netlist: Netlist,
        unit: str,
        profile: SPProfile,
        aging: Optional[AgingAnalysisConfig] = None,
        config: Optional[ResponseConfig] = None,
        gated_instances=None,
        clock_chain_length: int = 1,
        cache: Optional[ArtifactCache] = None,
        operands: Optional[Sequence[Mapping[str, int]]] = None,
    ):
        self.netlist = netlist
        self.unit = unit
        self.profile = profile
        self.aging = aging or AgingAnalysisConfig()
        self.config = config or ResponseConfig()
        self.gated_instances = gated_instances
        self.clock_chain_length = clock_chain_length
        self.cache = cache
        self.operands = list(operands) if operands is not None else None
        self._stas: Dict[str, AgingAwareSta] = {}
        self.resumed_policies: List[str] = []

    # -- shared timing primitives ---------------------------------------
    def _sta_for(self, netlist: Netlist) -> AgingAwareSta:
        sta = self._stas.get(netlist.name)
        if sta is None:
            sta = AgingAwareSta(
                netlist,
                None,
                config=self.aging,
                gated_instances=self.gated_instances,
                clock_chain_length=self.clock_chain_length,
            )
            self._stas[netlist.name] = sta
        return sta

    def onset_years(
        self,
        netlist: Netlist,
        profile: SPProfile,
        period: float,
        fresh_instances: Sequence[str] = (),
    ) -> Tuple[float, bool]:
        """(onset, censored?) on the config grid at ``period`` ns, with
        ``fresh_instances`` at un-aged delays (a re-synthesized cone)."""
        onset = self._sta_for(netlist).onset(
            profile, period, self.config.age_grid, fresh_instances
        )
        return censor_onset(onset, self.config.age_grid)

    def mission_slack_ns(
        self,
        netlist: Netlist,
        profile: SPProfile,
        period: float,
        fresh_instances: Sequence[str] = (),
    ) -> float:
        """Setup WNS at the mission age: unlike the onset, never
        censored, so it ranks policies whose onsets all leave the
        grid."""
        sta = self._sta_for(netlist).at_age(self.config.mission_years)
        report = sta.probe(profile, period, fresh_instances)
        return round(report.wns_setup_ns, 6)

    def _baseline(self, period: float) -> dict:
        """The unmitigated onset, and the worst path violating there
        (one full aged STA) as the victim the policies act on."""
        sta = self._sta_for(self.netlist)
        with telemetry.span("response.baseline"):
            baseline = {
                "onset": None,
                "victim": None,
                "mission_slack_ns": self.mission_slack_ns(
                    self.netlist, self.profile, period
                ),
            }
            onset = sta.onset(self.profile, period, self.config.age_grid)
            if onset is None:
                return baseline
            report = sta.at_age(onset).analyze(
                self.profile, clock_period_ns=period
            ).report
        victim = report.representative_violations()[0]
        baseline["onset"] = float(onset)
        baseline["victim"] = (victim.start, victim.end, victim.kind)
        return baseline

    # -- cache keys -----------------------------------------------------
    def response_key(self) -> str:
        """Identity of this evaluation (workers never enter it)."""
        cfg = self.config
        return ArtifactCache.digest(
            "response",
            self.netlist.structural_hash(),
            _profile_digest(self.profile),
            list(cfg.policies),
            cfg.derate_step,
            cfg.max_derate,
            cfg.mission_years,
            list(cfg.age_grid),
            CENSOR_FACTOR,
            cfg.equiv_depth,
            cfg.equiv_conflict_budget,
            cfg.accuracy_samples,
            cfg.accuracy_depth,
            cfg.seed,
            self.aging.clock_margin,
            self.aging.max_paths_per_endpoint,
            self._sta_for(self.netlist).corner.temperature_c,
            (
                ArtifactCache.stream_digest(self.operands)
                if self.operands is not None
                else None
            ),
        )

    def _policy_key(self, policy: str) -> str:
        return ArtifactCache.digest(
            "response-policy", self.response_key(), policy
        )

    # -- policies -------------------------------------------------------
    def _row(self, policy: str, **overrides) -> dict:
        row = {
            "policy": policy,
            "applicable": True,
            "new_onset_years": 0.0,
            "censored": False,
            "recovered_years": 0.0,
            "mission_slack_ns": None,
            "frequency_cost_pct": 0.0,
            "accuracy_cost_pct": 0.0,
            "area_delta_cells": 0,
            "equivalent": True,
            "detail": "",
        }
        row.update(overrides)
        return row

    def _eval_derate(
        self, period: float, baseline_onset: float, victim: TimingViolation
    ) -> dict:
        cfg = self.config
        steps = max(1, int(round(cfg.max_derate / cfg.derate_step)))
        derates = [round(k * cfg.derate_step, 6) for k in range(1, steps + 1)]
        periods = [period * (1.0 + derate) for derate in derates]
        index = self._sta_for(self.netlist).first_clean(
            self.profile, cfg.mission_years, periods
        )
        chosen = cfg.max_derate if index is None else derates[index]
        derated = period * (1.0 + chosen)
        new_onset, censored = self.onset_years(
            self.netlist, self.profile, derated
        )
        return self._row(
            "derate",
            new_onset_years=new_onset,
            censored=censored,
            recovered_years=round(new_onset - baseline_onset, 6),
            mission_slack_ns=self.mission_slack_ns(
                self.netlist, self.profile, derated
            ),
            frequency_cost_pct=round(chosen * 100.0, 6),
            detail=(
                f"clock period +{chosen * 100.0:.0f}% "
                f"({derated:.4f} ns)"
            ),
        )

    def _violating_cone(
        self, netlist: Netlist, victim: TimingViolation
    ) -> List[str]:
        """Combinational instances feeding the victim endpoint's D pin."""
        flop = netlist.instances.get(victim.end)
        if flop is None:
            return []
        cone = netlist.fanin_cone(flop.pins["D"])
        return sorted(
            inst.name for inst in cone if not inst.ctype.is_seq
        )

    def _eval_resynth(
        self, period: float, baseline_onset: float, victim: TimingViolation
    ) -> dict:
        cfg = self.config
        clone = self.netlist.clone(self.netlist.name + "__resynth")
        removed = optimize(clone)
        verdict = check_equivalence(
            self.netlist,
            clone,
            depth=cfg.equiv_depth,
            conflict_budget=cfg.equiv_conflict_budget,
        )
        if verdict.equivalent is False:
            raise RuntimeError(
                "re-synthesis broke equivalence: counterexample "
                f"{verdict.counterexample} at cycle {verdict.cycle}"
            )
        cone = self._violating_cone(clone, victim)
        if not cone:
            return self._row(
                "resynth",
                applicable=False,
                detail=f"endpoint {victim.end} has no surviving cone",
            )
        new_onset, censored = self.onset_years(
            clone, self.profile, period, fresh_instances=cone
        )
        return self._row(
            "resynth",
            new_onset_years=new_onset,
            censored=censored,
            recovered_years=round(new_onset - baseline_onset, 6),
            mission_slack_ns=self.mission_slack_ns(
                clone, self.profile, period, fresh_instances=cone
            ),
            area_delta_cells=len(cone),
            equivalent=verdict.equivalent,
            detail=(
                f"re-synthesized the {len(cone)}-cell cone of "
                f"{victim.end} as fresh silicon "
                f"(optimizer removed {removed} cell(s); equivalence "
                + (
                    "proved"
                    if verdict.equivalent
                    else "inconclusive (budget)"
                )
                + ")"
            ),
        )

    def _accuracy_cost(self, approx: Netlist) -> float:
        """Output-mismatch % of the approximated netlist.

        Deterministic random operand frames from the
        ``response.accuracy`` stream, co-simulated on both netlists
        until results reach the output flops.
        """
        cfg = self.config
        ports = [(p.name, p.width) for p in self.netlist.input_ports()]
        sims = (GateSimulator(self.netlist), GateSimulator(approx))
        rng = stream_rng("response.accuracy", cfg.seed)
        mismatches = 0
        for _ in range(cfg.accuracy_samples):
            frame = {
                name: rng.getrandbits(width) for name, width in ports
            }
            outputs = []
            for sim in sims:
                sim.reset()
                for _ in range(cfg.accuracy_depth):
                    sim.step(frame)
                outputs.append(sim.read_outputs())
            if outputs[0] != outputs[1]:
                mismatches += 1
        return round(100.0 * mismatches / cfg.accuracy_samples, 6)

    def _approx_profile(self, approx: Netlist) -> SPProfile:
        """SP profile of the approximated netlist.

        With a mission operand stream available, re-profile the
        modified structure (what actually ages in the field); the
        profiler shards across ``config.workers`` and the result is
        cached by content — worker count never enters the key.
        """
        if self.operands is None:
            return self.profile
        key = None
        if self.cache is not None:
            key = ArtifactCache.digest(
                "response-profile",
                approx.structural_hash(),
                ArtifactCache.stream_digest(self.operands),
                self.aging.profile_lanes,
            )
            hit = self.cache.load_profile(key)
            if hit is not None:
                return hit
        profile = profile_workload_streams(
            approx,
            {"mission": self.operands},
            lanes=self.aging.profile_lanes,
            workers=self.config.workers,
        )
        if self.cache is not None and key is not None:
            self.cache.store_profile(key, profile)
        return profile

    def _eval_approximate(
        self, period: float, baseline_onset: float, victim: TimingViolation
    ) -> dict:
        cfg = self.config
        clone = self.netlist.clone(self.netlist.name + "__approx")
        flop = clone.instances.get(victim.end)
        if flop is None:
            return self._row(
                "approximate",
                applicable=False,
                detail=f"endpoint {victim.end} not in netlist",
            )
        d_net = flop.pins["D"]
        driver = d_net.driver[0] if d_net.driver is not None else None
        if driver is None or driver.ctype.is_seq or not driver.input_nets():
            return self._row(
                "approximate",
                applicable=False,
                detail=(
                    f"{victim.end}.D has no combinational driver to "
                    "bypass"
                ),
            )
        bypass = driver.input_nets()[0]
        clone.rewire_input(flop, "D", bypass)
        swept = optimize(clone)
        verdict = check_equivalence(
            self.netlist,
            clone,
            depth=cfg.equiv_depth,
            conflict_budget=cfg.equiv_conflict_budget,
        )
        accuracy = self._accuracy_cost(clone)
        profile = self._approx_profile(clone)
        new_onset, censored = self.onset_years(clone, profile, period)
        return self._row(
            "approximate",
            new_onset_years=new_onset,
            censored=censored,
            recovered_years=round(new_onset - baseline_onset, 6),
            mission_slack_ns=self.mission_slack_ns(clone, profile, period),
            accuracy_cost_pct=accuracy,
            area_delta_cells=-swept,
            equivalent=verdict.equivalent,
            detail=(
                f"bypassed {driver.name} ({driver.ctype.name}) feeding "
                f"{victim.end}.D via {bypass.name}; swept {swept} "
                f"dangling cell(s)"
            ),
        )

    # -- the evaluation loop --------------------------------------------
    def _checkpointed(
        self,
        key: str,
        field: str,
        label: str,
        resume: bool,
        compute: Callable[[], dict],
    ) -> dict:
        """``compute()`` published under ``key``, or on resume its
        checkpointed ``field`` (recording ``label`` as resumed)."""
        if resume and self.cache is not None:
            payload = self.cache.load_checkpoint(key)
            if (
                isinstance(payload, dict)
                and payload.get("version") == _CHECKPOINT_VERSION
            ):
                self.resumed_policies.append(label)
                return payload[field]
        value = compute()
        if self.cache is not None:
            self.cache.store_checkpoint(
                key, {"version": _CHECKPOINT_VERSION, field: value}
            )
        return value

    def evaluate(self, resume: bool = False):
        """Evaluate every configured policy; return a ResponseReport.

        With a cache, the baseline search and each completed policy
        publish checkpoints; ``resume=True`` reuses them, so a run
        killed mid-policy restarts at the first incomplete policy and
        still emits byte-identical JSON.
        """
        from .report import ResponseReport

        evaluators = {
            "derate": self._eval_derate,
            "resynth": self._eval_resynth,
            "approximate": self._eval_approximate,
        }
        cfg = self.config
        with telemetry.span("response.evaluate", unit=self.unit):
            period = self._sta_for(self.netlist).derive_period()
            baseline = self._checkpointed(
                ArtifactCache.digest("response-baseline", self.response_key()),
                "baseline",
                "baseline",
                resume,
                lambda: self._baseline(period),
            )
            onset = baseline["onset"]
            start, end, kind = baseline["victim"] or (None, None, None)
            report = ResponseReport(
                unit=self.unit,
                period_ns=round(period, 6),
                mission_years=cfg.mission_years,
                horizon_years=float(cfg.age_grid[-1]),
                censor_factor=CENSOR_FACTOR,
                baseline_onset_years=onset,
                baseline_mission_slack_ns=baseline["mission_slack_ns"],
                victim_start=start,
                victim_end=end,
                victim_kind=kind,
            )
            if onset is None:
                return report
            victim = TimingViolation(
                kind=kind, start=start, end=end, cells=(),
                arrival=0.0, required=0.0,
            )
            for policy in cfg.policies:
                evaluator = evaluators.get(policy)
                if evaluator is None:
                    raise ValueError(f"unknown response policy {policy!r}")

                def run() -> dict:
                    with telemetry.span("response.policy", policy=policy):
                        return evaluator(period, onset, victim)

                row = self._checkpointed(
                    self._policy_key(policy), "row", policy, resume, run
                )
                telemetry.event(
                    "response.policy_done",
                    policy=policy,
                    recovered_years=row["recovered_years"],
                    applicable=row["applicable"],
                )
                report.policies.append(row)
            return report

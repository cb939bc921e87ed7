"""Aging-Aware Static Timing Analysis — the driver for phase 1 (§3.2.2).

Given an SP profile from simulation and a characterized aging timing
library, this module updates every cell's timing to its 10-year aged
value, ages the clock tree, and runs setup/hold STA at the pessimistic
sign-off corner.  The result — the set of aging-prone paths and their
unique endpoint pairs — is the input to Error Lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..aging.charlib import AgingTimingLibrary
from ..aging.corners import OperatingCorner, WORST_CORNER
from ..core import telemetry
from ..core.config import AgingAnalysisConfig
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from .clocktree import ClockTree
from .timing import DelayModel, StaReport, StaticTimingAnalyzer


@dataclass
class AgingStaResult:
    """Everything phase 1 hands to phase 2.

    Attributes:
        report: the aged STA report (violations, WNS).
        fresh_report: the pre-aging report at the same period (should
            be clean, confirming the design signed off).
        period_ns: derived or supplied clock period.
        delay_increase: per-instance fractional delay increase, the raw
            data behind Figure 8's histogram.
        clock_tree: the (aged) clock network model.
    """

    report: StaReport
    fresh_report: StaReport
    period_ns: float
    delay_increase: Dict[str, float]
    clock_tree: ClockTree


class AgingAwareSta:
    """Applies aged timing to a netlist and checks its constraints."""

    def __init__(
        self,
        netlist: Netlist,
        timing_lib: Optional[AgingTimingLibrary],
        config: Optional[AgingAnalysisConfig] = None,
        corner: OperatingCorner = WORST_CORNER,
        gated_instances: Optional[Mapping[str, float] | Sequence[str]] = None,
        clock_fanout_per_leaf: int = 8,
        clock_chain_length: int = 1,
    ):
        # ``timing_lib`` may be None when every analyze() call supplies a
        # precomputed aged model (the artifact-cache hit path).
        self.netlist = netlist
        self.timing_lib = timing_lib
        self.config = config or AgingAnalysisConfig()
        self.corner = corner
        if gated_instances is None:
            gated: Dict[str, float] = {}
        elif isinstance(gated_instances, Mapping):
            gated = dict(gated_instances)
        else:
            # Bare names get a high default duty: the unit is assumed
            # clock-gated whenever idle.
            gated = {
                name: 1.0 - self.config.clock_gating_sp * 2.0
                for name in gated_instances
            }
        self.clock_tree = ClockTree.build(
            netlist,
            fanout_per_leaf=clock_fanout_per_leaf,
            gated_sinks=gated,
            chain_length=clock_chain_length,
        )

    # ------------------------------------------------------------------
    def derive_period(self) -> float:
        """Target period the design "signed off" at, fresh.

        Mirrors timing closure: take the fresh critical delay and leave
        ``clock_margin`` of positive slack.  The margin is what aging
        must erode before violations appear — the paper's designs also
        initially meet timing and only violate after 10 simulated years.
        """
        analyzer = StaticTimingAnalyzer(
            self.netlist, DelayModel.fresh(self.netlist, self.corner)
        )
        # Insertion delay is common-mode for a balanced fresh tree and
        # does not change the critical delay.
        return analyzer.critical_delay() * (1.0 + self.config.clock_margin)

    def aged_delay_model(self, profile: SPProfile) -> Tuple[DelayModel, Dict[str, float]]:
        """Per-instance aged delays + the Figure 8 delay-increase map."""
        if self.timing_lib is None:
            raise ValueError(
                "AgingAwareSta was built without a timing library; "
                "supply aged_model to analyze() instead"
            )
        delays: Dict[str, Tuple[float, float]] = {}
        increase: Dict[str, float] = {}
        for inst in self.netlist.instances.values():
            sp = profile.sp.get(inst.output_net.name)
            if sp is None:
                # Instrumentation cells absent from the profile age at
                # the pessimistic extreme.
                sp = 0.0
            tmin, tmax = self.timing_lib.aged_delays(inst.ctype, sp)
            delays[inst.name] = (tmin, tmax)
            if inst.ctype.tmax > 0:
                increase[inst.name] = tmax / inst.ctype.tmax - 1.0
            else:
                increase[inst.name] = 0.0
        clock_arrivals = self.clock_tree.aged_arrivals(self.timing_lib)
        model = DelayModel(
            delays=delays,
            clock_early=clock_arrivals,
            clock_late=clock_arrivals,
            corner=self.corner,
        )
        return model, increase

    def analyze(
        self,
        profile: SPProfile,
        clock_period_ns: Optional[float] = None,
        aged_model: Optional[DelayModel] = None,
        delay_increase: Optional[Dict[str, float]] = None,
    ) -> AgingStaResult:
        """Full phase-1 analysis: fresh sign-off check + aged STA.

        ``aged_model``/``delay_increase`` inject a precomputed (e.g.
        artifact-cached) aged delay model, skipping library lookups.
        """
        period = clock_period_ns or self.derive_period()

        with telemetry.span("sta.fresh", period_ns=round(period, 4)):
            fresh_arrivals = self.clock_tree.fresh_arrivals()
            fresh_model = DelayModel.fresh(self.netlist, self.corner)
            fresh_model.clock_early = fresh_arrivals
            fresh_model.clock_late = fresh_arrivals
            fresh_report = StaticTimingAnalyzer(
                self.netlist, fresh_model
            ).check(period, self.config.max_paths_per_endpoint)

        with telemetry.span("sta.aged", period_ns=round(period, 4)):
            if aged_model is None:
                aged_model, increase = self.aged_delay_model(profile)
            else:
                increase = dict(delay_increase or {})
            aged_report = StaticTimingAnalyzer(
                self.netlist, aged_model
            ).check(period, self.config.max_paths_per_endpoint)
        telemetry.add("sta.analyses")
        telemetry.add(
            "sta.paths_timed",
            len(fresh_report.violations) + len(aged_report.violations),
        )
        telemetry.add("sta.violations", len(aged_report.violations))
        return AgingStaResult(
            report=aged_report,
            fresh_report=fresh_report,
            period_ns=period,
            delay_increase=increase,
            clock_tree=self.clock_tree,
        )


def delay_increase_histogram(
    delay_increase: Mapping[str, float],
    bucket_edges: Sequence[float] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08),
) -> List[Tuple[float, float, int]]:
    """Bucket per-cell delay increases — the data series of Figure 8.

    Returns (low_edge, high_edge, count) triples covering all samples.
    """
    edges = list(bucket_edges)
    counts = [0] * (len(edges) - 1)
    for value in delay_increase.values():
        for i in range(len(edges) - 1):
            if edges[i] <= value < edges[i + 1] or (
                i == len(edges) - 2 and value >= edges[-1]
            ):
                counts[i] += 1
                break
    return [
        (edges[i], edges[i + 1], counts[i]) for i in range(len(edges) - 1)
    ]

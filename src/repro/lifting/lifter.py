"""Error Lifting orchestration — phase 2 of the Vega workflow (§3.3).

For every unique endpoint pair reported by Aging Analysis, the lifter:

1. builds failure models for each constant C (and, with the §3.3.4
   mitigation, for rising/falling activation edges),
2. instruments a shadow replica and runs the bounded model checker on
   the resulting cover property,
3. converts each witness into a software test case via the unit's
   :class:`~repro.lifting.testcase.IsaMapper`, and
4. classifies the pair with the paper's Table 4 taxonomy:
   S (constructed), UR (proven unrealizable), FF (formal budget
   exceeded), FC (witness found but not convertible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from ..core.config import ErrorLiftingConfig
from ..formal.bmc import BmcStatus, BoundedModelChecker, CoverObjective
from ..netlist.netlist import Netlist
from ..sim.gatesim import GateSimulator
from ..sta.timing import StaReport, TimingViolation
from .instrument import (
    FailingNetlist,
    InstrumentationError,
    instrument_for_cover,
    make_failing_netlist,
)
from .models import CMode, FailureModel, ViolationKind
from .testcase import IsaMapper, TestCase, UnmappableTraceError


class PairOutcome(Enum):
    """Table 4 classification for one unique endpoint pair."""

    CONSTRUCTED = "S"
    UNREALIZABLE = "UR"
    FORMAL_FAILURE = "FF"
    CONVERSION_FAILURE = "FC"


@dataclass
class VariantResult:
    """Result for one (C, edge) failure-model variant."""

    model: FailureModel
    status: BmcStatus
    test_case: Optional[TestCase] = None
    conversion_failed: bool = False
    conflicts: int = 0


@dataclass
class PairResult:
    start: str
    end: str
    kind: ViolationKind
    variants: List[VariantResult] = field(default_factory=list)
    #: Set when the pair crashed mid-lift and the run kept going
    #: (``ErrorLiftingConfig.keep_going``); the traceback summary also
    #: lands in the telemetry trace as a ``lifting.pair_error`` event.
    error: Optional[str] = None

    @property
    def outcome(self) -> PairOutcome:
        """Aggregate classification, matching the paper's accounting.

        A pair counts as S when any variant yields a test; as FC when a
        witness existed but none converted; as FF when the formal tool
        gave up before any witness/proof; as UR when every variant is
        proven unrealizable.  A pair that *crashed* before producing any
        variant is accounted FF — the tooling, not the circuit, failed
        to settle it.
        """
        if any(v.test_case is not None for v in self.variants):
            return PairOutcome.CONSTRUCTED
        if any(v.conversion_failed for v in self.variants):
            return PairOutcome.CONVERSION_FAILURE
        if any(v.status is BmcStatus.BUDGET_EXCEEDED for v in self.variants):
            return PairOutcome.FORMAL_FAILURE
        if self.error is not None and not self.variants:
            return PairOutcome.FORMAL_FAILURE
        return PairOutcome.UNREALIZABLE

    @property
    def test_cases(self) -> List[TestCase]:
        return [v.test_case for v in self.variants if v.test_case is not None]


@dataclass
class LiftingReport:
    """Everything phase 2 produces (tests + failure models + stats)."""

    netlist_name: str
    unit: str
    pairs: List[PairResult] = field(default_factory=list)
    mitigation: bool = False

    @property
    def test_cases(self) -> List[TestCase]:
        cases: List[TestCase] = []
        for pair in self.pairs:
            cases.extend(pair.test_cases)
        return cases

    def outcome_counts(self) -> Dict[str, int]:
        counts = {o.value: 0 for o in PairOutcome}
        for pair in self.pairs:
            counts[pair.outcome.value] += 1
        return counts

    def outcome_percentages(self) -> Dict[str, float]:
        counts = self.outcome_counts()
        total = sum(counts.values()) or 1
        return {k: 100.0 * v / total for k, v in counts.items()}

    @property
    def error_pairs(self) -> List[PairResult]:
        """Pairs that crashed mid-lift and were skipped (keep_going)."""
        return [p for p in self.pairs if p.error is not None]


class ErrorLifter:
    """Runs Error Lifting for one netlist + ISA mapper."""

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[ErrorLiftingConfig] = None,
        mapper: Optional[IsaMapper] = None,
    ):
        self.netlist = netlist
        self.config = config or ErrorLiftingConfig()
        self.mapper = mapper

    # ------------------------------------------------------------------
    def lift(
        self, sta_report: StaReport, workers: Optional[int] = None
    ) -> LiftingReport:
        """Process every unique endpoint pair of ``sta_report``.

        Pairs are independent, so with ``workers > 1`` (argument or
        ``config.workers``) they are sharded across processes via
        :mod:`repro.lifting.parallel`; results keep the serial order.
        """
        from .parallel import lift_pairs

        if workers is None:
            workers = self.config.workers
        report = LiftingReport(
            netlist_name=self.netlist.name,
            unit=self.mapper.unit if self.mapper else "raw",
            mitigation=self.config.enable_mitigation,
        )
        violations = list(sta_report.representative_violations())
        report.pairs.extend(lift_pairs(self, violations, workers=workers))
        return report

    def lift_pair(self, violation: TimingViolation) -> PairResult:
        kind = (
            ViolationKind.SETUP
            if violation.kind == "setup"
            else ViolationKind.HOLD
        )
        result = PairResult(start=violation.start, end=violation.end, kind=kind)
        for c_value in self.config.constants:
            base = FailureModel(
                start=violation.start,
                end=violation.end,
                kind=kind,
                c_mode=CMode.ONE if c_value else CMode.ZERO,
            )
            for model in base.variants(self.config.enable_mitigation):
                result.variants.append(self._run_variant(model))
        return result

    # ------------------------------------------------------------------
    def _run_variant(self, model: FailureModel) -> VariantResult:
        try:
            instrumentation = instrument_for_cover(self.netlist, model)
        except InstrumentationError:
            # Endpoint cannot influence outputs: trivially unrealizable.
            return VariantResult(model=model, status=BmcStatus.UNREACHABLE)
        assumptions = list(self.mapper.assumptions()) if self.mapper else []
        checker = BoundedModelChecker(
            instrumentation.netlist,
            assumptions=assumptions,
            conflict_budget=self.config.bmc_conflict_budget,
        )
        objective = CoverObjective(differ=instrumentation.output_pairs)
        observe = [
            net for pair in instrumentation.output_pairs for net in pair
        ]
        bmc_result = checker.cover(
            objective, max_depth=self.config.bmc_depth, observe=observe
        )
        variant = VariantResult(
            model=model,
            status=bmc_result.status,
            conflicts=bmc_result.conflicts,
        )
        if bmc_result.status is not BmcStatus.COVERED:
            return variant

        trace = bmc_result.trace
        final = trace.observed[trace.property_cycle]
        trace.mismatch_nets = [
            orig
            for orig, shadow in instrumentation.output_pairs
            if final.get(orig) != final.get(shadow)
        ]
        golden = self._golden_outputs(trace)
        if self.mapper is None:
            variant.conversion_failed = True
            return variant
        try:
            variant.test_case = self.mapper.trace_to_test(
                trace, golden, model, name=f"t_{model.label}"
            )
        except UnmappableTraceError:
            variant.conversion_failed = True
        return variant

    def _golden_outputs(self, trace) -> List[Dict[str, int]]:
        """Fault-free module outputs for each cycle of the trace."""
        sim = GateSimulator(self.netlist)
        outputs: List[Dict[str, int]] = []
        for frame in trace.inputs:
            # The instrumented clone may expose fm_c; the original
            # netlist does not take it.
            inputs = {
                k: v
                for k, v in frame.items()
                if k in self.netlist.ports
                and self.netlist.ports[k].direction == "input"
            }
            outputs.append(sim.step(inputs))
        return outputs

    # ------------------------------------------------------------------
    def failing_netlists(
        self,
        sta_report: StaReport,
        c_modes: Sequence[CMode] = (CMode.ZERO, CMode.ONE, CMode.RANDOM),
    ) -> List[FailingNetlist]:
        """Circuit-level failure models for evaluation (Tables 6/7)."""
        out: List[FailingNetlist] = []
        for violation in sta_report.representative_violations():
            kind = (
                ViolationKind.SETUP
                if violation.kind == "setup"
                else ViolationKind.HOLD
            )
            for mode in c_modes:
                model = FailureModel(
                    start=violation.start,
                    end=violation.end,
                    kind=kind,
                    c_mode=mode,
                )
                out.append(make_failing_netlist(self.netlist, model))
        return out

"""Shared experiment driver for the paper's evaluation (§5).

One :class:`ExperimentContext` reproduces the full Vega pipeline for the
ALU and FPU under the paper's setup:

* representative workload: embench-style *minver* (§4);
* 10-year lifetime, worst corner, 3 % sign-off margin;
* FPU clock-gated except its always-on input-valid flop (the gating
  asymmetry behind the Table 3 hold violations);
* lifting with and without the §3.3.4 mitigation;
* failing netlists in the three C modes (0 / 1 / random).

Results are cached per context so every benchmark (Tables 3-7, Figures
8-9) shares one pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..aging.charlib import AgingTimingLibrary
from ..aging.corners import WORST_CORNER
from ..baselines.random_tests import random_suite
from ..core.config import (
    AgingAnalysisConfig,
    ErrorLiftingConfig,
    TestIntegrationConfig,
    VegaConfig,
)
from ..core.rng import stream_seed
from ..cpu.alu_design import build_alu
from ..cpu.cosim import GateAluBackend, GateFpuBackend, GateMduBackend
from ..cpu.fpu_design import build_fpu
from ..cpu.mdu_design import build_mdu
from ..cpu.mappers import AluMapper, FpuMapper, MduMapper
from ..integration.library_gen import AgingLibrary, DetectionResult
from ..lifting.lifter import ErrorLifter, LiftingReport
from ..lifting.models import CMode
from ..netlist.netlist import Netlist
from ..sim.parallel_profile import profile_workload_streams
from ..sim.probes import SPProfile
from ..sta.aging_sta import AgingAwareSta, AgingStaResult
from ..workloads import REPRESENTATIVE, collect_unit_streams

#: Clock-network repeater chain per tree level (see ClockTree.build).
CLOCK_CHAIN_LENGTH = 24

#: Fraction of time the FPU's gated domain is clock-gated off.
FPU_GATING_DUTY = 0.96

#: The FPU flop that stays on the free-running clock (input handshake).
FPU_ALWAYS_ON = ("v_q_r0",)


@dataclass
class BaselineDetection:
    """Random-baseline detection split (Table 7).

    ``detected_pct`` counts every reported fault, including CPU stalls,
    matching §5.2.3's rule that a hung handshake is a detection.
    ``stalled_pct`` is the stall subset, reported separately so the
    table can show how much of the baseline's "coverage" is the machine
    wedging rather than a failed functional check.
    """

    detected_pct: float
    stalled_pct: float
    runs: int
    netlists: int


@dataclass
class DetectionOutcome:
    """Table 6 bookkeeping for one failing netlist."""

    pair: Tuple[str, str]
    c_mode: str
    detected: bool
    by_earlier: bool = False
    by_later: bool = False
    stalled: bool = False
    detected_by: Optional[str] = None


class UnitExperiment:
    """Cached pipeline state for one functional unit."""

    def __init__(self, context: "ExperimentContext", unit: str):
        self.context = context
        self.unit = unit
        self._netlist: Optional[Netlist] = None
        self._profile: Optional[SPProfile] = None
        self._sta: Optional[AgingStaResult] = None
        self._lifting: Dict[bool, LiftingReport] = {}
        self._suites: Dict[bool, AgingLibrary] = {}
        self._failing = None

    # -- structural ------------------------------------------------------
    @property
    def netlist(self) -> Netlist:
        if self._netlist is None:
            builders = {"alu": build_alu, "fpu": build_fpu, "mdu": build_mdu}
            self._netlist = builders[self.unit]()
        return self._netlist

    @property
    def mapper(self):
        mappers = {"alu": AluMapper, "fpu": FpuMapper, "mdu": MduMapper}
        return mappers[self.unit]()

    def gated_instances(self) -> Dict[str, float]:
        if self.unit != "fpu":
            return {}
        return {
            dff.name: FPU_GATING_DUTY
            for dff in self.netlist.dffs()
            if dff.name not in FPU_ALWAYS_ON
        }

    # -- phase 1 -----------------------------------------------------------
    @property
    def sp_profile(self) -> SPProfile:
        if self._profile is None:
            stream = self.context.stream(self.unit)
            self._profile = profile_workload_streams(
                self.netlist, {self.unit: stream}
            )
        return self._profile

    @property
    def sta_result(self) -> AgingStaResult:
        if self._sta is None:
            sta = AgingAwareSta(
                self.netlist,
                self.context.timing_lib,
                config=self.context.config.aging,
                gated_instances=self.gated_instances(),
                clock_chain_length=CLOCK_CHAIN_LENGTH,
            )
            self._sta = sta.analyze(self.sp_profile)
        return self._sta

    # -- phase 2 -----------------------------------------------------------
    def lifting(self, mitigation: bool, workers: int = 1) -> LiftingReport:
        """Lifting report (cached per mitigation flag).

        ``workers`` only affects how fast the first, uncached run goes —
        parallel and serial lifting produce identical reports.
        """
        if mitigation not in self._lifting:
            config = ErrorLiftingConfig(
                enable_mitigation=mitigation,
                bmc_depth=self.context.config.lifting.bmc_depth,
                bmc_conflict_budget=self.context.config.lifting.bmc_conflict_budget,
                workers=workers,
            )
            lifter = ErrorLifter(self.netlist, config, self.mapper)
            self._lifting[mitigation] = lifter.lift(self.sta_result.report)
        return self._lifting[mitigation]

    def suite(self, mitigation: bool) -> AgingLibrary:
        if mitigation not in self._suites:
            self._suites[mitigation] = AgingLibrary.from_lifting_report(
                self.lifting(mitigation),
                name=f"vega_{self.unit}" + ("_m" if mitigation else ""),
            )
        return self._suites[mitigation]

    def failing_netlists(self, constructed_only: bool = True):
        """Circuit-level failure models for the evaluation.

        Per §5.2.3, Tables 6 and 7 attack "each failing netlist
        associated with one of the generated test cases" — pairs whose
        violations are *proven unrealizable* (UR) yield failing
        netlists that behave identically to healthy silicon under
        mission-mode software, so there is nothing to detect.
        """
        if self._failing is None:
            lifter = ErrorLifter(self.netlist, mapper=self.mapper)
            self._failing = lifter.failing_netlists(self.sta_result.report)
        if not constructed_only:
            return self._failing
        constructed = {
            (pair.start, pair.end)
            for pair in self.lifting(False).pairs
            if pair.test_cases
        }
        return [
            f
            for f in self._failing
            if (f.model.start, f.model.end) in constructed
        ]

    def failure_models(self, constructed_only: bool = True):
        """The unit's circuit-level failure-model catalogue.

        The campaign sampler assigns these to faulty devices; the
        instrumented netlists themselves are built lazily, once per
        process, through the shared failing-netlist memo, so the
        catalogue stays cheap to build and to pass across a fork.
        """
        return [
            f.model for f in self.failing_netlists(constructed_only)
        ]

    # -- phase 3 / evaluation -----------------------------------------------
    def backends_for(self, netlist: Netlist, seed: int = 0):
        """Backend kwargs with this unit replaced by ``netlist``."""
        if self.unit == "alu":
            return {"alu": GateAluBackend(netlist, seed=seed)}
        if self.unit == "mdu":
            return {"mdu": GateMduBackend(netlist, seed=seed)}
        return {"fpu": GateFpuBackend(netlist, seed=seed)}

    def run_suite_against(
        self, library: AgingLibrary, failing_netlist: Netlist, seed: int = 0
    ) -> DetectionResult:
        return library.run_suite(**self.backends_for(failing_netlist, seed=seed))

    def detection_outcomes(
        self,
        mitigation: bool,
        c_modes: Sequence[CMode] = (CMode.ZERO, CMode.ONE, CMode.RANDOM),
        seed: int = 0,
    ) -> List[DetectionOutcome]:
        """Run the suite against every failing netlist (Table 6).

        ``seed`` drives the co-simulation backend RNG (the per-cycle C
        of ``CMode.RANDOM`` models); it is threaded through explicitly
        so callers probing RNG sensitivity actually change the run.
        """
        library = self.suite(mitigation)
        order = library.order("sequential")
        outcomes: List[DetectionOutcome] = []
        for failing in self.failing_netlists():
            if failing.model.c_mode not in c_modes:
                continue
            pair = (failing.model.start, failing.model.end)
            own_positions = [
                position
                for position, test_index in enumerate(order)
                if (
                    library.test_cases[test_index].model.start,
                    library.test_cases[test_index].model.end,
                )
                == pair
            ]
            result = self.run_suite_against(
                library, failing.netlist, seed=seed
            )
            outcome = DetectionOutcome(
                pair=pair,
                c_mode=failing.model.c_mode.value,
                detected=result.detected,
                stalled=result.stalled,
                detected_by=result.detected_by,
            )
            if result.detected and not result.stalled:
                position = order.index(result.detected_index)
                if own_positions:
                    outcome.by_earlier = position < min(own_positions)
                    outcome.by_later = position > max(own_positions)
                else:
                    outcome.by_earlier = True  # no own test: any hit is early
            outcomes.append(outcome)
        return outcomes

    def random_detection_rate(
        self,
        c_mode: CMode,
        runs: int = 10,
        suite_size: Optional[int] = None,
    ) -> BaselineDetection:
        """Random-suite baseline detection split (Table 7).

        Each run draws a fresh random suite and backend seed from the
        named ``baseline.*`` RNG streams (the same
        :func:`~repro.core.rng.stream_seed` discipline the campaign
        sampler uses), so runs are independent and reproducible without
        magic seed arithmetic.
        """
        size = suite_size or max(1, len(self.suite(False).test_cases))
        failing = [
            f for f in self.failing_netlists() if f.model.c_mode is c_mode
        ]
        if not failing:
            return BaselineDetection(0.0, 0.0, runs, 0)
        detected = 0
        stalled = 0
        for run in range(runs):
            library = random_suite(
                self.unit, size, seed=stream_seed("baseline.random_suite", run)
            )
            backend_seed = stream_seed("baseline.backend", run) & 0xFFFFFFFF
            for fail in failing:
                result = self.run_suite_against(
                    library, fail.netlist, seed=backend_seed
                )
                detected += int(result.detected)
                stalled += int(result.stalled)
        total = runs * len(failing)
        return BaselineDetection(
            detected_pct=100.0 * detected / total,
            stalled_pct=100.0 * stalled / total,
            runs=runs,
            netlists=len(failing),
        )

    def vega_detection_rate(self, c_mode: CMode, mitigation: bool = False) -> float:
        outcomes = self.detection_outcomes(mitigation, c_modes=(c_mode,))
        if not outcomes:
            return 0.0
        return 100.0 * sum(o.detected for o in outcomes) / len(outcomes)


class ExperimentContext:
    """Top-level cache: one per evaluation run."""

    def __init__(self, config: Optional[VegaConfig] = None):
        self.config = config or VegaConfig(
            aging=AgingAnalysisConfig(
                clock_margin=0.03, max_paths_per_endpoint=100
            )
        )
        self._streams: Dict[str, list] = {}
        self._timing_lib: Optional[AgingTimingLibrary] = None
        self._units: Dict[str, UnitExperiment] = {}

    def stream(self, unit: str):
        """Operand stream for one unit's SP profiling.

        The ALU/FPU use the paper's representative workload (minver,
        §4); the MDU extension uses the RV32M matrix-multiply kernel,
        since minver never issues multiply instructions.  Each program
        runs on the first request for a unit it feeds.
        """
        if unit not in self._streams:
            if unit == "mdu":
                program, units = "matmult_hw", ("mdu",)
            else:
                program, units = REPRESENTATIVE, ("alu", "fpu")
            streams = collect_unit_streams([program])
            self._streams.update({name: streams[name] for name in units})
        return self._streams[unit]

    @property
    def alu_stream(self):
        return self.stream("alu")

    @property
    def fpu_stream(self):
        return self.stream("fpu")

    @property
    def timing_lib(self) -> AgingTimingLibrary:
        if self._timing_lib is None:
            from ..netlist.cells import VEGA28

            self._timing_lib = AgingTimingLibrary.characterize(
                VEGA28,
                lifetime_years=self.config.aging.lifetime_years,
                temperature_c=WORST_CORNER.temperature_c,
            )
        return self._timing_lib

    def unit(self, name: str) -> UnitExperiment:
        if name not in self._units:
            self._units[name] = UnitExperiment(self, name)
        return self._units[name]

    @property
    def alu(self) -> UnitExperiment:
        return self.unit("alu")

    @property
    def fpu(self) -> UnitExperiment:
        return self.unit("fpu")


_DEFAULT_CONTEXT: Optional[ExperimentContext] = None


def default_context() -> ExperimentContext:
    """Process-wide shared context (used by the benchmark suite)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ExperimentContext()
    return _DEFAULT_CONTEXT

"""End-to-end orchestration of the three Vega phases.

`VegaWorkflow` ties together Aging Analysis (phase 1), Error Lifting
(phase 2), and Test Integration (phase 3), mirroring Figure 2 of the
paper.  Each phase is independently callable for finer control; `run`
chains them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from . import telemetry
from .config import VegaConfig


@dataclass
class WorkflowReport:
    """Aggregated results of a full Vega run (filled per phase)."""

    netlist_name: str = ""
    sp_profile: Optional[SPProfile] = None
    sta_report: object = None
    lifting_report: object = None
    test_suite: object = None
    #: The run's telemetry (spans/counters/events); set by ``run``.
    telemetry: Optional[telemetry.Telemetry] = None
    #: Phases loaded from checkpoints instead of recomputed.
    resumed_phases: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"Vega workflow report for {self.netlist_name!r}"]
        if self.sta_report is not None:
            aged = self.sta_report.report
            lines.append(
                f"  aging-prone paths: {len(aged.violations)} "
                f"({len(aged.unique_endpoint_pairs())} unique pairs)"
            )
        if self.lifting_report is not None:
            lines.append(
                f"  test cases constructed: {len(self.lifting_report.test_cases)}"
            )
        if self.test_suite is not None:
            lines.append(f"  suite cycles: {self.test_suite.suite_cycles()}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """A full per-phase report, suitable for issue trackers/docs."""
        lines = [f"# Vega report — `{self.netlist_name}`", ""]
        if self.sta_report is not None:
            aged = self.sta_report.report
            fresh = self.sta_report.fresh_report
            lines += [
                "## Phase 1 — Aging Analysis",
                "",
                f"- sign-off period: **{self.sta_report.period_ns:.3f} ns** "
                f"({1000/self.sta_report.period_ns:.0f} MHz)",
                f"- fresh violations: **{len(fresh.violations)}**",
                f"- aged setup: **{len(aged.setup_violations())}** paths, "
                f"WNS {aged.wns_setup_ns*1000:.1f} ps",
                f"- aged hold: **{len(aged.hold_violations())}** paths, "
                f"WNS {aged.wns_hold_ns*1000:.2f} ps",
                "",
                "| start | end | kind |",
                "|---|---|---|",
            ]
            for violation in aged.representative_violations():
                lines.append(
                    f"| {violation.start} | {violation.end} "
                    f"| {violation.kind} |"
                )
            lines.append("")
        if self.lifting_report is not None:
            pct = self.lifting_report.outcome_percentages()
            lines += [
                "## Phase 2 — Error Lifting",
                "",
                f"- outcomes: S {pct['S']:.1f}% / UR {pct['UR']:.1f}% / "
                f"FF {pct['FF']:.1f}% / FC {pct['FC']:.1f}%",
                f"- test cases: **{len(self.lifting_report.test_cases)}**",
                "",
            ]
        if self.test_suite is not None:
            lines += [
                "## Phase 3 — Test Integration",
                "",
                f"- suite: **{len(self.test_suite.test_cases)}** tests, "
                f"**{self.test_suite.suite_cycles()}** cycles per pass",
                "",
            ]
        return "\n".join(lines)


class VegaWorkflow:
    """Drives the three phases of the Vega workflow on one module.

    Usage::

        workflow = VegaWorkflow(VegaConfig())
        report = workflow.run(design, operand_stream, clock_period_ns=6.0)
    """

    def __init__(self, config: Optional[VegaConfig] = None):
        self.config = config or VegaConfig()
        #: (hits, misses) of the last cached run_aging_analysis call,
        #: None when caching was off.
        self.last_cache_stats: Optional[tuple] = None

    # Phase 1 ----------------------------------------------------------
    def _artifact_cache(self):
        if self.config.cache_dir is None:
            return None
        from .artifacts import ArtifactCache

        return ArtifactCache(self.config.cache_dir)

    def run_aging_analysis(
        self,
        netlist: Netlist,
        operand_stream: Sequence[Mapping[str, int]],
        clock_period_ns: Optional[float] = None,
        gated_instances: Optional[Sequence[str]] = None,
        workload_id: Optional[str] = None,
        use_cache: bool = True,
        workers: Optional[int] = None,
    ):
        """SP profiling + aging-aware STA; returns ``(profile, result)``.

        Profiling shards the workload across ``config.aging.profile_workers``
        fork processes (override per call with ``workers``).  With
        ``config.cache_dir`` set, the SP profile and aged delay model
        are content-addressed — keyed by the netlist's structural
        hash, the workload (``workload_id`` plus stream content digest),
        cycle count, aging parameters, and corner — so a repeated call
        with unchanged inputs simulates nothing.
        """
        from ..sim.parallel_profile import profile_workload_streams
        from ..sta.aging_sta import AgingAwareSta

        aging = self.config.aging
        operands = list(operand_stream)
        cache = self._artifact_cache() if use_cache else None

        profile = None
        profile_key = None
        if cache is not None:
            from .artifacts import ArtifactCache

            profile_key = ArtifactCache.digest(
                "sp-profile",
                netlist.structural_hash(),
                workload_id or "",
                ArtifactCache.stream_digest(operands),
                len(operands),
                aging.profile_lanes,
            )
            profile = cache.load_profile(profile_key)
        if profile is None:
            profile = profile_workload_streams(
                netlist,
                {workload_id or "stream": operands},
                lanes=aging.profile_lanes,
                workers=workers if workers is not None else aging.profile_workers,
            )
            if cache is not None:
                cache.store_profile(profile_key, profile)

        sta = AgingAwareSta(
            netlist,
            config=aging,
            gated_instances=gated_instances,
        )
        aged_model = None
        increase = None
        model_key = None
        if cache is not None:
            import collections.abc

            from .artifacts import ArtifactCache

            if not gated_instances:
                gated_key = []
            elif isinstance(gated_instances, collections.abc.Mapping):
                gated_key = sorted(gated_instances.items())
            else:
                gated_key = sorted(gated_instances)
            model_key = ArtifactCache.digest(
                "aged-delays",
                netlist.structural_hash(),
                profile_key
                or ArtifactCache.digest("sp", sorted(profile.sp.items())),
                sta.corner.name,
                aging.lifetime_years,
                sta.corner.temperature_c,
                aging.clock_gating_sp,
                gated_key,
            )
            cached = cache.load_delay_model(model_key)
            if cached is not None:
                aged_model, increase = cached
        if aged_model is None:
            sta.at_age(aging.lifetime_years)
            aged_model, increase = sta.aged_delay_model(profile)
            if cache is not None:
                cache.store_delay_model(model_key, aged_model, increase)
        result = sta.analyze(
            profile,
            clock_period_ns=clock_period_ns,
            aged_model=aged_model,
            delay_increase=increase,
        )
        self.last_cache_stats = (
            (cache.hits, cache.misses) if cache is not None else None
        )
        return profile, result

    # Phase 2 ----------------------------------------------------------
    def run_error_lifting(
        self,
        netlist: Netlist,
        sta_report,
        isa_mapper,
        workers: Optional[int] = None,
    ):
        """Formal test construction for every unique endpoint pair.

        Accepts either a raw :class:`~repro.sta.timing.StaReport` or the
        :class:`~repro.sta.aging_sta.AgingStaResult` wrapper phase 1
        produces.  ``workers`` overrides ``config.lifting.workers`` for
        this run; pairs shard across processes with deterministic
        result ordering.
        """
        from ..lifting.lifter import ErrorLifter

        report = getattr(sta_report, "report", sta_report)
        lifter = ErrorLifter(netlist, self.config.lifting, isa_mapper)
        return lifter.lift(report, workers=workers)

    # Phase 3 ----------------------------------------------------------
    def build_aging_library(self, lifting_report, name: str = "vega_tests"):
        from ..integration.library_gen import AgingLibrary

        return AgingLibrary.from_lifting_report(
            lifting_report, name=name, seed=self.config.integration.random_seed
        )

    # Checkpoint keys --------------------------------------------------
    def _checkpoint_keys(
        self,
        netlist: Netlist,
        operands: Sequence[Mapping[str, int]],
        clock_period_ns: Optional[float],
        gated_instances,
        isa_mapper,
    ) -> dict:
        """Content-addressed keys for the three phase checkpoints.

        Keys cascade — phase 2's digest embeds phase 1's, phase 3's
        embeds phase 2's — so any changed input invalidates every
        downstream checkpoint automatically.  Parallelism and
        degradation knobs (``workers``, ``keep_going``) are excluded:
        they do not change results.
        """
        import collections.abc

        from ..aging.corners import WORST_CORNER
        from .artifacts import ArtifactCache

        aging = self.config.aging
        lifting = self.config.lifting
        if not gated_instances:
            gated_key: list = []
        elif isinstance(gated_instances, collections.abc.Mapping):
            gated_key = sorted(gated_instances.items())
        else:
            gated_key = sorted(gated_instances)
        mapper_key = [
            getattr(isa_mapper, "unit", type(isa_mapper).__name__),
            [repr(a) for a in (isa_mapper.assumptions() if isa_mapper else [])],
        ]
        phase1 = ArtifactCache.digest(
            "ckpt-phase1",
            netlist.structural_hash(),
            ArtifactCache.stream_digest(operands),
            len(operands),
            clock_period_ns,
            gated_key,
            [
                aging.lifetime_years,
                WORST_CORNER.temperature_c,
                aging.clock_margin,
                aging.max_paths_per_endpoint,
                aging.clock_gating_sp,
                aging.profile_lanes,
            ],
        )
        phase2 = ArtifactCache.digest(
            "ckpt-phase2",
            phase1,
            mapper_key,
            [
                lifting.enable_mitigation,
                lifting.bmc_depth,
                lifting.bmc_conflict_budget,
                list(lifting.constants),
            ],
        )
        phase3 = ArtifactCache.digest(
            "ckpt-phase3", phase2, self.config.integration.random_seed
        )
        return {"phase1": phase1, "phase2": phase2, "phase3": phase3}

    # Full chain -------------------------------------------------------
    def run(
        self,
        netlist: Netlist,
        operand_stream: Sequence[Mapping[str, int]],
        isa_mapper,
        clock_period_ns: Optional[float] = None,
        gated_instances: Optional[Sequence[str]] = None,
        resume: bool = False,
        suite_name: str = "vega_tests",
    ) -> WorkflowReport:
        """Chain the three phases; checkpoint each through the cache.

        With ``config.cache_dir`` set, every completed phase publishes
        its result as a pickled checkpoint keyed by the full input
        digest, so a killed or failed run restarted with ``resume=True``
        picks up at the first incomplete phase — completed phases load
        from disk and recompute nothing (a resumed phase 1 steps zero
        simulator cycles).  The run's spans/counters/events are attached
        to the report as ``report.telemetry`` (an enclosing
        ``telemetry.use(...)`` is honoured; otherwise a fresh instance
        is installed for the duration of the run).
        """
        import contextlib

        operands = list(operand_stream)
        report = WorkflowReport(netlist_name=netlist.name)
        cache = self._artifact_cache()
        keys = (
            self._checkpoint_keys(
                netlist, operands, clock_period_ns, gated_instances, isa_mapper
            )
            if cache is not None
            else {}
        )

        def _load(phase: str):
            if cache is None or not resume:
                return None
            return cache.load_checkpoint(keys[phase])

        def _publish(phase: str, value) -> None:
            if cache is not None:
                cache.store_checkpoint(keys[phase], value)

        with contextlib.ExitStack() as stack:
            tele = telemetry.active()
            if tele is None:
                tele = stack.enter_context(telemetry.use(telemetry.Telemetry()))
            report.telemetry = tele

            with telemetry.span(
                "phase1.aging_analysis", netlist=netlist.name
            ) as span:
                payload = _load("phase1")
                if payload is not None:
                    report.sp_profile, report.sta_report = payload
                    report.resumed_phases.append("phase1")
                    span.annotate(resumed=True)
                else:
                    report.sp_profile, report.sta_report = (
                        self.run_aging_analysis(
                            netlist,
                            operands,
                            clock_period_ns=clock_period_ns,
                            gated_instances=gated_instances,
                        )
                    )
                    _publish(
                        "phase1", (report.sp_profile, report.sta_report)
                    )
                span.annotate(
                    violations=len(report.sta_report.report.violations)
                )

            with telemetry.span("phase2.error_lifting") as span:
                payload = _load("phase2")
                if payload is not None:
                    report.lifting_report = payload
                    report.resumed_phases.append("phase2")
                    span.annotate(resumed=True)
                else:
                    report.lifting_report = self.run_error_lifting(
                        netlist, report.sta_report, isa_mapper
                    )
                    _publish("phase2", report.lifting_report)
                span.annotate(
                    pairs=len(report.lifting_report.pairs),
                    tests=len(report.lifting_report.test_cases),
                    errors=len(report.lifting_report.error_pairs),
                )

            with telemetry.span("phase3.test_integration") as span:
                payload = _load("phase3")
                if payload is not None:
                    report.test_suite = payload
                    report.resumed_phases.append("phase3")
                    span.annotate(resumed=True)
                else:
                    report.test_suite = self.build_aging_library(
                        report.lifting_report, name=suite_name
                    )
                    _publish("phase3", report.test_suite)
                span.annotate(
                    tests=len(report.test_suite.test_cases),
                    suite_cycles=report.test_suite.suite_cycles(),
                )
        return report

"""One process of a benchmark run: set-up, measured passes, checks.

``run.py`` starts this module as a child process, from the root of a
checkout with ``src`` on ``PYTHONPATH``:

* ``--setup-only`` times one set-up (import the program, build the
  unit's netlist, collect the operand streams) and prints
  ``{"setup_s": ...}``;
* otherwise it sets up, runs whole passes of the workload until
  ``--seconds`` is spent (at least one), checks every pass's outputs,
  and prints the result object as its last line.  With ``--trace 1``
  it runs one untraced pass and one traced pass, writes the JSONL trace
  and prints the per-layer table.

A pass runs the workload's stages through public entry points only:
build (the three ``VegaWorkflow`` phase methods), campaign (failure
catalogue, then ``CampaignEngine.run``), train/triage (alu-fleet only)
and serve (``ScheduleSession.run``).  Every pass uses fresh artifact
cache directories, so nothing is read back from an earlier pass or run.
"""

from __future__ import annotations

import time

#: Taken before the program is imported: set-up time includes imports.
_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import layers  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    #: Fleet size of the campaign, triage and serve stages.
    devices: int
    #: Rounds of campaign and serve runs per pass.  On alu-fleet they
    #: interleave with the surrogate stages, so a stage's samples spread
    #: over the pass; campaign and serve times are means over rounds.
    rounds: int
    #: Builds per round after the first build (cheap on the ALU), so
    #: suite_build_s is a median too; the FPU builds once per pass.
    rebuilds: int
    #: Run the surrogate train and triage stages.
    triage: bool
    #: The suite ``repro run --unit <unit>`` builds at its defaults.
    pairs: int
    tests: int
    cycles: int
    suite_sha256: str
    #: The unit takes the packed campaign path (``PACKED_UNITS``).
    packed: bool
    #: The workload seed drives the campaign and triage fleet draws and
    #: the serve policy's sampling stream.  Otherwise every stage runs
    #: at the library's default seeds: on a 32-device FPU fleet the
    #: draw alone moves the simulated work by about 17 %.
    seeded: bool


WORKLOADS: Dict[str, Workload] = {
    "fpu-pipeline": Workload(
        name="fpu-pipeline",
        unit="fpu",
        devices=32,
        rounds=3,
        rebuilds=0,
        triage=False,
        pairs=30,
        tests=30,
        cycles=1531,
        suite_sha256=(
            "384671342ecef789c3e31d82f8dd18a863a3971c4af826569279f97696a102b1"
        ),
        packed=False,
        seeded=False,
    ),
    "alu-fleet": Workload(
        name="alu-fleet",
        unit="alu",
        devices=512,
        rounds=3,
        rebuilds=2,
        triage=True,
        pairs=3,
        tests=4,
        cycles=134,
        suite_sha256=(
            "2d84181d4eb74635699617f14e04441cf2dd477604e1cb381fd2e5055b543444"
        ),
        packed=True,
        seeded=True,
    ),
}

#: ``repro run`` defaults: 3 % sign-off margin, 50 paths per endpoint.
CLOCK_MARGIN = 0.03
MAX_PATHS_PER_ENDPOINT = 50

#: Ages of the base-onset sweep ``CampaignEngine.for_unit`` makes.
ONSET_SWEEP_YEARS = (2.5, 5.0, 7.5, 10.0)

#: Flagged devices re-analyzed exactly to check the tail is index-pure.
RECHECK_DEVICES = 8

#: Runs of the triage-tail campaign; they must agree byte for byte.
TAIL_RUNS = 2

RECALL_FLOOR = 0.95
ATTRIBUTED_FLOOR = 0.90


def derive_seed(tag: str, seed: int) -> int:
    """A 32-bit program seed derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench:{tag}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def program_seed(workload: Workload, tag: str, seed: int, default: int) -> int:
    """The seed a stage passes to the program."""
    return derive_seed(tag, seed) if workload.seeded else default


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Output checks of a run; each is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


class Clock:
    """Times each public call and opens its benchmark span.

    The span is a no-op unless a telemetry instance is active (the
    traced pass), so the untraced passes measure the program alone.
    """

    def __init__(self, telemetry) -> None:
        self._telemetry = telemetry
        self.times: Dict[str, List[float]] = {}

    @contextmanager
    def call(self, name: str):
        with self._telemetry.span(layers.PREFIX + name):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.times.setdefault(name, []).append(
                    time.perf_counter() - start
                )

    @contextmanager
    def stage(self, name: str):
        with self._telemetry.span(layers.STAGE_PREFIX + name):
            yield

    def median(self, name: str) -> float:
        return statistics.median(self.times[name])

    def mean(self, name: str) -> float:
        return statistics.mean(self.times[name])

    def total(self, name: str) -> float:
        return sum(self.times.get(name, ()))


@dataclass
class Setup:
    netlist: object
    stream: list
    gated: dict
    mapper: object
    setup_s: float


def set_up(workload: Workload) -> Setup:
    """Import the program, build the unit's netlist and its streams.

    Each pass after the first sets up again (untimed): the simulator
    and STA keep per-netlist compiled code in memory, and a pass must
    not start with what an earlier pass left there.
    """
    from repro.core.experiments import ExperimentContext

    context = ExperimentContext()
    unit = context.unit(workload.unit)
    netlist = unit.netlist
    stream = context.stream(workload.unit)
    gated = unit.gated_instances()
    mapper = unit.mapper
    return Setup(
        netlist=netlist,
        stream=stream,
        gated=gated,
        mapper=mapper,
        setup_s=time.perf_counter() - _PROCESS_T0,
    )


@dataclass
class PassResult:
    wall_s: float
    metrics: Dict[str, float]
    digests: Dict[str, str]
    facts: Dict[str, float] = field(default_factory=dict)


def _dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def run_pass(
    workload: Workload,
    setup: Setup,
    seed: int,
    pass_dir: str,
    checks: Checks,
) -> PassResult:
    """One whole pass of the workload's stages, checked.

    The stages that run repeatedly (campaign, serve, and the ALU build)
    run in rounds, one call of each per round.  On alu-fleet the rounds
    fall before, between and after the surrogate stages, so their
    samples spread over the pass instead of sharing one stretch of a
    noisy machine.
    """
    from repro.campaign import CampaignEngine
    from repro.core import telemetry
    from repro.core.artifacts import ArtifactCache
    from repro.core.config import (
        AgingAnalysisConfig,
        CampaignConfig,
        SchedulerConfig,
        SurrogateConfig,
        VegaConfig,
    )
    from repro.core.experiments import CLOCK_CHAIN_LENGTH
    from repro.core.lifetime import LifetimeSimulator
    from repro.core.workflow import VegaWorkflow
    from repro.lifting.lifter import ErrorLifter, PairOutcome
    from repro.netlist.cells import VEGA28
    from repro.scheduler import ScheduleSession
    from repro.surrogate import (
        SurrogateValidationError,
        generate_dataset,
        profiled_fleet,
        train_surrogate,
        triage_fleet,
    )

    clock = Clock(telemetry)
    caches: List[ArtifactCache] = []
    netlist, unit_name = setup.netlist, workload.unit
    aging = AgingAnalysisConfig(
        clock_margin=CLOCK_MARGIN,
        max_paths_per_endpoint=MAX_PATHS_PER_ENDPOINT,
    )
    metrics: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    facts: Dict[str, float] = {}
    workflow_hits = 0

    def fresh_cache() -> ArtifactCache:
        cache = ArtifactCache(os.path.join(pass_dir, "cache"))
        caches.append(cache)
        return cache

    def build():
        """The three VegaWorkflow phases; checks the suite digest."""
        nonlocal workflow_hits
        index = len(clock.times.get("build", ()))
        workflow = VegaWorkflow(
            # A fresh directory per build: a repeat must not hit the
            # profile or delay model the previous build stored.
            VegaConfig(
                aging=aging, cache_dir=os.path.join(pass_dir, f"build-{index}")
            )
        )
        with clock.stage("build"):
            start = time.perf_counter()
            with clock.call("sta.phase1"):
                profile, sta = workflow.run_aging_analysis(
                    netlist, setup.stream, gated_instances=setup.gated
                )
            with clock.call("lifting.lift"):
                lifting = workflow.run_error_lifting(netlist, sta, setup.mapper)
            with clock.call("integration.build"):
                suite = workflow.build_aging_library(lifting)
            clock.times.setdefault("build", []).append(time.perf_counter() - start)
        workflow_hits += workflow.last_cache_stats[0]
        source_sha = sha256(suite.suite_source())
        digests.setdefault("suite", source_sha)
        checks.expect(
            source_sha == digests["suite"],
            f"build {index}: suite source differs from build 0",
        )
        return profile, sta, lifting, suite

    def same_digests(name: str, texts: List[str]) -> None:
        checks.expect(
            len({sha256(t) for t in texts}) == 1,
            f"{name}: repeated runs differ",
        )
        digests[name] = sha256(texts[0])

    pass_start = time.perf_counter()

    # -- build -----------------------------------------------------------
    profile, sta, lifting, suite = build()
    pairs = len(lifting.pairs)
    s_pairs = sum(1 for p in lifting.pairs if p.outcome is PairOutcome.CONSTRUCTED)
    tests = len(suite.test_cases)
    cycles = suite.suite_cycles()
    checks.expect(pairs == workload.pairs, f"pairs {pairs} != {workload.pairs}")
    checks.expect(tests == workload.tests, f"tests {tests} != {workload.tests}")
    checks.expect(
        cycles == workload.cycles, f"suite cycles {cycles} != {workload.cycles}"
    )
    checks.expect(
        digests["suite"] == workload.suite_sha256,
        "suite source differs from the pinned repro run suite",
    )
    checks.expect(s_pairs >= 1, "lifting produced no S pair")

    # -- campaign set-up: base onset and failure catalogue ---------------
    fleet = CampaignConfig(
        devices=workload.devices,
        seed=program_seed(workload, "campaign", seed, CampaignConfig().seed),
    )
    with clock.stage("campaign"):
        with clock.call("sta.onset_sweep"):
            sweep = LifetimeSimulator(
                netlist,
                profile,
                config=aging,
                gated_instances=setup.gated,
                clock_chain_length=CLOCK_CHAIN_LENGTH,
            ).sweep(list(ONSET_SWEEP_YEARS))
        base_onset = sweep.first_onset_years
        if base_onset is None:
            base_onset = 0.6 * fleet.mission_years
        with clock.call("lifting.catalogue"):
            # The catalogue UnitExperiment.failure_models builds: failing
            # netlists of the pairs that produced test cases.
            failing = ErrorLifter(netlist, mapper=setup.mapper).failing_netlists(
                sta.report
            )
            constructed = {(p.start, p.end) for p in lifting.pairs if p.test_cases}
            models = [
                f.model
                for f in failing
                if (f.model.start, f.model.end) in constructed
            ]

    # -- rounds: campaign and serve runs ---------------------------------
    # Serve runs the default fleet draw on both workloads: a Thompson
    # trajectory changes with the fleet enough (mean time to detection
    # 39-58 cycles over five 512-device ALU fleets) to drown the
    # throughput it is meant to measure.
    served_fleet = CampaignConfig(devices=workload.devices)
    scheduler = SchedulerConfig(
        policy="thompson",
        policy_seed=program_seed(
            workload, "policy", seed, SchedulerConfig().policy_seed
        ),
    )
    reports, outcomes = [], []

    def run_round() -> None:
        for _ in range(workload.rebuilds):
            build()
        with clock.stage("campaign"), clock.call("campaign.run"):
            reports.append(
                CampaignEngine(
                    netlist,
                    unit_name,
                    suite,
                    models,
                    config=fleet,
                    cache=fresh_cache(),
                    base_onset_years=base_onset,
                ).run()
            )
        with clock.stage("serve"), clock.call("scheduler.run"):
            outcomes.append(
                ScheduleSession(
                    netlist,
                    unit_name,
                    suite,
                    models,
                    config=served_fleet,
                    scheduler=scheduler,
                    cache=fresh_cache(),
                    base_onset_years=base_onset,
                ).run()
            )

    run_round()

    # -- train / triage (surrogate) --------------------------------------
    if workload.triage:
        # The library's default surrogate seed: a seed derived from the
        # workload seed fails closed (held-out recall below the floor)
        # on some seeds, which would make the workload fail, not vary.
        surrogate = SurrogateConfig()
        with clock.stage("train"):
            with clock.call("surrogate.sweep"):
                dataset = generate_dataset(
                    netlist, VEGA28, profile, surrogate, cache=fresh_cache()
                )
            with clock.call("surrogate.fit"):
                try:
                    model, validation = train_surrogate(dataset, surrogate)
                except SurrogateValidationError as exc:
                    checks.expect(False, f"surrogate failed closed: {exc}")
                    raise
        checks.expect(
            validation.recall >= RECALL_FLOOR,
            f"holdout recall {validation.recall:.3f} < {RECALL_FLOOR}",
        )
        run_round()
        triage = CampaignConfig(
            devices=workload.devices, seed=fleet.seed, suites=("vega",)
        )
        with clock.stage("triage"):
            with clock.call("surrogate.score"):
                outcome = triage_fleet(model, netlist, profile, triage, surrogate)
            flagged = outcome.flagged_indices
            with clock.call("surrogate.exact_tail"):
                tail = profiled_fleet(
                    netlist, VEGA28, profile, models, triage, surrogate,
                    indices=flagged,
                )
            with clock.call("surrogate.exact_recheck"):
                recheck = profiled_fleet(
                    netlist, VEGA28, profile, models, triage, surrogate,
                    indices=flagged[:RECHECK_DEVICES],
                )
            tail_reports = []
            for _ in range(TAIL_RUNS):
                with clock.call("campaign.tail"):
                    tail_reports.append(
                        CampaignEngine(
                            netlist,
                            unit_name,
                            suite,
                            models,
                            config=triage,
                            cache=fresh_cache(),
                            fleet=tail,
                        ).run()
                    )
        checks.expect(
            recheck == tail[:RECHECK_DEVICES],
            "exact tail specs depend on which devices were analyzed",
        )
        cleared = len(outcome.cleared)
        checks.expect(len(flagged) >= 1, "triage flagged no device")
        checks.expect(cleared >= 1, "triage cleared no device")

    while len(outcomes) < workload.rounds:
        run_round()
    wall_s = time.perf_counter() - pass_start

    same_digests("campaign", [r.to_json() for r in reports])
    report = reports[0]
    checks.expect(
        report.devices == workload.devices,
        f"campaign ran {report.devices} of {workload.devices} devices",
    )
    checks.expect(report.faulty_devices >= 1, "campaign fleet has no faulty device")
    coverage = report.suite_coverage_pct("vega")
    checks.expect(coverage > 0.0, "the vega suite detected no faulty device")
    same_digests("belief", [o.belief.to_json() for o in outcomes])
    served = outcomes[0].report
    checks.expect(served.detected >= 1, "serve detected no device")
    checks.expect(
        served.mean_ttd_cycles is not None, "serve has no time to detection"
    )

    metrics["total_s"] = wall_s
    metrics["suite_build_s"] = clock.median("build")
    metrics["suite_tests"] = tests
    metrics["suite_cycles"] = cycles
    metrics["lift_success_pct"] = 100.0 * s_pairs / pairs if pairs else 0.0
    metrics["campaign_devices_per_s"] = workload.devices / (
        clock.total("sta.onset_sweep")
        + clock.total("lifting.catalogue")
        + clock.mean("campaign.run")
    )
    metrics["vega_coverage_pct"] = coverage
    metrics["serve_events_per_s"] = served.events / clock.mean("scheduler.run")
    metrics["serve_mean_ttd_cycles"] = float(served.mean_ttd_cycles or 0.0)
    facts["lifting.s_pairs"] = s_pairs
    facts["lifting.pairs_attempted"] = pairs

    if workload.triage:
        same_digests("triage", [r.to_json() for r in tail_reports])
        triage_s = (
            clock.total("surrogate.score")
            + clock.total("surrogate.exact_tail")
            + clock.median("campaign.tail")
        )
        facts["surrogate_train_s"] = clock.total("surrogate.sweep") + clock.total(
            "surrogate.fit"
        )
        facts["holdout_recall"] = validation.recall
        facts["triage_devices_per_s"] = workload.devices / triage_s
        facts["triage_cleared_pct"] = 100.0 * cleared / workload.devices

    cache_hits = workflow_hits + sum(cache.hits for cache in caches)
    checks.expect(cache_hits == 0, f"cold pass read {cache_hits} cache hit(s)")
    facts["cache.hits"] = cache_hits
    facts["cache.bytes_written"] = _dir_bytes(pass_dir)
    return PassResult(wall_s=wall_s, metrics=metrics, digests=digests, facts=facts)


def _ratio_metrics(records, result: PassResult):
    """Per-layer ratios, each with its numerator and base."""
    counters = layers.final_counters(records)
    self_s = layers.self_times(records)
    campaign_deltas = layers.span_counters(records, "campaign.run")
    lift_deltas = layers.span_counters(records, "lifting.lift")
    Ratio = layers.Ratio
    return {
        "sim.cycles_per_s": (
            Ratio(campaign_deltas.get("sim.cycles", 0), self_s.get("campaign.run", 0.0)),
            "campaign cycles",
            "campaign.run s",
        ),
        "lifting.success_ratio": (
            Ratio(result.facts["lifting.s_pairs"], result.facts["lifting.pairs_attempted"]),
            "S pairs",
            "pairs attempted",
        ),
        "campaign.memo_hit_ratio": (
            Ratio(counters.get("campaign.outcome_memo_hits", 0), counters.get("campaign.devices", 0)),
            "outcome memo hits",
            "devices",
        ),
        "campaign.fallback_ratio": (
            Ratio(counters.get("campaign.packed_fallbacks", 0), counters.get("campaign.packed_planes", 0)),
            "packed fallbacks",
            "packed planes",
        ),
        "scheduler.memo_hit_ratio": (
            Ratio(counters.get("scheduler.outcome_memo_hits", 0), counters.get("scheduler.results", 0)),
            "outcome memo hits",
            "results",
        ),
        "lifting.solver_share": (
            Ratio(lift_deltas.get("sat.solve_s", 0.0), self_s.get("lifting.lift", 0.0)),
            "sat.solve_s",
            "lifting.lift s",
        ),
    }


def layer_metrics(records, result: PassResult, untraced_total_s: float):
    """Every per-layer metric of one traced pass; absent layers read 0."""
    counters = layers.final_counters(records)
    self_s = layers.self_times(records)
    lift_deltas = layers.span_counters(records, "lifting.lift")
    ratios = _ratio_metrics(records, result)
    table = layers.layer_table(records, ratios)
    prefilter_s = sum(
        r.get("dur_s", 0.0)
        for r in records
        if r.get("type") == "span" and r.get("name") == "campaign.prefilter"
    )
    metric = {
        "sim.cycles": counters.get("sim.cycles", 0),
        "sim.compile_misses": counters.get("sim.compile.misses", 0),
        "sim.cycles_per_s": ratios["sim.cycles_per_s"][0].value,
        "sta.phase1_s": self_s.get("sta.phase1", 0.0),
        "sta.paths_timed": counters.get("sta.paths_timed", 0),
        "sta.onset_sweep_s": self_s.get("sta.onset_sweep", 0.0),
        "surrogate.sweep_s": self_s.get("surrogate.sweep", 0.0),
        "surrogate.oracle_probes": counters.get("surrogate.oracle.probes", 0),
        "surrogate.fit_s": self_s.get("surrogate.fit", 0.0),
        "surrogate.score_s": self_s.get("surrogate.score", 0.0),
        "surrogate.exact_tail_s": self_s.get("surrogate.exact_tail", 0.0),
        "surrogate_train_s": result.facts.get("surrogate_train_s", 0.0),
        "holdout_recall": result.facts.get("holdout_recall", 0.0),
        "triage_devices_per_s": result.facts.get("triage_devices_per_s", 0.0),
        "triage_cleared_pct": result.facts.get("triage_cleared_pct", 0.0),
        "lifting.lift_s": self_s.get("lifting.lift", 0.0),
        "sat.solve_s": lift_deltas.get("sat.solve_s", 0.0),
        "lifting.non_solver_s": self_s.get("lifting.lift", 0.0)
        - lift_deltas.get("sat.solve_s", 0.0),
        "sat.conflicts": counters.get("sat.conflicts", 0),
        "sat.propagations": counters.get("sat.propagations", 0),
        "sat.decisions": counters.get("sat.decisions", 0),
        "bmc.frames": counters.get("bmc.frames", 0),
        "bmc.queries": counters.get("bmc.queries", 0),
        "lifting.pairs": counters.get("lifting.pairs", 0),
        "lifting.success_ratio": ratios["lifting.success_ratio"][0].value,
        "lifting.catalogue_s": self_s.get("lifting.catalogue", 0.0),
        "integration.build_s": self_s.get("integration.build", 0.0),
        "integration.suite_runs": counters.get("integration.suite_runs", 0),
        "campaign.run_s": self_s.get("campaign.run", 0.0),
        "campaign.tail_s": self_s.get("campaign.tail", 0.0),
        "campaign.stalls": counters.get("campaign.stalls", 0),
        "campaign.memo_hit_ratio": ratios["campaign.memo_hit_ratio"][0].value,
        "campaign.prefilter_s": prefilter_s,
        "campaign.packed_planes": counters.get("campaign.packed_planes", 0),
        "campaign.packed_replays": counters.get("campaign.packed_replays", 0),
        "campaign.packed_fallbacks": counters.get("campaign.packed_fallbacks", 0),
        "campaign.fallback_ratio": ratios["campaign.fallback_ratio"][0].value,
        "scheduler.run_s": self_s.get("scheduler.run", 0.0),
        "scheduler.dispatches": counters.get("scheduler.dispatches", 0),
        "scheduler.results": counters.get("scheduler.results", 0),
        "scheduler.ingest_rejected": counters.get("scheduler.ingest_rejected", 0),
        "scheduler.client_retries": counters.get("scheduler.client_retries", 0),
        "scheduler.checkpoints": counters.get("scheduler.checkpoints", 0),
        "scheduler.memo_hit_ratio": ratios["scheduler.memo_hit_ratio"][0].value,
        "cache.bytes_written": result.facts["cache.bytes_written"],
        "cache.hits": result.facts["cache.hits"],
        "trace.overhead_pct": 100.0
        * (result.wall_s - untraced_total_s)
        / untraced_total_s,
        "trace.attributed_pct": 100.0 * table.attributed.value,
    }
    return metric, table


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", default=".")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument(
        "--setup-samples", default="",
        help="comma-separated set-up times of the probe processes",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup = set_up(workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup.setup_s}))
        return 0

    from repro.core import telemetry

    setup_samples = [float(s) for s in args.setup_samples.split(",") if s]
    setup_samples.append(setup.setup_s)
    checks = Checks()
    passes: List[PassResult] = []
    measure_start = time.perf_counter()
    while True:
        pass_dir = os.path.join(args.run_dir, f"pass-{len(passes)}")
        if passes:
            setup = set_up(workload)
        passes.append(run_pass(workload, setup, args.seed, pass_dir, checks))
        elapsed = time.perf_counter() - measure_start
        # Another pass only when it still fits in the measuring time.
        if args.trace or elapsed + passes[-1].wall_s > args.seconds:
            break

    print(
        f"{workload.name} seed {args.seed}: {len(passes)} untraced pass(es), "
        f"setup samples {', '.join(f'{s:.3f}' for s in setup_samples)} s, "
        f"suite sha256 {passes[0].digests['suite']}"
    )
    if args.trace:
        tele = telemetry.Telemetry(run_id=f"perfbench-{workload.name}-{args.seed}")
        pass_dir = os.path.join(args.run_dir, "pass-traced")
        setup = set_up(workload)
        with telemetry.use(tele):
            traced = run_pass(workload, setup, args.seed, pass_dir, checks)
        checks.expect(
            traced.digests == passes[0].digests,
            "traced pass outputs differ from the untraced pass",
        )
        records = tele.trace_records()
        if args.trace_file:
            tele.write_jsonl(args.trace_file)
            print(f"trace written to {args.trace_file}")
        metric, table = layer_metrics(
            records, traced, statistics.median(p.wall_s for p in passes)
        )
        print(table.render())
        checks.expect(
            table.attributed.value >= ATTRIBUTED_FLOOR,
            f"layer spans cover {100 * table.attributed.value:.1f}% of the "
            f"traced wall time (< {100 * ATTRIBUTED_FLOOR:.0f}%)",
        )
        planes = metric["campaign.packed_planes"]
        if workload.packed:
            checks.expect(planes > 0, "packed campaign path did not run")
        else:
            checks.expect(planes == 0, "serial campaign path expected")
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        metrics = {
            name: {"value": metric[name], "unit": units[name]} for name in units
        }
    else:
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
        values = {
            name: statistics.median(p.metrics[name] for p in passes)
            for name in passes[0].metrics
        }
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = _rss_mb()
        metrics = {
            name: {"value": values[name], "unit": units[name]} for name in units
        }
        for name, entry in metrics.items():
            print(f"  {name:24s} {entry['value']:.6g} {entry['unit']}")
    for what in checks.failures:
        print(f"failed: {what}")
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def _declared(section: str) -> List[dict]:
    """The metrics BENCHMARK.json declares in ``section``."""
    with open("BENCHMARK.json") as fp:
        return json.load(fp)[section]


if __name__ == "__main__":
    sys.exit(main())

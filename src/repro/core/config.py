"""Configuration for the Vega workflow.

One dataclass gathers every tunable the three phases consume, with
defaults matching the paper's experimental setup (10-year mission
lifetime, worst-case corner, mitigation off by default, 1 % overhead
budget for profile-guided integration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Seconds in one year, used when converting lifetimes for the BTI model.
SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


@dataclass
class AgingAnalysisConfig:
    """Phase 1 — SP profiling and aging-aware STA.

    Aging libraries are characterized at the STA corner's temperature
    (105 degC at the sign-off corner), not at a setting of their own.

    Attributes:
        lifetime_years: Assumed mission lifetime; the paper uses the
            10-year figure common for mission-critical parts (AEC Q100).
        clock_margin: Fraction of post-synthesis slack retained when the
            design's target period is derived.  Real flows sign off with
            a few percent of positive slack; aging must be able to eat
            through it for violations to appear, exactly as in the paper
            where designs "initially meet required timing constraints".
        max_paths_per_endpoint: Cap on enumerated violating paths per
            capture flop, keeping Table 3 path counts bounded.
        clock_gating_sp: SP assumed for gated-off clock buffers.  Clock
            gating parks the gated subtree at a constant level, the
            paper's "primary cause of uneven transistor aging" in the
            clock network (§2.3.1).
        profile_workers: Process count for sharding SP profiling across
            ``multiprocessing`` workers (chunked per workload and cycle
            range).  1 runs serially, 0 means one worker per CPU;
            profiles are bit-identical regardless of the worker count,
            and platforms without ``fork`` fall back to serial.
        profile_lanes: Packed (bit-parallel) stimulus vectors per
            simulated word during SP profiling.
    """

    lifetime_years: float = 10.0
    clock_margin: float = 0.03
    max_paths_per_endpoint: int = 400
    clock_gating_sp: float = 0.02
    profile_workers: int = 1
    profile_lanes: int = 256


@dataclass
class ErrorLiftingConfig:
    """Phase 2 — failure modelling, BMC, instruction construction.

    Attributes:
        enable_mitigation: Generate edge-qualified failure models
            (§3.3.4), up to 4 test cases per endpoint pair instead of 2.
        bmc_depth: Unroll depth for the bounded model checker.  Our
            modules are feed-forward pipelines, so pipeline depth + 2
            covers all reachable behaviour.
        bmc_conflict_budget: CDCL conflict budget per query; exhausting
            it yields the paper's "FF" (formal failure) outcome.
        constants: The constant wrong values C to try (Eq. 2/3).
        workers: Process count for sharding endpoint pairs across
            ``multiprocessing`` workers.  1 (the default) runs serially,
            0 means one worker per CPU; platforms without ``fork``
            silently fall back to serial.  Results are deterministic
            regardless of the worker count.
        keep_going: Degrade gracefully when lifting a single endpoint
            pair raises: the pair is recorded as a ``PairResult`` with
            its ``error`` set (FF in the Table 4 accounting, plus a
            ``lifting.pair_error`` trace event) and the run continues
            with the remaining pairs.  Disable to re-raise immediately,
            e.g. while debugging a mapper.
    """

    enable_mitigation: bool = False
    bmc_depth: int = 4
    bmc_conflict_budget: int = 200_000
    constants: Tuple[int, ...] = (0, 1)
    workers: int = 1
    keep_going: bool = True


@dataclass
class TestIntegrationConfig:
    """Phase 3 — library generation and profile-guided integration.

    (The ``Test`` prefix is domain vocabulary, not a pytest suite —
    hence ``__test__ = False`` below.)

    Attributes:
        overhead_threshold: Maximum tolerated estimated overhead
            (fraction of dynamic instructions) before the integrator
            inserts a probability gate.
        min_block_executions: A basic block must run at least this many
            times in the profile to be a candidate integration point
            ("routinely accessed").
        max_block_share: ...and at most this fraction of total dynamic
            instructions ("not frequently invoked").
        random_seed: Seed for randomized test scheduling.
    """

    __test__ = False  # keep pytest from collecting this dataclass

    overhead_threshold: float = 0.01
    min_block_executions: int = 4
    max_block_share: float = 0.10
    random_seed: int = 2024


@dataclass
class CampaignConfig:
    """Fleet fault-injection campaigns (``repro.campaign``).

    A campaign Monte-Carlos the paper's deployment story: a *fleet* of
    devices, each with its own aging corner and violation-onset draw,
    attacked by the detection suites that a data-center operator would
    schedule.  All randomness flows through named RNG streams
    (:mod:`repro.core.rng`) keyed by ``seed``, so the same config
    always samples the same fleet.

    Attributes:
        devices: Virtual fleet size.
        seed: Campaign seed; every per-device draw derives from it.
        shard_size: Devices per execution shard.  A shard is both the
            unit of parallel work and the unit of resume — each
            completed shard publishes a checkpoint through the artifact
            cache, and a resumed campaign skips completed shards.
        workers: Process count for sharding devices across ``fork``
            workers.  1 runs serially, 0 means one worker per CPU;
            reports are bit-identical for any worker count, and
            platforms without ``fork`` fall back to serial.
        suites: Detection suites to run against every faulty device:
            ``"vega"`` (the lifted library), ``"random"`` (the Table 7
            baseline), ``"silifuzz"`` (the top-down fuzzing baseline).
        strategy: Scheduling strategy for the vega/random suites.
        mission_years: Deployment window; a device whose onset draw
            lands inside it is faulty in the field.
        onset_sigma: Log-normal spread of per-device onset draws around
            the unit's base onset (workload-dependent aging makes onset
            a distribution over the population, not a constant).
        worst_corner_fraction: Fraction of the fleet operating at the
            sign-off worst corner; the rest run the typical corner,
            whose slower aging pushes onset later.
        base_onset_years: Fleet-median violation onset.  ``None`` asks
            the engine to derive it from the unit under analysis
            (:func:`~repro.core.lifetime.base_onset_years`).
        random_suite_size: Test count of the random baseline suite
            (``None``: match the vega library, as Table 7 does).
        silifuzz_snapshots: Corpus size for the SiliFuzz-style baseline.
        max_suite_instructions: Instruction budget per suite execution.
        pack_width: Maximum bit-planes per packed multi-model gate-sim
            group.  Distinct failure models are resolved in these
            groups (one shadow-mux bit-plane per model) before shard
            dispatch; reports are byte-identical for any width, so —
            like ``workers`` — it never enters the campaign key.
    """

    devices: int = 12
    seed: int = 2024
    shard_size: int = 4
    workers: int = 1
    suites: Tuple[str, ...] = ("vega", "random", "silifuzz")
    strategy: str = "sequential"
    mission_years: float = 10.0
    onset_sigma: float = 0.35
    worst_corner_fraction: float = 0.5
    base_onset_years: Optional[float] = None
    random_suite_size: Optional[int] = None
    silifuzz_snapshots: int = 6
    max_suite_instructions: int = 500_000
    pack_width: int = 64
    #: Fraction of the fleet whose dominant wearout mechanism is
    #: hot-carrier injection (:mod:`repro.aging.hci`) instead of BTI.
    #: The mechanism draw uses its own ``campaign.mechanism`` RNG
    #: stream, gated behind ``hci_fraction > 0`` so the default fleet
    #: is byte-identical to pre-HCI campaigns.
    hci_fraction: float = 0.0
    #: Onset multiplier applied to HCI-dominated devices (activity-heavy
    #: workloads push HCI victims to violate earlier than the unit's
    #: BTI-derived base onset), further scaled by the corner's
    #: ``hci_stress_scale``.
    hci_onset_scale: float = 0.75

    def __post_init__(self) -> None:
        if self.pack_width < 1:
            raise ValueError(
                f"pack_width must be >= 1, got {self.pack_width}"
            )


def _check_age_grid(grid: Tuple[float, ...]) -> None:
    # Onset searches bisect the grid, which needs it sorted.
    if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"age_grid must be non-empty and strictly ascending, got {grid!r}"
        )


@dataclass
class SurrogateConfig:
    """ML aging surrogate (``repro.surrogate``).

    The surrogate learns (workload SP profile, corner, age) ->
    (violation onset, worst slack) from labeled pairs generated by the
    exact charlib+STA pipeline, then triages sampled fleets so only
    the predicted-risky tail pays for exact analysis.

    Attributes:
        samples: Training-sweep size (labeled rows generated).
        seed: Seed for the ``surrogate.*`` RNG streams (sample draws,
            per-net workload noise, train/holdout split).
        level_buckets: Logic-depth buckets in the SP feature vector
            (:meth:`repro.sim.probes.SPProfile.feature_vector`).
        skew_min / skew_max: Workload skew-intensity range.  Positive
            intensity pushes SPs toward 0 (the maximally BTI-stressed
            state for ``stress_state == 0`` cells), negative toward 1
            (de-stress); the sampled fleet draws intensities uniformly
            from this range.
        noise: Per-net spread of the skew weights (each net's skew is
            scaled by ``1 - noise * u`` with per-net uniform ``u``), so
            two devices at the same intensity still have distinct
            profiles.
        age_grid: Strictly ascending ages (years) the exact oracle
            bisects for the first violating age when labeling onset;
            also the resolution of exact per-device onsets.
        holdout_fraction: Fraction of the dataset held out from
            training for validation.
        ridge_lambda: L2 regularization of the numpy ridge regressor.
        recall_floor: Minimum risky-tail recall on the held-out rows;
            validation fails closed below it.
        threshold_margin: Relative safety margin added to the
            calibrated triage threshold (flag if predicted onset <=
            threshold * (1 + margin)).
        workers: Fork workers for dataset generation; 0 = one per CPU.
            Datasets are byte-identical for any worker count.
    """

    samples: int = 96
    seed: int = 7
    level_buckets: int = 8
    skew_min: float = -1.2
    skew_max: float = 0.2
    noise: float = 0.5
    age_grid: Tuple[float, ...] = tuple(
        round(1.0 + 0.5 * i, 6) for i in range(31)
    )
    holdout_fraction: float = 0.25
    ridge_lambda: float = 1e-2
    recall_floor: float = 0.95
    threshold_margin: float = 0.25
    workers: int = 1

    def __post_init__(self) -> None:
        _check_age_grid(self.age_grid)


@dataclass
class ResponseConfig:
    """Detection→response reconfiguration modelling (``repro.response``).

    On detection, an operator can derate the clock, re-synthesize the
    violating logic, or approximate the violating cone (automated
    design approximation against aging, arXiv 2203.07962).  The engine
    evaluates each policy against the unit's aged timing and reports
    recovered lifetime vs accuracy/frequency cost.

    Attributes:
        policies: Response policies to evaluate, in order:
            ``"derate"`` (stretch the clock period until the mission-age
            violations clear), ``"resynth"`` (re-synthesize: optimize
            the netlist, prove exactness with the lifting engine's
            equivalence checker, and model the violating cone's cells
            as fresh silicon), ``"approximate"`` (bypass the violating
            cone's capture logic and measure the accuracy cost).
        derate_step / max_derate: Clock-derating search grid (fractions
            of the signed-off period).
        mission_years: Deployment window recovery is measured against.
        age_grid: Strictly ascending ages (years) bisected for the
            first violating age when locating violation onset.
        equiv_depth / equiv_conflict_budget: Sequential-equivalence
            check parameters (:func:`repro.formal.equiv
            .check_equivalence`).
        accuracy_samples: Random operand frames simulated on original
            vs approximated netlists to estimate the accuracy cost.
        accuracy_depth: Cycles each frame is held so results reach the
            output flops.
        seed: Seed for the ``response.accuracy`` RNG stream.
        workers: Fork workers for re-profiling modified netlists;
            0 = one per CPU.  Never enters cache keys or results.
    """

    policies: Tuple[str, ...] = ("derate", "resynth", "approximate")
    derate_step: float = 0.02
    max_derate: float = 0.30
    mission_years: float = 10.0
    age_grid: Tuple[float, ...] = tuple(float(a) for a in range(1, 17))
    equiv_depth: int = 3
    equiv_conflict_budget: int = 150_000
    accuracy_samples: int = 128
    accuracy_depth: int = 3
    seed: int = 17
    workers: int = 1

    def __post_init__(self) -> None:
        _check_age_grid(self.age_grid)


@dataclass
class SchedulerConfig:
    """Fleet scheduler & detection service (``repro.scheduler``).

    The scheduler turns the batch campaign into a service: each tick a
    dispatch policy decides which test each device of a batch runs next
    from the fleet's aging belief state, the devices run it, and the
    verdicts fold back into the belief.

    Attributes:
        policy: Dispatch policy name — ``"sequential"`` (static
            round-robin through the arm catalogue, the paper's
            scheduling), ``"greedy"`` (cost-aware: highest posterior
            detection probability per cycle), or ``"thompson"``
            (Thompson-sampling bandit over the Beta posteriors).
        policy_seed: Seed for the policy's named RNG streams (only the
            Thompson policy draws randomness; draws are keyed by
            ``(policy_seed, tick, device_index)`` so scheduling is
            byte-deterministic).
        batch_size: Maximum devices planned per batch (one scheduling
            *tick*).
        checkpoint_every: Ingested-event interval between belief
            checkpoints.  Checkpoints land on tick boundaries so a
            restarted service resumes from a consistent belief state.
        cycle_budget: Per-device test-cycle budget.  A device stops
            receiving dispatches once its spent cycles would exceed it
            — the "equal per-device cycle budget" axis the policy
            comparison holds constant.
        fleet_blend: Weight of the fleet-level posterior mixed into a
            device's posterior when policies score an arm.  0 scores
            each device in isolation; 1 weighs fleet-wide evidence as
            strongly as the device's own outcomes.
    """

    policy: str = "thompson"
    policy_seed: int = 7
    batch_size: int = 16
    checkpoint_every: int = 25
    cycle_budget: int = 25_000
    fleet_blend: float = 0.5

    def __post_init__(self) -> None:
        # Counts: a zero batch would slice no devices on every tick
        # and never drain the fleet; a zero checkpoint period has no
        # meaning.
        for name in ("batch_size", "checkpoint_every"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class VegaConfig:
    """Top-level configuration: one section per workflow phase.

    Attributes:
        cache_dir: Root of the content-addressed artifact cache.  When
            set, ``run_aging_analysis`` stores/reuses SP profiles and
            aged delay models keyed by (netlist structural hash,
            workload content, cycle count, aging parameters, corner).
            ``None`` disables caching.
    """

    aging: AgingAnalysisConfig = field(default_factory=AgingAnalysisConfig)
    lifting: ErrorLiftingConfig = field(default_factory=ErrorLiftingConfig)
    integration: TestIntegrationConfig = field(
        default_factory=TestIntegrationConfig
    )
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    response: ResponseConfig = field(default_factory=ResponseConfig)
    cache_dir: Optional[str] = None

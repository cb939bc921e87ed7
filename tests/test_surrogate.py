"""The aging surrogate: features, dataset determinism, model, triage.

Covers the `repro.surrogate` package plus its integration points:

* pinned exact values of `SPProfile.feature_vector` on the paper's
  example adder (the dict path) and bit-identity of the vectorized
  `FleetFeaturizer` hot path against it;
* byte-identical dataset generation across worker counts and process
  restarts (including a hypothesis property over seeds/sizes);
* ridge snapshot round trips, digest stability, and the fail-closed
  validation gate;
* triage: exact device specs are a pure function of their index, so
  the re-verified tail's campaign report rows equal the corresponding
  rows of an all-exact campaign byte for byte;
* the scheduler's per-device surrogate priors (belief lookup, digest
  preservation).
"""

import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignEngine
from repro.core import telemetry
from repro.core.config import (
    CampaignConfig,
    ErrorLiftingConfig,
    SurrogateConfig,
)
from repro.core.artifacts import ArtifactCache
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.netlist.cells import make_vega28_library
from repro.scheduler.belief import BROAD_CLASS, FleetBelief
from repro.sim.probes import SPProfile, net_levels
from repro.sta.timing import TimingViolation
from repro.surrogate import (
    FleetFeaturizer,
    RidgeSurrogate,
    SurrogateDataset,
    SurrogateValidationError,
    TriageOutcome,
    device_features,
    device_sp_vector,
    generate_dataset,
    profiled_fleet,
    run_surrogate_campaign,
    surrogate_device_prior,
    train_surrogate,
    triage_fleet,
    validate_model,
)
from repro.surrogate.dataset import sample_draws

#: Short age grid keeping the exact oracle cheap in unit tests; the
#: full 31-point grid is exercised by the CLI smoke and the benchmark.
FAST = SurrogateConfig(
    samples=16,
    seed=7,
    age_grid=(2.0, 5.0, 8.0, 11.0, 14.0),
    workers=1,
)


def ramp_profile(netlist) -> SPProfile:
    """Deterministic SP ramp over the netlist's sorted nets."""
    names = sorted(netlist.nets)
    sp = {
        name: round((i + 1) / (len(names) + 1), 6)
        for i, name in enumerate(names)
    }
    return SPProfile(netlist_name=netlist.name, sp=sp, samples=4)


# ---------------------------------------------------------------------
# Feature extraction (pinned values on the paper adder)
# ---------------------------------------------------------------------
class TestFeatureVector:
    def test_net_levels_pinned(self, paper_adder):
        assert net_levels(paper_adder) == {
            "carry": 1, "s0": 1, "s1": 2, "s1a": 1,
        }

    def test_feature_vector_pinned_values(self, paper_adder):
        profile = ramp_profile(paper_adder)
        vector = profile.feature_vector(paper_adder, buckets=4)
        assert vector.tolist() == [
            0.5,                    # sp_mean over the 14-net ramp
            0.26874189541135135,    # sp_std
            0.07142857142857142,    # sp <= 0.1 fraction (1/14)
            0.07142857142857142,    # sp >= 0.9 fraction (1/14)
            0.3555555873014286,     # toggle proxy mean
            0.47777783333333335,    # dff output mean
            0.8,                    # combinational mean
            0.7777776666666666, 0.6, 0.933333,   # level bucket 0
            0.5, 0.5, 0.5,                        # bucket 1 (empty)
            0.866667, 0.866667, 0.866667,         # bucket 2 (s1 alone)
            0.5, 0.5, 0.5,                        # bucket 3 (empty)
        ]

    def test_level_aggregates_pinned(self, paper_adder):
        profile = ramp_profile(paper_adder)
        assert profile.level_aggregates(paper_adder, buckets=4) == [
            (0.7777776666666666, 0.6, 0.933333),
            (0.5, 0.5, 0.5),
            (0.866667, 0.866667, 0.866667),
            (0.5, 0.5, 0.5),
        ]

    def test_independent_of_profile_dict_order(self, paper_adder):
        profile = ramp_profile(paper_adder)
        reversed_profile = SPProfile(
            netlist_name=profile.netlist_name,
            sp=dict(reversed(list(profile.sp.items()))),
            samples=profile.samples,
        )
        assert np.array_equal(
            profile.feature_vector(paper_adder),
            reversed_profile.feature_vector(paper_adder),
        )

    def test_featurizer_matches_dict_path_bitwise(self, paper_adder):
        profile = ramp_profile(paper_adder)
        featurizer = FleetFeaturizer(paper_adder, buckets=4)
        sp = featurizer.base_vector(profile)
        for corner, age in (
            ("ss_0.81v_105c", 2.0),
            ("tt_0.90v_25c", 7.5),
        ):
            fast = featurizer.vector(sp, corner, age)
            reference = device_features(
                profile, paper_adder, corner, age, buckets=4
            )
            assert fast.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------
# Dataset determinism
# ---------------------------------------------------------------------
class TestDatasetDeterminism:
    def _generate(self, paper_adder, paper_lib, **overrides):
        config = dataclasses.replace(FAST, **overrides)
        return generate_dataset(
            paper_adder, paper_lib, ramp_profile(paper_adder), config
        )

    def test_worker_counts_yield_identical_bytes(
        self, paper_adder, paper_lib
    ):
        counters = []
        datasets = []
        for workers in (1, 3):
            tele = telemetry.Telemetry(run_id=f"workers-{workers}")
            with telemetry.use(tele):
                datasets.append(
                    self._generate(paper_adder, paper_lib, workers=workers)
                )
            # Work counters only: wall-time counters end in ``_s``.
            counters.append(
                {
                    name: value
                    for name, value in tele.counters.items()
                    if not re.search(r"_s(\.|$)", name)
                }
            )
        serial, forked = datasets
        assert serial.to_json() == forked.to_json()
        assert serial.digest() == forked.digest()
        # Fork workers send their counter deltas back to the parent.
        assert counters[0] == counters[1]
        assert counters[0]["surrogate.oracle.probes"] > 0

    def test_restart_yields_identical_digest(
        self, paper_adder, paper_lib, tmp_path
    ):
        here = self._generate(paper_adder, paper_lib)
        script = (
            "import sys\n"
            "from repro.core.example import build_paper_adder, "
            "make_paper_library\n"
            "from repro.core.config import SurrogateConfig\n"
            "from repro.sim.probes import SPProfile\n"
            "from repro.surrogate import generate_dataset\n"
            "adder = build_paper_adder()\n"
            "names = sorted(adder.nets)\n"
            "sp = {name: round((i + 1) / (len(names) + 1), 6)\n"
            "      for i, name in enumerate(names)}\n"
            "profile = SPProfile(netlist_name=adder.name, sp=sp, samples=4)\n"
            "config = SurrogateConfig(samples=16, seed=7,\n"
            "    age_grid=(2.0, 5.0, 8.0, 11.0, 14.0), workers=2)\n"
            "ds = generate_dataset(adder, make_paper_library(), profile, "
            "config)\n"
            "sys.stdout.write(ds.digest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == here.digest()

    def test_cache_round_trip_is_byte_identical(
        self, paper_adder, paper_lib, tmp_path
    ):
        cache = ArtifactCache(tmp_path / "cache")
        config = dataclasses.replace(FAST)
        first = generate_dataset(
            paper_adder, paper_lib, ramp_profile(paper_adder),
            config, cache=cache,
        )
        again = generate_dataset(
            paper_adder, paper_lib, ramp_profile(paper_adder),
            config, cache=cache,
        )
        assert first.to_json() == again.to_json()

    def test_rows_labeled_independently_of_sample_count(
        self, paper_adder, paper_lib
    ):
        small = self._generate(paper_adder, paper_lib, samples=4)
        large = self._generate(paper_adder, paper_lib, samples=8)
        assert large.rows[:4] == small.rows

    def test_schema_mismatch_raises(self, paper_adder, paper_lib):
        dataset = self._generate(paper_adder, paper_lib, samples=2)
        doc = json.loads(dataset.to_json())
        doc["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            SurrogateDataset.from_json(json.dumps(doc))
        doc["schema"] = 1
        doc["feature_schema"] = 99
        with pytest.raises(ValueError, match="feature schema"):
            SurrogateDataset.from_json(json.dumps(doc))

    def test_split_is_deterministic_and_disjoint(
        self, paper_adder, paper_lib
    ):
        dataset = self._generate(paper_adder, paper_lib)
        train, holdout = dataset.split(0.25, seed=7)
        train2, holdout2 = dataset.split(0.25, seed=7)
        assert train == train2 and holdout == holdout2
        indices = [r["index"] for r in train] + [r["index"] for r in holdout]
        assert sorted(indices) == list(range(len(dataset.rows)))
        assert len(holdout) == round(0.25 * len(dataset.rows))

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 100), samples=st.integers(1, 4))
    def test_property_worker_count_never_changes_bytes(
        self, seed, samples
    ):
        from repro.core.example import build_paper_adder, make_paper_library

        adder = build_paper_adder()
        library = make_paper_library()
        config = dataclasses.replace(FAST, seed=seed, samples=samples)
        serial = generate_dataset(
            adder, library, ramp_profile(adder), config
        )
        forked = generate_dataset(
            adder, library, ramp_profile(adder),
            dataclasses.replace(config, workers=2),
        )
        assert serial.to_json() == forked.to_json()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), index=st.integers(0, 500))
    def test_property_device_draws_pure_function_of_index(
        self, seed, index
    ):
        config = dataclasses.replace(FAST, seed=seed)
        assert sample_draws(config, index) == sample_draws(config, index)
        base = np.linspace(0.05, 0.95, 11)
        first = device_sp_vector(base, 0.7, config.noise, seed, index)
        second = device_sp_vector(base, 0.7, config.noise, seed, index)
        assert first.tobytes() == second.tobytes()
        assert float(first.min()) >= 0.0 and float(first.max()) <= 1.0


# ---------------------------------------------------------------------
# The ridge model
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def adder_dataset():
    from repro.core.example import build_paper_adder, make_paper_library

    adder = build_paper_adder()
    config = dataclasses.replace(FAST, samples=32)
    return generate_dataset(
        adder, make_paper_library(), ramp_profile(adder), config
    )


class TestRidgeSurrogate:
    def test_snapshot_round_trip_is_bit_exact(self, adder_dataset):
        model, _ = train_surrogate(
            adder_dataset, dataclasses.replace(FAST, samples=32)
        )
        clone = RidgeSurrogate.from_json(model.to_json())
        assert clone.to_json() == model.to_json()
        assert clone.digest() == model.digest()
        X, _ = adder_dataset.matrices()
        assert np.array_equal(clone.predict(X), model.predict(X))

    def test_training_is_reproducible(self, adder_dataset):
        config = dataclasses.replace(FAST, samples=32)
        first, _ = train_surrogate(adder_dataset, config)
        second, _ = train_surrogate(adder_dataset, config)
        assert first.digest() == second.digest()

    def test_calibration_present_after_training(self, adder_dataset):
        model, report = train_surrogate(
            adder_dataset, dataclasses.replace(FAST, samples=32)
        )
        assert model.threshold is not None
        assert report.recall >= 0.95
        assert model.calibration["recall_floor"] == 0.95

    def test_schema_mismatch_raises(self, adder_dataset):
        model, _ = train_surrogate(
            adder_dataset, dataclasses.replace(FAST, samples=32)
        )
        doc = json.loads(model.to_json())
        doc["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            RidgeSurrogate.from_json(json.dumps(doc))

    def test_validation_fails_closed_on_bad_recall(self, adder_dataset):
        model, _ = train_surrogate(
            adder_dataset, dataclasses.replace(FAST, samples=32)
        )
        # Sabotage the threshold so nothing is flagged: with risky rows
        # present, recall collapses and validation must raise.
        model.calibration = dict(model.calibration, threshold=-1e9)
        with pytest.raises(SurrogateValidationError, match="recall"):
            validate_model(model, adder_dataset.rows)

    def test_validation_refuses_uncalibrated_model(self, adder_dataset):
        X, y = adder_dataset.matrices()
        model = RidgeSurrogate.fit(X, y, adder_dataset.feature_names)
        with pytest.raises(SurrogateValidationError, match="calibrat"):
            validate_model(model, adder_dataset.rows)

    def test_validation_refuses_empty_holdout(self, adder_dataset):
        model, _ = train_surrogate(
            adder_dataset, dataclasses.replace(FAST, samples=32)
        )
        with pytest.raises(SurrogateValidationError, match="held-out"):
            validate_model(model, [])


# ---------------------------------------------------------------------
# Triage (exact tail re-verification, byte for byte)
# ---------------------------------------------------------------------
MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE),
]

TRIAGE_CONFIG = CampaignConfig(
    devices=8, seed=11, shard_size=4, suites=("vega",),
    base_onset_years=6.0,
)


@pytest.fixture(scope="module")
def alu_netlist():
    return build_alu()


@pytest.fixture(scope="module")
def vega_library(alu_netlist):
    lifter = ErrorLifter(alu_netlist, ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    return AgingLibrary(
        name="surrogate_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )


@pytest.fixture(scope="module")
def alu_surrogate(alu_netlist):
    """A calibrated surrogate over the ALU (tiny sweep, fast grid)."""
    config = dataclasses.replace(FAST, samples=12)
    dataset = generate_dataset(
        alu_netlist, make_vega28_library(), ramp_profile(alu_netlist),
        config,
    )
    X, y = dataset.matrices()
    model = RidgeSurrogate.fit(X, y, dataset.feature_names)
    # Pin the threshold rather than calibrating: triage mechanics are
    # under test here, not model quality (the CLI smoke and the
    # benchmark cover the calibrated path end to end).
    model.calibration = {"threshold": 12.0, "risky_horizon": 10.0,
                         "recall_floor": 0.95, "margin": 0.25}
    return model


class TestTriage:
    def test_uncalibrated_model_refused(self, alu_netlist, alu_surrogate):
        bare = RidgeSurrogate.from_json(alu_surrogate.to_json())
        bare.calibration = {}
        with pytest.raises(ValueError, match="threshold"):
            triage_fleet(
                bare, alu_netlist, ramp_profile(alu_netlist),
                TRIAGE_CONFIG, FAST,
            )

    def test_specs_are_pure_functions_of_index(self, alu_netlist):
        library = make_vega28_library()
        profile = ramp_profile(alu_netlist)
        full = profiled_fleet(
            alu_netlist, library, profile, MODELS, TRIAGE_CONFIG, FAST
        )
        subset_indices = [1, 4, 6]
        subset = profiled_fleet(
            alu_netlist, library, profile, MODELS, TRIAGE_CONFIG, FAST,
            indices=subset_indices,
        )
        assert subset == [full[i] for i in subset_indices]

    def test_tail_report_rows_byte_identical_to_exact(
        self, alu_netlist, vega_library, alu_surrogate
    ):
        library = make_vega28_library()
        profile = ramp_profile(alu_netlist)
        outcome, tail_report = run_surrogate_campaign(
            alu_netlist, "alu", vega_library, library, profile,
            MODELS, alu_surrogate,
            config=TRIAGE_CONFIG, surrogate=FAST,
            base_onset_years=TRIAGE_CONFIG.base_onset_years,
        )
        assert 0 < len(outcome.flagged) < TRIAGE_CONFIG.devices, (
            "triage split degenerated; the byte-identity check below "
            "would be vacuous"
        )
        exact_fleet = profiled_fleet(
            alu_netlist, library, profile, MODELS, TRIAGE_CONFIG, FAST
        )
        exact_report = CampaignEngine(
            alu_netlist, "alu", vega_library, MODELS,
            config=TRIAGE_CONFIG,
            base_onset_years=TRIAGE_CONFIG.base_onset_years,
            fleet=exact_fleet,
        ).run()
        flagged_ids = {d.device_id for d in outcome.flagged}
        exact_rows = [
            row for row in exact_report.device_rows
            if row["device"] in flagged_ids
        ]
        assert (
            json.dumps(exact_rows, sort_keys=True)
            == json.dumps(tail_report.device_rows, sort_keys=True)
        )
        # And the whole tail report reproduces byte for byte.
        _, again = run_surrogate_campaign(
            alu_netlist, "alu", vega_library, library, profile,
            MODELS, alu_surrogate,
            config=TRIAGE_CONFIG, surrogate=FAST,
            base_onset_years=TRIAGE_CONFIG.base_onset_years,
        )
        assert again.to_json() == tail_report.to_json()

    def test_triage_outcome_shape(self, alu_netlist, alu_surrogate):
        outcome = triage_fleet(
            alu_surrogate, alu_netlist, ramp_profile(alu_netlist),
            TRIAGE_CONFIG, FAST,
        )
        assert len(outcome.devices) == TRIAGE_CONFIG.devices
        assert len(outcome.cleared) + len(outcome.flagged) == 8
        data = outcome.as_dict()
        assert data["cleared"] == len(outcome.cleared)
        assert all(
            d.flagged == (d.predicted_onset_years <= outcome.threshold)
            for d in outcome.devices
        )


# ---------------------------------------------------------------------
# Scheduler integration: per-device surrogate priors
# ---------------------------------------------------------------------
class TestDevicePriors:
    def _specs(self):
        from repro.campaign.fleet import DeviceSpec

        return [
            DeviceSpec(
                index=i, device_id=f"dev-{i:04d}",
                corner="ss_0.81v_105c", onset_years=5.0,
                faulty=False, model=None, backend_seed=i,
            )
            for i in range(3)
        ]

    def _outcome(self):
        from repro.surrogate.triage import TriagedDevice

        return TriageOutcome(
            threshold=12.0,
            mission_years=10.0,
            devices=[
                TriagedDevice(0, "dev-0000", "ss_0.81v_105c", -0.5,
                              4.0, -0.1, True),
                TriagedDevice(1, "dev-0001", "tt_0.90v_25c", 0.1,
                              25.0, 0.4, False),
            ],
        )

    def test_priors_hot_for_flagged_cold_for_cleared(self):
        priors = surrogate_device_prior(self._outcome(), ["s", "h"])
        hot = priors["dev-0000"][BROAD_CLASS]
        cold = priors["dev-0001"][BROAD_CLASS]
        assert hot[0] > hot[1]          # risk 1.0: alpha-heavy
        assert cold[0] < cold[1]        # far beyond mission: beta-heavy
        assert set(priors["dev-0000"]) == {"s", "h", BROAD_CLASS}

    def test_belief_consults_device_prior_first(self):
        specs = self._specs()
        priors = {"dev-0000": {"x": (3.0, 1.0)}}
        belief = FleetBelief(
            specs, ["x"], cycle_budget=1000, device_prior=priors
        )
        assert belief._prior_for(
            "ss_0.81v_105c", "x", "dev-0000"
        ) == (3.0, 1.0)
        # Other devices fall through to the corner prior.
        fallback = belief._prior_for("ss_0.81v_105c", "x", "dev-0001")
        assert fallback == belief._prior_for("ss_0.81v_105c", "x")

    def test_snapshot_digest_unchanged_without_priors(self):
        specs = self._specs()
        plain = FleetBelief(specs, ["x"], cycle_budget=1000)
        with_empty = FleetBelief(
            specs, ["x"], cycle_budget=1000, device_prior={}
        )
        assert "device_prior" not in plain.snapshot()
        assert plain.digest() == with_empty.digest()

    def test_snapshot_round_trips_device_prior(self):
        specs = self._specs()
        priors = {"dev-0001": {"x": (2.0, 0.5), BROAD_CLASS: (1.5, 0.5)}}
        belief = FleetBelief(
            specs, ["x"], cycle_budget=1000, device_prior=priors
        )
        restored = FleetBelief.from_snapshot(belief.snapshot())
        assert restored.device_prior == belief.device_prior
        assert restored.digest() == belief.digest()

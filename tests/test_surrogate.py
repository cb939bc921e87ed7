"""The aging surrogate: features, dataset determinism, model, triage.

Covers what the repository benchmark's alu-fleet stage runs of
`repro.surrogate`, composed the way that stage composes it:

* pinned exact values of the dict-path SP summary
  (`tests/oracles.sp_summary`) on the paper's example adder and
  bit-identity of the vectorized `FleetFeaturizer` against it;
* byte-identical dataset generation across process restarts and
  sample counts;
* reproducible training and the fail-closed validation gate;
* triage: exact device specs are a pure function of their index, so
  the re-verified tail's campaign report rows (`triage_fleet` +
  `profiled_fleet` + `CampaignEngine(fleet=...)`) equal the
  corresponding rows of an all-exact campaign byte for byte.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.corners import WORST_CORNER
from repro.campaign import CampaignEngine
from repro.core.config import (
    CampaignConfig,
    ErrorLiftingConfig,
    SurrogateConfig,
)
from repro.core.artifacts import ArtifactCache
from repro.core.experiments import ExperimentContext
from repro.core.lifetime import LifetimeSimulator
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.netlist.cells import make_vega28_library
from repro.sim.probes import SPProfile, net_levels
from repro.sta.timing import TimingViolation
from repro.surrogate import (
    SurrogateValidationError,
    generate_dataset,
    profiled_fleet,
    train_surrogate,
    triage_fleet,
)
from repro.surrogate.dataset import (
    SurrogateDataset,
    device_sp_vector,
    sample_draws,
)
from repro.surrogate.features import FleetFeaturizer
from repro.surrogate.model import RidgeSurrogate
from repro.surrogate.oracle import ExactAgingOracle
from repro.surrogate.validate import validate_model

from oracles import device_features, level_aggregates, sp_summary

#: Short age grid keeping the exact oracle cheap in unit tests; the
#: full 31-point grid is exercised by the repository benchmark.
FAST = SurrogateConfig(
    samples=16,
    seed=7,
    age_grid=(2.0, 5.0, 8.0, 11.0, 14.0),
)


def _model_bytes(model: RidgeSurrogate) -> bytes:
    """Every fitted coefficient and the calibration, as raw bytes."""
    return b"".join([
        model.mean.tobytes(),
        model.scale.tobytes(),
        model.weights.tobytes(),
        json.dumps(model.calibration, sort_keys=True).encode(),
    ])


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
        vector = sp_summary(profile, paper_adder, buckets=4)
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
        assert level_aggregates(profile, paper_adder, buckets=4) == [
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
            sp_summary(profile, paper_adder),
            sp_summary(reversed_profile, paper_adder),
        )
        featurizer = FleetFeaturizer(paper_adder)
        assert np.array_equal(
            featurizer.vector(
                featurizer.base_vector(profile), "tt_0.90v_25c", 5.0
            ),
            featurizer.vector(
                featurizer.base_vector(reversed_profile), "tt_0.90v_25c", 5.0
            ),
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
            "    age_grid=(2.0, 5.0, 8.0, 11.0, 14.0))\n"
            "ds = generate_dataset(adder, make_paper_library(), profile, "
            "config)\n"
            "sys.stdout.write(ds.to_json())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == here.to_json()

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
    def test_training_is_reproducible(self, adder_dataset):
        config = dataclasses.replace(FAST, samples=32)
        first, first_report = train_surrogate(adder_dataset, config)
        second, second_report = train_surrogate(adder_dataset, config)
        assert _model_bytes(first) == _model_bytes(second)
        assert first_report == second_report

    def test_calibration_present_after_training(self, adder_dataset):
        model, report = train_surrogate(
            adder_dataset, dataclasses.replace(FAST, samples=32)
        )
        assert model.threshold is not None
        assert report.recall >= 0.95
        assert model.calibration["recall_floor"] == 0.95

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
        model = RidgeSurrogate.fit(X, y)
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
    model = RidgeSurrogate.fit(X, y)
    # Pin the threshold rather than calibrating: triage mechanics are
    # under test here, not model quality (the repository benchmark
    # covers the calibrated path end to end).
    model.calibration = {"threshold": 12.0, "risky_horizon": 10.0,
                         "recall_floor": 0.95, "margin": 0.25}
    return model


class TestTriage:
    def test_uncalibrated_model_refused(self, alu_netlist, alu_surrogate):
        bare = RidgeSurrogate(
            alu_surrogate.mean, alu_surrogate.scale, alu_surrogate.weights
        )
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

    def _tail_report(
        self, netlist, vega_library, surrogate_model, library, profile
    ):
        """The triaged tail's campaign, composed as the benchmark does."""
        outcome = triage_fleet(
            surrogate_model, netlist, profile, TRIAGE_CONFIG, FAST
        )
        tail = profiled_fleet(
            netlist, library, profile, MODELS, TRIAGE_CONFIG, FAST,
            indices=outcome.flagged_indices,
        )
        report = CampaignEngine(
            netlist, "alu", vega_library, MODELS,
            config=TRIAGE_CONFIG,
            base_onset_years=TRIAGE_CONFIG.base_onset_years,
            fleet=tail,
        ).run()
        return outcome, report

    def test_tail_report_rows_byte_identical_to_exact(
        self, alu_netlist, vega_library, alu_surrogate
    ):
        library = make_vega28_library()
        profile = ramp_profile(alu_netlist)
        outcome, tail_report = self._tail_report(
            alu_netlist, vega_library, alu_surrogate, library, profile
        )
        flagged = outcome.flagged_indices
        assert 0 < len(flagged) < TRIAGE_CONFIG.devices, (
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
        flagged_ids = {f"dev-{index:04d}" for index in flagged}
        exact_rows = [
            row for row in exact_report.device_rows
            if row["device"] in flagged_ids
        ]
        assert (
            json.dumps(exact_rows, sort_keys=True)
            == json.dumps(tail_report.device_rows, sort_keys=True)
        )
        # And the whole tail report reproduces byte for byte.
        _, again = self._tail_report(
            alu_netlist, vega_library, alu_surrogate, library, profile
        )
        assert again.to_json() == tail_report.to_json()

    def test_triage_outcome_shape(self, alu_netlist, alu_surrogate):
        outcome = triage_fleet(
            alu_surrogate, alu_netlist, ramp_profile(alu_netlist),
            TRIAGE_CONFIG, FAST,
        )
        assert len(outcome.devices) == TRIAGE_CONFIG.devices
        assert [d.index for d in outcome.devices] == list(range(8))
        assert len(outcome.cleared) + len(outcome.flagged_indices) == 8
        assert all(
            d.flagged == (d.predicted_onset_years <= outcome.threshold)
            for d in outcome.devices
        )
        assert outcome.flagged_indices == [
            d.index for d in outcome.devices if d.flagged
        ]


# ---------------------------------------------------------------------
# The oracle's onset is the lifetime sweep's onset
# ---------------------------------------------------------------------
class TestOracleOnset:
    @pytest.mark.parametrize("unit", ["alu", "fpu"])
    def test_matches_lifetime_sweep(self, unit):
        experiment = ExperimentContext().unit(unit)
        grid = SurrogateConfig().age_grid
        onset = ExactAgingOracle(experiment.netlist).onset(
            experiment.sp_profile, WORST_CORNER
        )
        assert onset is not None
        # A sweep's first onset depends only on the ages up to it, so
        # the grid prefix ending at the oracle's onset decides equality.
        swept = LifetimeSimulator(
            experiment.netlist, experiment.sp_profile
        ).sweep(grid[: grid.index(onset) + 1])
        assert onset == swept.first_onset_years


class TestSurrogateConfig:
    @pytest.mark.parametrize("grid", [(), (2.0, 1.0), (1.0, 1.0)])
    def test_rejects_grid_bisection_cannot_search(self, grid):
        with pytest.raises(ValueError, match="age_grid"):
            SurrogateConfig(age_grid=grid)

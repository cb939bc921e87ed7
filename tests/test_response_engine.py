"""Tests for the detection→response reconfiguration engine.

Pins the same contracts the campaign engine honours — policy
rows are pure functions of (netlist, profile, configs), byte-identical
across worker counts and across a resume after a mid-run kill — plus
per-policy sanity: derate pays frequency and nothing else, resynth is
proven exact, approximate is provably inexact but recovers lifetime by
deleting the aged critical path.
"""

import dataclasses

import pytest

from repro.core.artifacts import ArtifactCache
from repro.core.config import AgingAnalysisConfig, ResponseConfig
from repro.core.rng import stream_rng
from repro.cpu.alu_design import build_alu
from repro.response import ResponseEngine, ResponseReport
from repro.sim.parallel_profile import profile_workload_streams

AGING = AgingAnalysisConfig(clock_margin=0.01, max_paths_per_endpoint=50)

CONFIG = ResponseConfig(
    mission_years=8.0,
    age_grid=(1.0, 2.0, 4.0, 8.0),
    accuracy_samples=16,
    accuracy_depth=3,
    workers=1,
)


@pytest.fixture(scope="module")
def alu_netlist():
    return build_alu()


@pytest.fixture(scope="module")
def operands(alu_netlist):
    ports = [(p.name, p.width) for p in alu_netlist.input_ports()]
    rng = stream_rng("adversary.candidate", 0, 3)  # 48 uniform operands
    return [{name: rng.getrandbits(width) for name, width in ports}
            for _ in range(48)]


@pytest.fixture(scope="module")
def profile(alu_netlist, operands):
    return profile_workload_streams(
        alu_netlist, {"mission": operands}, lanes=16
    )


def build_engine(alu_netlist, profile, operands, cache=None, **overrides):
    config = dataclasses.replace(CONFIG, **overrides)
    return ResponseEngine(
        alu_netlist,
        "alu",
        profile,
        aging=AGING,
        config=config,
        cache=cache,
        operands=operands,
    )


@pytest.fixture(scope="module")
def report(alu_netlist, profile, operands):
    return build_engine(alu_netlist, profile, operands).evaluate()


class TestPolicySanity:
    def test_baseline_violation_found(self, report):
        assert report.baseline_onset_years is not None
        assert report.baseline_onset_years <= CONFIG.age_grid[-1]
        assert report.victim_end is not None
        assert report.victim_kind == "setup"
        assert [row["policy"] for row in report.policies] == [
            "derate", "resynth", "approximate",
        ]

    def test_derate_pays_frequency_only(self, report):
        row = next(r for r in report.policies if r["policy"] == "derate")
        assert row["applicable"]
        assert row["frequency_cost_pct"] > 0.0
        assert row["accuracy_cost_pct"] == 0.0
        assert row["area_delta_cells"] == 0
        assert row["equivalent"] is True
        assert row["recovered_years"] >= 0.0

    def test_resynth_is_proven_exact(self, report):
        row = next(r for r in report.policies if r["policy"] == "resynth")
        assert row["applicable"]
        assert row["equivalent"] is True
        assert row["area_delta_cells"] > 0
        assert row["frequency_cost_pct"] == 0.0
        assert row["recovered_years"] >= 0.0

    def test_approximate_is_inexact_but_recovers(self, report):
        row = next(
            r for r in report.policies if r["policy"] == "approximate"
        )
        assert row["applicable"]
        assert row["equivalent"] is False
        assert row["area_delta_cells"] < 0
        # Removing the aged critical path must not make things worse.
        assert row["recovered_years"] >= 0.0

    def test_round_trip(self, report):
        assert (
            ResponseReport.from_json(report.to_json()).to_json()
            == report.to_json()
        )

    def test_summary_is_greppable(self, report):
        text = report.summary()
        assert "response: alu" in text
        assert "derate" in text and "approximate" in text


class TestDeterminism:
    def test_worker_invariance(
        self, alu_netlist, profile, operands, report
    ):
        sharded = build_engine(
            alu_netlist, profile, operands, workers=2
        ).evaluate()
        assert sharded.to_json() == report.to_json()

    def test_resume_after_kill(
        self, alu_netlist, profile, operands, report, tmp_path
    ):
        cache = ArtifactCache(tmp_path / "cache")
        dying = build_engine(alu_netlist, profile, operands, cache=cache)
        original = dying._eval_approximate

        def explode(*args, **kwargs):
            raise RuntimeError("killed mid-policy")

        dying._eval_approximate = explode
        with pytest.raises(RuntimeError, match="killed mid-policy"):
            dying.evaluate()

        revived = build_engine(alu_netlist, profile, operands, cache=cache)
        resumed = revived.evaluate(resume=True)
        assert resumed.to_json() == report.to_json()
        # Baseline, derate, and resynth completed before the kill and
        # must come back from checkpoints, not be recomputed.
        assert "baseline" in revived.resumed_policies
        assert "derate" in revived.resumed_policies
        assert "resynth" in revived.resumed_policies
        assert "approximate" not in revived.resumed_policies

    def test_response_key_ignores_workers(
        self, alu_netlist, profile, operands
    ):
        one = build_engine(alu_netlist, profile, operands, workers=1)
        two = build_engine(alu_netlist, profile, operands, workers=2)
        assert one.response_key() == two.response_key()
        other_seed = build_engine(
            alu_netlist, profile, operands, seed=99
        )
        assert other_seed.response_key() != one.response_key()


class TestResponseConfig:
    @pytest.mark.parametrize("grid", [(), (2.0, 1.0), (1.0, 1.0)])
    def test_rejects_grid_bisection_cannot_search(self, grid):
        with pytest.raises(ValueError, match="age_grid"):
            ResponseConfig(age_grid=grid)

"""Tests for the adversarial wearout scenario engine.

The contract mirrors the campaign engine's: the attacker search and
every artifact derived from it are pure functions of (netlist, target,
config) — byte-identical for any worker count and across resumes —
and attack fleets are the natural fleet's twins (same individuals,
accelerated onsets) so detection lead is well defined per device.
"""

import dataclasses

import pytest

from repro.adversary import (
    AttackReport,
    AttackSearch,
    generate_candidate,
    sample_attack_fleet,
    select_target,
    stress_score,
)
from repro.campaign import CampaignEngine
from repro.core.artifacts import ArtifactCache
from repro.core.config import (
    AdversaryConfig,
    CampaignConfig,
    ErrorLiftingConfig,
)
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.sim.parallel_profile import profile_workload_streams
from repro.sta.timing import TimingViolation

from oracles import unpacked_campaign

PAIRS = [("a_q_r0", "res_q_r31")]

MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE),
]

SEARCH_CONFIG = AdversaryConfig(
    seed=5,
    candidates=4,
    rounds=2,
    beam=2,
    mutations=2,
    stream_ops=48,
    mutation_ops=8,
    lanes=16,
    workers=1,
)

CAMPAIGN_CONFIG = CampaignConfig(
    devices=8,
    seed=11,
    shard_size=3,
    workers=1,
    suites=("vega", "random"),
    base_onset_years=8.0,
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
        name="adversary_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )


@pytest.fixture(scope="module")
def natural_profile(alu_netlist):
    ports = [(p.name, p.width) for p in alu_netlist.input_ports()]
    stream = generate_candidate(ports, 48, 0, 3)  # uniform-mode stream
    return profile_workload_streams(
        alu_netlist, {"mission": stream}, lanes=16
    )


def run_search(alu_netlist, natural_profile, cache=None, **overrides):
    config = dataclasses.replace(SEARCH_CONFIG, **overrides)
    return AttackSearch(
        alu_netlist, "alu", natural_profile, PAIRS,
        config=config, cache=cache,
    )


class TestTargetSelection:
    def test_cone_nets_tagged_with_stress_state(self, alu_netlist):
        target = select_target(alu_netlist, PAIRS)
        assert target.pairs == (("a_q_r0", "res_q_r31"),)
        assert len(target.nets) > 10
        assert all(state in (0, 1) for _name, state in target.nets)

    def test_unknown_endpoint_rejected(self, alu_netlist):
        with pytest.raises(KeyError):
            select_target(alu_netlist, [("a_q_r0", "nope")])

    def test_empty_pairs_rejected(self, alu_netlist):
        with pytest.raises(ValueError):
            select_target(alu_netlist, [])

    def test_stress_score_bounds(self, alu_netlist, natural_profile):
        target = select_target(alu_netlist, PAIRS)
        score = stress_score(natural_profile, target)
        assert 0.0 <= score <= 1.0


class TestSearchDeterminism:
    def test_worker_invariance(self, alu_netlist, natural_profile):
        serial, _ = run_search(
            alu_netlist, natural_profile, workers=1
        ).run()
        sharded, _ = run_search(
            alu_netlist, natural_profile, workers=2
        ).run()
        assert serial.to_json() == sharded.to_json()

    def test_search_improves_or_holds(self, alu_netlist, natural_profile):
        result, stream = run_search(alu_netlist, natural_profile).run()
        assert result.stress_ratio >= 1.0 or result.natural_stress > 0
        assert result.acceleration >= 1.0
        assert result.acceleration <= SEARCH_CONFIG.acceleration_cap
        assert len(stream) == SEARCH_CONFIG.stream_ops
        best = [h["best_stress"] for h in result.history]
        assert best == sorted(best)  # beam never regresses

    def test_resume_extends_prefix(
        self, alu_netlist, natural_profile, tmp_path
    ):
        cache = ArtifactCache(tmp_path / "cache")
        short, _ = run_search(
            alu_netlist, natural_profile, cache=cache, rounds=1
        ).run()
        assert short.rounds == 1
        resumed_search = run_search(
            alu_netlist, natural_profile, cache=cache, rounds=2
        )
        resumed, _ = resumed_search.run(resume=True)
        assert resumed_search.resumed_rounds >= 1
        fresh, _ = run_search(alu_netlist, natural_profile, rounds=2).run()
        assert resumed.to_json() == fresh.to_json()

    def test_round_trip(self, alu_netlist, natural_profile):
        result, _ = run_search(alu_netlist, natural_profile).run()
        from repro.adversary import AttackSearchResult

        assert (
            AttackSearchResult.from_json(result.to_json()).to_json()
            == result.to_json()
        )


class TestAttackFleet:
    def test_twins_pair_the_natural_fleet(self):
        from repro.campaign.fleet import sample_fleet

        natural = sample_fleet(CAMPAIGN_CONFIG, MODELS, 8.0)
        attacked = sample_attack_fleet(
            CAMPAIGN_CONFIG, MODELS, 8.0, acceleration=2.0
        )
        assert len(attacked) == len(natural)
        for nat, att in zip(natural, attacked):
            assert att.index == nat.index
            assert att.corner == nat.corner
            assert att.backend_seed == nat.backend_seed
            assert att.onset_years <= nat.onset_years
            assert att.onset_years == pytest.approx(
                nat.onset_years / 2.0, abs=1e-5
            )
            if nat.faulty:
                assert att.faulty  # acceleration never heals a device

    def test_fraction_zero_is_natural(self):
        from repro.campaign.fleet import sample_fleet

        natural = sample_fleet(CAMPAIGN_CONFIG, MODELS, 8.0)
        attacked = sample_attack_fleet(
            CAMPAIGN_CONFIG, MODELS, 8.0,
            acceleration=3.0, attack_fraction=0.0,
        )
        assert attacked == natural


class TestAttackCampaign:
    @pytest.fixture(scope="class")
    def fleets(self):
        from repro.campaign.fleet import sample_fleet

        natural = sample_fleet(CAMPAIGN_CONFIG, MODELS, 8.0)
        attacked = sample_attack_fleet(
            CAMPAIGN_CONFIG, MODELS, 8.0, acceleration=3.0
        )
        return natural, attacked

    def _run(self, alu_netlist, vega_library, fleet, **overrides):
        config = dataclasses.replace(CAMPAIGN_CONFIG, **overrides)
        engine = CampaignEngine(
            alu_netlist, "alu", vega_library, MODELS,
            config=config, base_onset_years=8.0, fleet=fleet,
        )
        return engine.run()

    def test_report_and_lead(self, alu_netlist, vega_library, fleets):
        natural_fleet, attack_fleet = fleets
        natural = self._run(alu_netlist, vega_library, natural_fleet)
        attack = self._run(alu_netlist, vega_library, attack_fleet)
        search, _ = run_search(
            alu_netlist,
            profile_workload_streams(
                alu_netlist,
                {
                    "mission": generate_candidate(
                        [
                            (p.name, p.width)
                            for p in alu_netlist.input_ports()
                        ],
                        48, 0, 3,
                    )
                },
                lanes=16,
            ),
        ).run()
        report = AttackReport.from_campaigns(
            search, natural_fleet, attack_fleet, natural, attack,
            attack_fraction=1.0, attack_seed=5,
            budget_instructions=CAMPAIGN_CONFIG.max_suite_instructions,
        )
        assert report.devices == CAMPAIGN_CONFIG.devices
        assert report.attacked_devices == CAMPAIGN_CONFIG.devices
        assert report.onset_lead_years_mean > 0.0
        assert report.attack["faulty"] >= report.natural["faulty"]
        for suite in report.suites:
            assert report.detection_lead_devices[suite] >= 0
        round_trip = AttackReport.from_json(report.to_json())
        assert round_trip.to_json() == report.to_json()
        text = report.summary()
        assert "detection lead (vega)" in text
        assert f"attack: alu fleet of {report.devices}" in text

    def test_packed_identity_on_attack_fleet(
        self, alu_netlist, vega_library, fleets
    ):
        _, attack_fleet = fleets
        packed = self._run(alu_netlist, vega_library, attack_fleet)
        with unpacked_campaign():
            serial = self._run(alu_netlist, vega_library, attack_fleet)
        assert packed.to_json() == serial.to_json()

    def test_worker_invariance(self, alu_netlist, vega_library, fleets):
        _, attack_fleet = fleets
        one = self._run(alu_netlist, vega_library, attack_fleet, workers=1)
        two = self._run(alu_netlist, vega_library, attack_fleet, workers=2)
        assert one.to_json() == two.to_json()

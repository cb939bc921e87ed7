"""Tests for the fleet-scale fault-injection campaign engine."""

import dataclasses

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignReport,
    fleet_digest,
    sample_fleet,
)
from repro.core import telemetry
from repro.core.artifacts import ArtifactCache
from repro.core.config import (
    CampaignConfig,
    ErrorLiftingConfig,
    VegaConfig,
)
from repro.core.rng import stream_rng, stream_seed
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.sta.timing import TimingViolation

MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.RANDOM),
]

CONFIG = CampaignConfig(
    devices=8,
    seed=11,
    shard_size=3,
    workers=1,
    silifuzz_snapshots=3,
    base_onset_years=6.0,
)


@pytest.fixture(scope="module")
def alu_netlist():
    return build_alu()


@pytest.fixture(scope="module")
def vega_library(alu_netlist):
    """A real lifted suite for the fleet's shared endpoint pair."""
    lifter = ErrorLifter(alu_netlist, ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    return AgingLibrary(
        name="campaign_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )


def make_engine(alu_netlist, vega_library, config=CONFIG, cache=None):
    return CampaignEngine(
        alu_netlist, "alu", vega_library, MODELS, config, cache=cache
    )


class TestRngStreams:
    def test_stream_seed_is_stable(self):
        assert stream_seed("x", 1, 2) == stream_seed("x", 1, 2)
        assert stream_seed("x", 1, 2) != stream_seed("x", 2, 1)
        assert stream_seed("x", 1) != stream_seed("y", 1)

    def test_stream_rng_reproduces(self):
        assert (
            stream_rng("s", 3).random() == stream_rng("s", 3).random()
        )


class TestFleetSampling:
    def test_sampling_is_deterministic(self):
        first = sample_fleet(CONFIG, MODELS, 6.0)
        second = sample_fleet(CONFIG, MODELS, 6.0)
        assert first == second
        assert fleet_digest(first) == fleet_digest(second)

    def test_seed_changes_fleet(self):
        other = dataclasses.replace(CONFIG, seed=12)
        assert fleet_digest(sample_fleet(CONFIG, MODELS, 6.0)) != (
            fleet_digest(sample_fleet(other, MODELS, 6.0))
        )

    def test_device_identity_is_per_index(self):
        fleet = sample_fleet(CONFIG, MODELS, 6.0)
        assert [spec.index for spec in fleet] == list(range(CONFIG.devices))
        assert fleet[3].device_id == "dev-0003"
        # Growing the fleet never re-rolls existing devices.
        bigger = dataclasses.replace(CONFIG, devices=CONFIG.devices + 4)
        grown = sample_fleet(bigger, MODELS, 6.0)
        assert grown[: CONFIG.devices] == fleet

    def test_empty_catalogue_is_all_healthy(self):
        fleet = sample_fleet(CONFIG, [], 6.0)
        assert all(not spec.faulty for spec in fleet)
        assert all(spec.model is None for spec in fleet)

    def test_faulty_devices_carry_models(self):
        fleet = sample_fleet(CONFIG, MODELS, 6.0)
        faulty = [spec for spec in fleet if spec.faulty]
        assert faulty, "fixture fleet should contain faulty devices"
        for spec in faulty:
            assert spec.model in MODELS
            assert spec.onset_years <= CONFIG.mission_years


class TestCampaignDeterminism:
    def test_worker_count_is_invisible(self, alu_netlist, vega_library):
        serial = make_engine(alu_netlist, vega_library).run()
        parallel_cfg = dataclasses.replace(CONFIG, workers=4)
        parallel = make_engine(
            alu_netlist, vega_library, config=parallel_cfg
        ).run()
        assert serial.to_json() == parallel.to_json()

    def test_faulty_fleet_metrics(self, alu_netlist, vega_library):
        report = make_engine(alu_netlist, vega_library).run()
        assert report.devices == CONFIG.devices
        assert report.faulty_devices + report.healthy_devices == (
            report.devices
        )
        assert report.false_positives == 0
        # Vega detects every injected failure on this pair.
        assert report.suite_coverage_pct("vega") == 100.0
        assert report.escapes + report.detected_devices == (
            report.faulty_devices
        )

    def test_report_round_trips(self, alu_netlist, vega_library):
        report = make_engine(alu_netlist, vega_library).run()
        again = CampaignReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()

    def test_markdown_render(self, alu_netlist, vega_library):
        report = make_engine(alu_netlist, vega_library).run()
        text = report.to_markdown()
        assert "## Detection coverage" in text
        assert "## Corners" in text
        assert "dev-0000" in text


class TestCampaignResume:
    def test_resume_reexecutes_nothing(
        self, alu_netlist, vega_library, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        first = make_engine(alu_netlist, vega_library, cache=cache)
        report = first.run()
        assert first.resumed_shards == []
        assert first.executed_shards  # everything ran

        second = make_engine(alu_netlist, vega_library, cache=cache)
        resumed = second.run(resume=True)
        assert second.executed_shards == []
        assert second.resumed_shards == first.executed_shards
        assert resumed.to_json() == report.to_json()

    def test_killed_campaign_resumes_completed_shards(
        self, alu_netlist, vega_library, tmp_path, monkeypatch
    ):
        from repro.campaign import engine as engine_mod

        cache = ArtifactCache(tmp_path)
        budget = CONFIG.shard_size  # die after the first shard
        real_run_device = engine_mod.DeviceRunner.run_device

        def dying_run_device(self, spec):
            nonlocal budget
            if budget <= 0:
                raise RuntimeError("killed")
            budget -= 1
            return real_run_device(self, spec)

        monkeypatch.setattr(
            engine_mod.DeviceRunner, "run_device", dying_run_device
        )
        killed = make_engine(alu_netlist, vega_library, cache=cache)
        with pytest.raises(RuntimeError):
            killed.run()
        monkeypatch.undo()

        survivor = make_engine(alu_netlist, vega_library, cache=cache)
        report = survivor.run(resume=True)
        assert survivor.resumed_shards == [0]
        assert 0 not in survivor.executed_shards
        # The resumed run equals a from-scratch run.
        fresh = make_engine(alu_netlist, vega_library).run()
        assert report.to_json() == fresh.to_json()

    def test_resume_with_different_workers_is_identical(
        self, alu_netlist, vega_library, tmp_path, monkeypatch
    ):
        """Checkpoints are parallelism-agnostic: a campaign killed at
        one worker count and resumed at another yields a byte-identical
        report (``workers`` never enters the campaign key)."""
        from repro.campaign import engine as engine_mod

        cache = ArtifactCache(tmp_path)
        budget = CONFIG.shard_size  # die after the first shard
        real_run_device = engine_mod.DeviceRunner.run_device

        def dying_run_device(self, spec):
            nonlocal budget
            if budget <= 0:
                raise RuntimeError("killed")
            budget -= 1
            return real_run_device(self, spec)

        monkeypatch.setattr(
            engine_mod.DeviceRunner, "run_device", dying_run_device
        )
        killed = make_engine(alu_netlist, vega_library, cache=cache)
        with pytest.raises(RuntimeError):
            killed.run()
        monkeypatch.undo()

        parallel_cfg = dataclasses.replace(CONFIG, workers=4)
        survivor = make_engine(
            alu_netlist, vega_library, config=parallel_cfg, cache=cache
        )
        report = survivor.run(resume=True)
        assert survivor.resumed_shards == [0]
        fresh = make_engine(alu_netlist, vega_library).run()
        assert report.to_json() == fresh.to_json()

        # Same campaign key at any worker count — that is what lets
        # the checkpoints be shared in the first place.
        fleet = sample_fleet(CONFIG, MODELS, 6.0)
        assert killed.campaign_key(fleet) == survivor.campaign_key(fleet)

    def test_resume_without_cache_runs_everything(
        self, alu_netlist, vega_library
    ):
        engine = make_engine(alu_netlist, vega_library)
        engine.run(resume=True)
        assert engine.resumed_shards == []

    def test_campaign_key_tracks_inputs(self, alu_netlist, vega_library):
        engine = make_engine(alu_netlist, vega_library)
        fleet = sample_fleet(CONFIG, MODELS, 6.0)
        assert engine.campaign_key(fleet) == engine.campaign_key(fleet)
        reseeded = dataclasses.replace(CONFIG, seed=99)
        other = make_engine(alu_netlist, vega_library, config=reseeded)
        other_fleet = sample_fleet(reseeded, MODELS, 6.0)
        assert engine.campaign_key(fleet) != other.campaign_key(other_fleet)


class TestCampaignTelemetry:
    def test_device_events_and_counters(self, alu_netlist, vega_library):
        tele = telemetry.Telemetry(run_id="campaign-test")
        with telemetry.use(tele):
            report = make_engine(alu_netlist, vega_library).run()
        events = [
            r
            for r in tele.records
            if r.get("type") == "event" and r["name"] == "campaign.device"
        ]
        assert len(events) == CONFIG.devices
        assert tele.counters["campaign.devices"] == CONFIG.devices
        assert (
            tele.counters["campaign.faulty_devices"]
            == report.faulty_devices
        )
        spans = [
            r
            for r in tele.records
            if r.get("type") == "span" and r["name"] == "campaign.run"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["devices"] == CONFIG.devices

    def test_trace_round_trips(self, alu_netlist, vega_library, tmp_path):
        tele = telemetry.Telemetry(run_id="campaign-trace")
        with telemetry.use(tele):
            make_engine(alu_netlist, vega_library).run()
        path = tmp_path / "trace.jsonl"
        tele.write_jsonl(str(path))
        records = telemetry.read_trace(str(path))
        assert telemetry.dump_trace(records) == tele.to_jsonl()


class TestCampaignConfigPlumbing:
    def test_vega_config_carries_campaign(self):
        assert VegaConfig().campaign == CampaignConfig()

    def test_unknown_suite_is_rejected(self, alu_netlist, vega_library):
        config = dataclasses.replace(
            CONFIG, suites=("vega", "nonsense")
        )
        with pytest.raises(ValueError, match="unknown campaign suite"):
            make_engine(alu_netlist, vega_library, config=config).run()

    @pytest.mark.parametrize("pack_width", [0, -1])
    def test_rejects_pack_width_below_one(self, pack_width):
        with pytest.raises(ValueError, match="pack_width"):
            CampaignConfig(pack_width=pack_width)

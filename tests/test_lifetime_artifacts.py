"""Tests for the lifetime simulator and artifact exporters."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.corners import TYPICAL_CORNER, WORST_CORNER
from repro.core.artifacts import export_failure_models, export_suite_artifacts
from repro.core.config import AgingAnalysisConfig
from repro.core.example import PAPER_TABLE1_SP, build_paper_adder
from repro.core.lifetime import SCHEDULES, LifetimeSimulator
from repro.integration.library_gen import AgingLibrary
from repro.lifting.instrument import make_failing_netlist
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.lifting.testcase import TestCase, TestInstruction
from repro.netlist.parser import parse_verilog
from repro.sim.probes import SPProfile
from repro.sta.aging_sta import AgingAwareSta


@pytest.fixture
def adder_profile(paper_adder):
    sp = {}
    for inst_name, value in PAPER_TABLE1_SP.items():
        sp[paper_adder.instances[inst_name].output_net.name] = value
    for net in paper_adder.nets.values():
        sp.setdefault(net.name, 0.5)
    return SPProfile(paper_adder.name, sp, 1000)


class TestLifetimeSimulator:
    def test_wns_erodes_monotonically(self, paper_adder, adder_profile):
        simulator = LifetimeSimulator(
            paper_adder,
            adder_profile,
            config=AgingAnalysisConfig(clock_margin=0.042),
        )
        report = simulator.sweep([1, 3, 5, 10])
        wns = [report.wns_by_year[y] for y in (1, 3, 5, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(wns, wns[1:]))

    def test_front_loading(self, paper_adder, adder_profile):
        simulator = LifetimeSimulator(
            paper_adder,
            adder_profile,
            config=AgingAnalysisConfig(clock_margin=0.042),
        )
        report = simulator.sweep([0.5, 1, 5, 10])
        early = report.wns_by_year[0.5] - report.wns_by_year[1]
        late = report.wns_by_year[5] - report.wns_by_year[10]
        # Half a year early in life erodes more than five years later.
        assert early > late / 10

    def test_onsets_recorded_once(self, paper_adder, adder_profile):
        simulator = LifetimeSimulator(
            paper_adder,
            adder_profile,
            config=AgingAnalysisConfig(clock_margin=0.01),
        )
        report = simulator.sweep([1, 2, 10, 12])
        pairs = [(o.start, o.end) for o in report.onsets]
        assert len(pairs) == len(set(pairs))

    def test_schedule_latency_ordering(self, paper_adder, adder_profile):
        simulator = LifetimeSimulator(paper_adder, adder_profile)
        report = simulator.sweep([10])
        latency = report.detection_wall_clock(1)
        assert set(latency) == set(SCHEDULES)
        assert latency["per-second"] < latency["hourly"] < latency[
            "quarterly (Alibaba)"
        ]

    def test_missed_runs_add_full_periods(self, paper_adder, adder_profile):
        simulator = LifetimeSimulator(paper_adder, adder_profile)
        report = simulator.sweep([10])
        one = report.detection_wall_clock(1)["hourly"]
        three = report.detection_wall_clock(3)["hourly"]
        assert three == pytest.approx(one + 2 * SCHEDULES["hourly"])


_ADDER = build_paper_adder()


class TestAgedWnsMonotone:
    """Aged setup WNS never recovers with age, at either corner."""

    @pytest.mark.parametrize(
        "corner", [WORST_CORNER, TYPICAL_CORNER], ids=lambda c: c.name
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ages=st.lists(
            st.floats(min_value=0.05, max_value=30.0),
            min_size=2,
            max_size=4,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_wns_does_not_increase_with_age(self, corner, seed, ages):
        rng = random.Random(seed)
        profile = SPProfile(
            _ADDER.name,
            {net: rng.random() for net in _ADDER.nets},
            1000,
        )
        sta = AgingAwareSta(_ADDER, corner=corner)
        period = sta.derive_period()
        wns = [
            sta.at_age(age).analyze(profile, clock_period_ns=period)
            .report.wns_setup_ns
            for age in sorted(ages)
        ]
        assert all(a >= b for a, b in zip(wns, wns[1:]))


class TestArtifactExport:
    def _failing(self, paper_adder):
        models = [
            FailureModel("d4", "d10", ViolationKind.SETUP, CMode.ZERO),
            FailureModel("d4", "d10", ViolationKind.SETUP, CMode.ONE),
            FailureModel("d1", "d9", ViolationKind.HOLD, CMode.RANDOM),
        ]
        return [make_failing_netlist(paper_adder, m) for m in models]

    def test_export_writes_verilog_and_index(self, paper_adder, tmp_path):
        failing = self._failing(paper_adder)
        index = export_failure_models(failing, str(tmp_path), unit="adder")
        assert (tmp_path / "index.json").exists()
        data = json.loads((tmp_path / "index.json").read_text())
        assert len(data["models"]) == 3
        for entry in data["models"]:
            assert (tmp_path / entry["file"]).exists()
            assert entry["kind"] in ("setup", "hold")

    def test_exported_verilog_parses_back(self, paper_adder, tmp_path):
        failing = self._failing(paper_adder)
        export_failure_models(failing, str(tmp_path), unit="adder")
        for model in failing:
            text = (tmp_path / f"{model.model.label}.v").read_text()
            parsed = parse_verilog(text, library=paper_adder.library)
            assert parsed.stats() == model.netlist.stats()

    def test_export_suite_artifacts(self, tmp_path):
        from repro.cpu.alu_design import AluOp, alu_reference

        case = TestCase(
            name="t",
            unit="alu",
            model=FailureModel("x", "y", ViolationKind.SETUP, CMode.ONE),
        )
        case.instructions.append(
            TestInstruction(
                "add", {"rs1": 1, "rs2": 2},
                expected=alu_reference(int(AluOp.ADD), 1, 2),
            )
        )
        library = AgingLibrary(name="demo", test_cases=[case])
        files = export_suite_artifacts(library, str(tmp_path))
        assert sorted(files) == ["demo.c", "demo.s", "demo_routine.s"]
        for name in files:
            assert (tmp_path / name).read_text()

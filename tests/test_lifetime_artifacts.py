"""Tests for the lifetime simulator and artifact exporters."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.corners import TYPICAL_CORNER, WORST_CORNER
from repro.core.artifacts import export_failure_models, export_suite_artifacts
from repro.core.config import AgingAnalysisConfig, CampaignConfig
from repro.core.example import PAPER_TABLE1_SP, build_paper_adder
from repro.core.experiments import CLOCK_CHAIN_LENGTH, ExperimentContext
from repro.core.lifetime import SCHEDULES, LifetimeSimulator, base_onset_years
from repro.integration.library_gen import AgingLibrary
from repro.lifting.instrument import make_failing_netlist
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.lifting.testcase import TestCase, TestInstruction
from repro.netlist.parser import parse_verilog
from repro.sim.probes import SPProfile
from repro.sta.aging_sta import AgingAwareSta
from repro.sta.timing import StaticTimingAnalyzer

from oracles import onset_linear


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


#: Ages the onset properties draw from: a fixed set, so each STA driver
#: characterizes at most this many aging libraries.
_AGES = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext()


@pytest.fixture(scope="module")
def unit_sta(context):
    """``(unit, corner name, gated) -> (STA driver, unit SP profile)``.

    One driver per key, reused across examples, so its per-age
    libraries are characterized once.
    """
    corners = {c.name: c for c in (WORST_CORNER, TYPICAL_CORNER)}
    drivers = {}

    def get(unit, corner_name, gated):
        key = (unit, corner_name, gated)
        if key not in drivers:
            experiment = context.unit(unit)
            sta = AgingAwareSta(
                experiment.netlist,
                config=experiment.context.config.aging,
                corner=corners[corner_name],
                gated_instances=(
                    experiment.gated_instances() if gated else None
                ),
                clock_chain_length=CLOCK_CHAIN_LENGTH if gated else 1,
            )
            drivers[key] = (sta, experiment.sp_profile)
        return drivers[key]

    return get


def _skewed(profile: SPProfile, seed: int, intensity: float) -> SPProfile:
    """``profile`` with every net's SP pushed toward 0 (intensity > 0,
    the BTI-stressed state) or toward 1 (intensity < 0) by a random
    per-net share of ``|intensity|``."""
    rng = random.Random(seed)
    sp = {}
    for net, p in sorted(profile.sp.items()):
        w = intensity * rng.random()
        sp[net] = p * (1.0 - w) if w >= 0 else p + (1.0 - p) * -w
    return SPProfile(profile.netlist_name, sp, profile.samples)


def _full_check(sta, device, age, period):
    """Aged STA listing one path per endpoint, with no total cap."""
    model, _ = sta.at_age(age).aged_delay_model(device)
    return StaticTimingAnalyzer(sta.netlist, model).check(
        period, max_paths_per_endpoint=1, max_total_paths=10**9
    )


def _device(unit_sta, unit, corner, gated, seed, intensity, pivot):
    """(STA driver, skewed device, period) for one drawn device.

    The period is the sign-off one when ``pivot`` is None, else the one
    at which the device's setup slack is exactly 0 at ``pivot`` years:
    its onset then lands inside the age range at either corner (at the
    typical corner 30 years move WNS by 0.05 % only).
    """
    sta, profile = unit_sta(unit, corner, gated)
    device = _skewed(profile, seed, intensity)
    period = sta.derive_period()
    if pivot is not None:
        period -= _full_check(sta, device, pivot, period).wns_setup_ns
    return sta, device, period


_SETUPS = pytest.mark.parametrize(
    "corner, gated",
    [
        (corner.name, gated)
        for corner in (WORST_CORNER, TYPICAL_CORNER)
        for gated in (False, True)
    ],
    ids=lambda v: v if isinstance(v, str) else ("gated" if v else "ungated"),
)
_DEVICES = dict(
    seed=st.integers(min_value=0, max_value=2**16),
    intensity=st.floats(min_value=-1.0, max_value=1.0),
    pivot=st.one_of(st.none(), st.sampled_from(_AGES)),
)


class TestViolationBitMonotone:
    """Neither the setup nor the hold violation bit clears as a device
    ages: the precondition for bisecting an age grid for the onset.

    Checks list one path per endpoint with no total cap, so each bit
    sees every endpoint.
    """

    @staticmethod
    def _check(unit_sta, unit, corner, gated, seed, intensity, pivot, ages):
        sta, device, period = _device(
            unit_sta, unit, corner, gated, seed, intensity, pivot
        )
        bits = []
        for age in sorted(ages):
            report = _full_check(sta, device, age, period)
            bits.append(
                (bool(report.setup_violations()),
                 bool(report.hold_violations()))
            )
        for kind in range(2):
            series = [bit[kind] for bit in bits]
            assert series == sorted(series), (kind, sorted(ages), series)

    _AGE_SETS = st.lists(
        st.sampled_from(_AGES), min_size=2, max_size=5, unique=True
    )

    @_SETUPS
    @given(ages=_AGE_SETS, **_DEVICES)
    @settings(max_examples=25, deadline=None)
    def test_alu(
        self, unit_sta, corner, gated, seed, intensity, pivot, ages
    ):
        self._check(
            unit_sta, "alu", corner, gated, seed, intensity, pivot, ages
        )

    @_SETUPS
    @given(ages=_AGE_SETS, **_DEVICES)
    @settings(max_examples=6, deadline=None)
    def test_fpu(
        self, unit_sta, corner, gated, seed, intensity, pivot, ages
    ):
        self._check(
            unit_sta, "fpu", corner, gated, seed, intensity, pivot, ages
        )


class TestOnsetBisection:
    """``AgingAwareSta.onset`` equals the linear scan it replaced."""

    @_SETUPS
    @given(
        grid=st.lists(
            st.sampled_from(_AGES), min_size=1, max_size=7, unique=True
        ),
        fresh_share=st.sampled_from([0.0, 0.1, 0.5]),
        **_DEVICES,
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_linear_scan(
        self, unit_sta, corner, gated, seed, intensity, pivot, grid,
        fresh_share,
    ):
        sta, device, period = _device(
            unit_sta, "alu", corner, gated, seed, intensity, pivot
        )
        rng = random.Random(seed)
        fresh = tuple(
            name
            for name in sorted(sta.netlist.instances)
            if rng.random() < fresh_share
        )
        grid = sorted(grid)
        assert sta.onset(device, period, grid, fresh) == onset_linear(
            sta, device, period, grid, fresh
        )

    @pytest.mark.parametrize("unit", ["alu", "fpu"])
    def test_base_onset_matches_lifetime_sweep(self, context, unit):
        # The sweep counts only violations that start at a flop; the
        # onset search counts every violation.  They agree on the units.
        experiment = context.unit(unit)
        swept = LifetimeSimulator(
            experiment.netlist,
            experiment.sp_profile,
            config=experiment.context.config.aging,
            gated_instances=experiment.gated_instances(),
            clock_chain_length=CLOCK_CHAIN_LENGTH,
        ).sweep((2.5, 5.0, 7.5, 10.0))
        assert swept.first_onset_years is not None
        assert (
            base_onset_years(CampaignConfig(), experiment)
            == swept.first_onset_years
        )


class TestTruncatedFlag:
    """``StaReport.truncated`` is set exactly when a cap left a
    violating path out of the report.

    The aged ALU violates at one endpoint (``res_q_r31``) with 2, 4, 10
    and 11 paths at 3, 5, 10 and 16 years, so these caps hit the path
    count exactly, fall short of it, or exceed it.
    """

    @pytest.mark.parametrize("age", [3.0, 5.0, 10.0, 16.0])
    @pytest.mark.parametrize(
        "per_endpoint, total",
        [(1, 64), (2, 64), (4, 64), (10, 64), (11, 64), (400, 4), (400, 10)],
    )
    def test_matches_uncapped_check(self, unit_sta, age, per_endpoint, total):
        sta, profile = unit_sta("alu", WORST_CORNER.name, True)
        model, _ = sta.at_age(age).aged_delay_model(profile)
        analyzer = StaticTimingAnalyzer(sta.netlist, model)
        period = sta.derive_period()
        capped = analyzer.check(period, per_endpoint, total)
        full = analyzer.check(period, 10**6, 10**9)
        assert not full.truncated
        assert all(v in full.violations for v in capped.violations)
        assert capped.truncated == (
            len(capped.violations) < len(full.violations)
        )


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

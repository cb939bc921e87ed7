"""Tests for the fault-parallel packed campaign prefilter.

The packed path is an *optimization with an equality contract*: for any
fleet, packing width, and worker count, the campaign must produce the
same per-device outcomes and a byte-identical
:class:`~repro.campaign.report.CampaignReport` as the serial engine
(the ``unpacked_campaign`` oracle).
These tests pin that contract on real lifted suites, plus the
``pack_vectors`` fast path against its reference transpose.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignEngine, sample_fleet
from repro.core import telemetry
from repro.core.config import CampaignConfig, ErrorLiftingConfig
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.sim.gatesim import pack_vectors, unpack_vectors
from repro.sta.timing import TimingViolation

from oracles import unpacked_campaign

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
    lifter = ErrorLifter(alu_netlist, ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    return AgingLibrary(
        name="packed_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )


def run_campaign(alu_netlist, vega_library, **overrides):
    config = dataclasses.replace(CONFIG, **overrides)
    engine = CampaignEngine(
        alu_netlist, "alu", vega_library, MODELS, config
    )
    return engine.run()


class TestPackVectors:
    """The single-pass ``pack_vectors`` against the reference transpose."""

    @staticmethod
    def reference_pack(values, width):
        planes = [0] * width
        for bit in range(width):
            plane = 0
            for vec_index, value in enumerate(values):
                if (value >> bit) & 1:
                    plane |= 1 << vec_index
            planes[bit] = plane
        return planes

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=70
        ),
        width=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_transpose(self, values, width):
        assert pack_vectors(values, width) == self.reference_pack(
            values, width
        )

    def test_roundtrip(self):
        values = [0, 1, 0b1011, (1 << 32) - 1, 7]
        planes = pack_vectors(values, 32)
        assert unpack_vectors(planes, len(values)) == values


class TestPackedEquivalence:
    """Packed campaigns are byte-identical to the serial engine."""

    @pytest.fixture(scope="class")
    def serial_report(self, alu_netlist, vega_library):
        with unpacked_campaign():
            return run_campaign(alu_netlist, vega_library)

    @pytest.mark.parametrize("pack_width", [1, 2, 3, 64])
    def test_pack_width_invariance(
        self, alu_netlist, vega_library, serial_report, pack_width
    ):
        packed = run_campaign(alu_netlist, vega_library, pack_width=pack_width)
        assert packed.to_json() == serial_report.to_json()

    def test_worker_invariance(
        self, alu_netlist, vega_library, serial_report
    ):
        packed = run_campaign(alu_netlist, vega_library, workers=2)
        assert packed.to_json() == serial_report.to_json()

    def test_explicit_fleet_matches_serial(self, alu_netlist, vega_library):
        """A ``fleet=`` override (here: halved onsets, every device
        faulty) takes the packed path with the same equality contract."""
        fleet = [
            dataclasses.replace(
                spec, onset_years=spec.onset_years / 2, faulty=True,
                model=MODELS[spec.index % len(MODELS)],
            )
            for spec in sample_fleet(CONFIG, MODELS, CONFIG.base_onset_years)
        ]

        def run():
            return CampaignEngine(
                alu_netlist, "alu", vega_library, MODELS, CONFIG,
                fleet=fleet,
            ).run()

        with unpacked_campaign():
            serial = run()
        assert run().to_json() == serial.to_json()

    def test_per_device_rows_match(
        self, alu_netlist, vega_library, serial_report
    ):
        """Equality is per (device, suite) row, not just aggregate."""
        packed = run_campaign(alu_netlist, vega_library)
        assert packed.device_rows == serial_report.device_rows

    def test_packed_path_actually_engaged(self, alu_netlist, vega_library):
        tele = telemetry.Telemetry(run_id="packed-on")
        with telemetry.use(tele):
            run_campaign(alu_netlist, vega_library)
        assert tele.counters.get("campaign.packed_golden", 0) > 0

    def test_packed_disabled_never_packs(self, alu_netlist, vega_library):
        tele = telemetry.Telemetry(run_id="packed-off")
        with telemetry.use(tele), unpacked_campaign():
            run_campaign(alu_netlist, vega_library)
        assert tele.counters.get("campaign.packed_golden", 0) == 0


class TestPackedProperty:
    """Random fleets, widths, and worker counts — always byte-identical."""

    @given(
        devices=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        pack_width=st.sampled_from([1, 2, 64]),
        workers=st.sampled_from([1, 2]),
    )
    @settings(max_examples=6, deadline=None)
    def test_report_byte_identical(
        self, alu_netlist, vega_library, devices, seed, pack_width, workers
    ):
        with unpacked_campaign():
            serial = run_campaign(
                alu_netlist, vega_library,
                devices=devices, seed=seed, shard_size=2, workers=1,
            )
        packed = run_campaign(
            alu_netlist, vega_library,
            devices=devices, seed=seed, shard_size=2,
            pack_width=pack_width, workers=workers,
        )
        assert packed.to_json() == serial.to_json()

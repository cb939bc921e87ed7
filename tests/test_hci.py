"""Tests for the hot-carrier-injection aging model.

HCI damage accrues with switching *activity* (transition density),
opposite in character to BTI's static stress duty.  The properties
pinned here are the physics the rest of the stack leans on: more
stress ⇒ larger threshold shift, older ⇒ worse delays and slack, and
the HCI-aware characterization is never optimistic relative to the
BTI-only one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging import (
    DEFAULT_HCI,
    HciParameters,
    cell_delta_vth_hci,
    delta_vth_hci,
    transition_density,
)
from repro.aging.bti import SECONDS_PER_YEAR
from repro.aging.charlib import AgingTimingLibrary
from repro.aging.corners import TYPICAL_CORNER, WORST_CORNER
from repro.campaign.fleet import CORNERS, assign_model, sample_fleet
from repro.core.config import CampaignConfig
from repro.cpu.alu_design import build_alu
from repro.lifting.models import CMode, FailureModel, ViolationKind

MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
]


class TestTransitionDensity:
    def test_peaks_at_half(self):
        assert transition_density(0.5) == pytest.approx(0.5)

    def test_zero_at_extremes(self):
        assert transition_density(0.0) == 0.0
        assert transition_density(1.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            transition_density(1.5)

    @given(sp=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, sp):
        assert transition_density(sp) == pytest.approx(
            transition_density(1.0 - sp)
        )


class TestDeltaVthHci:
    def test_zero_without_stress_or_activity(self):
        assert delta_vth_hci(0.0, 0.5, 105.0) == 0.0
        assert delta_vth_hci(SECONDS_PER_YEAR, 0.0, 105.0) == 0.0

    def test_magnitude_below_bti(self):
        # HCI is the secondary mechanism at these conditions: a
        # maximally active cell accrues millivolts, not tens of them.
        dvth = cell_delta_vth_hci(0.5, 10.0, 105.0)
        assert 1e-4 < dvth < 0.02

    @given(
        activity=st.floats(min_value=1e-3, max_value=1.0),
        years=st.floats(min_value=0.1, max_value=20.0),
        scale=st.floats(min_value=1.1, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_activity_and_time(self, activity, years, scale):
        base = delta_vth_hci(years * SECONDS_PER_YEAR, activity, 105.0)
        more_active = delta_vth_hci(
            years * SECONDS_PER_YEAR, min(1.0, activity * scale), 105.0
        )
        older = delta_vth_hci(
            years * scale * SECONDS_PER_YEAR, activity, 105.0
        )
        assert more_active >= base
        assert older > base

    @given(temp=st.floats(min_value=25.0, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_hotter_is_worse(self, temp):
        cold = delta_vth_hci(SECONDS_PER_YEAR, 0.5, temp)
        hot = delta_vth_hci(SECONDS_PER_YEAR, 0.5, temp + 10.0)
        assert hot > cold

    def test_custom_params(self):
        strong = HciParameters(prefactor=DEFAULT_HCI.prefactor * 2)
        assert cell_delta_vth_hci(
            0.5, 10.0, 105.0, params=strong
        ) == pytest.approx(2.0 * cell_delta_vth_hci(0.5, 10.0, 105.0))


class TestHciCharacterization:
    @pytest.fixture(scope="class")
    def library(self):
        return build_alu().library

    def test_hci_never_optimistic(self, library):
        bti_only = AgingTimingLibrary.characterize(library)
        with_hci = AgingTimingLibrary.characterize(library, hci=DEFAULT_HCI)
        compared = 0
        strictly = 0
        for name, table in bti_only.tables.items():
            hci_table = with_hci.tables[name]
            for f_bti, f_hci in zip(table.factors, hci_table.factors):
                assert f_hci >= f_bti
                compared += 1
                if f_hci > f_bti:
                    strictly += 1
        assert compared > 0
        # Mid-SP grid points have nonzero transition density, so the
        # HCI term must actually bite somewhere.
        assert strictly > 0

    def test_older_is_worse(self, library):
        young = AgingTimingLibrary.characterize(
            library, lifetime_years=2.0, hci=DEFAULT_HCI
        )
        old = AgingTimingLibrary.characterize(
            library, lifetime_years=10.0, hci=DEFAULT_HCI
        )
        for name, table in young.tables.items():
            for f_young, f_old in zip(table.factors, old.tables[name].factors):
                assert f_old >= f_young

    def test_activity_scale_orders_corners(self, library):
        # The worst corner's hci_stress_scale > typical's, so its
        # characterized factors dominate at matched (sp, age).
        assert WORST_CORNER.hci_stress_scale > TYPICAL_CORNER.hci_stress_scale
        worst = AgingTimingLibrary.characterize(
            library, hci=DEFAULT_HCI,
            hci_activity_scale=WORST_CORNER.hci_stress_scale,
        )
        typical = AgingTimingLibrary.characterize(
            library, hci=DEFAULT_HCI,
            hci_activity_scale=TYPICAL_CORNER.hci_stress_scale,
        )
        for name, table in typical.tables.items():
            for f_typ, f_worst in zip(table.factors, worst.tables[name].factors):
                assert f_worst >= f_typ


class TestFleetMechanismDraw:
    def test_default_fleet_is_all_bti(self):
        config = CampaignConfig(devices=8, seed=3, base_onset_years=6.0)
        fleet = sample_fleet(config, MODELS, 6.0)
        assert all(spec.mechanism == "bti" for spec in fleet)

    def test_default_draw_matches_pre_hci_sampler(self):
        # hci_fraction = 0 must keep the historical draw sequence
        # byte-identical (the mechanism stream is gated off entirely).
        config = CampaignConfig(devices=8, seed=3, base_onset_years=6.0)
        base = sample_fleet(config, MODELS, 6.0)
        with_knob = sample_fleet(
            CampaignConfig(
                devices=8, seed=3, base_onset_years=6.0,
                hci_fraction=0.0, hci_onset_scale=0.5,
            ),
            MODELS,
            6.0,
        )
        assert base == with_knob

    def test_full_hci_fleet(self):
        config = CampaignConfig(
            devices=8, seed=3, base_onset_years=6.0, hci_fraction=1.0
        )
        fleet = sample_fleet(config, MODELS, 6.0)
        assert all(spec.mechanism == "hci" for spec in fleet)

    def test_hci_onset_scaling(self):
        bti_cfg = CampaignConfig(devices=8, seed=3, base_onset_years=6.0)
        hci_cfg = CampaignConfig(
            devices=8, seed=3, base_onset_years=6.0, hci_fraction=1.0
        )
        bti = sample_fleet(bti_cfg, MODELS, 6.0)
        hci = sample_fleet(hci_cfg, MODELS, 6.0)
        for spec_b, spec_h in zip(bti, hci):
            assert spec_b.corner == spec_h.corner
            assert spec_b.mechanism == "bti" and spec_h.mechanism == "hci"
            expected = spec_b.onset_years * (
                hci_cfg.hci_onset_scale
                / CORNERS[spec_h.corner].hci_stress_scale
            )
            # Both onsets are rounded to 6 decimals by the sampler.
            assert spec_h.onset_years == pytest.approx(expected, abs=2e-6)


class TestAssignModelBoundary:
    """Mission-window boundary regression: onset == mission is faulty."""

    def _rng(self):
        import random

        return random.Random(0)

    def test_onset_at_mission_boundary_is_faulty(self):
        faulty, model = assign_model(self._rng(), MODELS, 10.0, 10.0)
        assert faulty is True
        assert model is MODELS[0]

    def test_onset_just_past_mission_is_healthy(self):
        faulty, model = assign_model(
            self._rng(), MODELS, math.nextafter(10.0, math.inf), 10.0
        )
        assert faulty is False
        assert model is None

    def test_no_models_means_never_faulty(self):
        faulty, model = assign_model(self._rng(), [], 1.0, 10.0)
        assert faulty is False
        assert model is None

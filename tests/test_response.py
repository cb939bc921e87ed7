"""Tests for the runtime detection signal a fault response acts on.

The package stops at detection: ``IntegratedApplication.run`` returns
``(result, fault)`` and a caller chooses the response.  These tests pin
the signals each classic response needs — fail-stop (retire) needs the
fault flagged, retry needs a persistent fault to recur and a transient
one to clear, and software fallback needs a re-run on the golden model
to reproduce the fault-free result.
"""

import pytest

from repro.core.config import ErrorLiftingConfig, TestIntegrationConfig
from repro.cpu.alu_design import alu_reference, build_alu
from repro.cpu.cosim import GateAluBackend
from repro.cpu.cpu import GoldenAlu, run_program
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import FAULT_SENTINEL, AgingLibrary
from repro.integration.profile import ProfileGuidedIntegrator
from repro.lifting.instrument import make_failing_netlist
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.sta.timing import TimingViolation
APP = """
    li s0, 0
    li s1, 24
outer:
    li s2, 40
inner:
    add s0, s0, s2
    xor s0, s0, s1
    addi s2, s2, -1
    bnez s2, inner
    addi s1, s1, -1
    bnez s1, outer
    mv a0, s0
    ecall
"""


@pytest.fixture(scope="module")
def protected_app():
    """A small loop kernel spliced with a real lifted ALU test suite.

    The generous overhead budget keeps the tests ungated so every run
    deterministically executes them (the Figure 9 benchmarks cover the
    gated regime on full-size workloads).  The budget is measured
    against the empirically costed call site, which on this tiny kernel
    is a little under 1x the application itself.
    """
    lifter = ErrorLifter(build_alu(), ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    library = AgingLibrary(
        name="prot", test_cases=lifter.lift_pair(violation).test_cases
    )
    integrator = ProfileGuidedIntegrator(
        library, TestIntegrationConfig(overhead_threshold=2.0)
    )
    app = integrator.integrate(APP)
    assert not app.plan.gated  # tests run on every visit
    return app


@pytest.fixture(scope="module")
def failing_alu():
    model = FailureModel(
        "a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE
    )
    return make_failing_netlist(build_alu(), model).netlist


@pytest.fixture(scope="module")
def baseline():
    return run_program(APP).exit_value


def _faulty_first_run(app, failing_alu, seed=0):
    """A backend that is faulty for exactly one run, healthy afterwards."""
    probe = GateAluBackend(failing_alu, seed=seed)
    app.run(alu=probe)
    ops_first_run = probe.operations

    class SettlesAfterFirstRun:
        def __init__(self):
            self.bad = GateAluBackend(failing_alu, seed=seed)
            self.calls = 0

        def execute(self, op, a, b):
            self.calls += 1
            if self.calls <= ops_first_run:
                return self.bad.execute(op, a, b)
            return alu_reference(op, a, b)

    return SettlesAfterFirstRun()


def _assert_flagged(outcome):
    # A stall surfaces as (None, True); a failed test as the sentinel.
    _, fault = outcome
    assert fault


class TestCleanRun:
    def test_no_fault_no_action(self, protected_app, baseline):
        result, fault = protected_app.run()
        assert not fault
        assert result is not None
        assert result.exit_value == baseline


class TestRetire:
    def test_fault_retires_unit(self, protected_app, failing_alu):
        # Fail-stop acts on the flag alone: the embedded tests must
        # raise it on the failing unit.
        _assert_flagged(
            protected_app.run(alu=GateAluBackend(failing_alu))
        )


class TestRetry:
    def test_persistent_fault_escalates(self, protected_app, failing_alu):
        # The injected failure is persistent: a retry sees it again.
        backend = GateAluBackend(failing_alu)
        _assert_flagged(protected_app.run(alu=backend))
        _assert_flagged(protected_app.run(alu=backend))

    def test_retry_can_escalate_to_fallback(
        self, protected_app, failing_alu, baseline
    ):
        backend = GateAluBackend(failing_alu)
        _assert_flagged(protected_app.run(alu=backend))
        _assert_flagged(protected_app.run(alu=backend))
        result, fault = protected_app.run(alu=GoldenAlu())
        assert not fault
        assert result.exit_value == baseline

    def test_transient_fault_clears_on_retry(
        self, protected_app, failing_alu, baseline
    ):
        flaky = _faulty_first_run(protected_app, failing_alu)
        _assert_flagged(protected_app.run(alu=flaky))
        result, fault = protected_app.run(alu=flaky)
        assert not fault
        assert result.exit_value == baseline


class TestFallback:
    def test_software_emulation_recovers_result(
        self, protected_app, failing_alu, baseline
    ):
        _assert_flagged(
            protected_app.run(alu=GateAluBackend(failing_alu))
        )
        result, fault = protected_app.run(alu=GoldenAlu())
        assert not fault
        assert result.exit_value == baseline

    def test_fallback_is_default_policy(self, protected_app, baseline):
        # With no hardware backend named, every unit runs on its golden
        # software model, so dropping the faulty backend is the fallback.
        result, fault = protected_app.run(alu=None)
        assert not fault
        assert result.exit_value == baseline


class TestCampaignDevices:
    """Detection on campaign-sampled faulty devices.

    The fleet sampler assigns each faulty device a failure model and a
    backend seed; these tests wire those devices into the protected
    application and check the signals a response would act on for
    persistent vs transient faults.
    """

    @pytest.fixture(scope="class")
    def faulty_devices(self):
        from repro.campaign import sample_fleet
        from repro.core.config import CampaignConfig

        model = FailureModel(
            "a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE
        )
        config = CampaignConfig(
            devices=6, seed=11, base_onset_years=6.0
        )
        fleet = sample_fleet(config, [model], 6.0)
        faulty = [spec for spec in fleet if spec.faulty]
        assert faulty, "fixture fleet must contain faulty devices"
        return faulty

    @pytest.fixture(scope="class")
    def device_backend(self, faulty_devices, failing_alu):
        spec = faulty_devices[0]
        return GateAluBackend(failing_alu, seed=spec.backend_seed)

    def test_persistent_fault_trail(
        self, protected_app, faulty_devices, failing_alu
    ):
        # Every faulty device's injection is persistent: each re-run
        # flags the fault again.
        for spec in faulty_devices[:2]:
            backend = GateAluBackend(failing_alu, seed=spec.backend_seed)
            _assert_flagged(protected_app.run(alu=backend))
            _assert_flagged(protected_app.run(alu=backend))

    def test_transient_fault_trail(
        self, protected_app, faulty_devices, failing_alu, baseline
    ):
        # A device whose marginal path trips once (environmental noise,
        # §6.2) and then holds: faulty backend first run, healthy after.
        spec = faulty_devices[0]
        settles = _faulty_first_run(
            protected_app, failing_alu, seed=spec.backend_seed
        )
        _assert_flagged(protected_app.run(alu=settles))
        result, fault = protected_app.run(alu=settles)
        assert not fault
        assert result.exit_value == baseline

    def test_fallback_recovers_device_result(
        self, protected_app, device_backend, baseline
    ):
        _assert_flagged(protected_app.run(alu=device_backend))
        result, fault = protected_app.run(alu=GoldenAlu())
        assert not fault
        assert result.exit_value == baseline

    def test_retire_halts_device(self, protected_app, device_backend):
        # No result of a flagged run may be trusted: either the CPU
        # stalled or the exit value is the fault sentinel.
        result, fault = protected_app.run(alu=device_backend)
        assert fault
        assert result is None or result.exit_value == FAULT_SENTINEL

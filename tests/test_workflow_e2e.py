"""End-to-end workflow tests on the real ALU (scaled for test speed)."""

import pytest

from repro.core.config import (
    AgingAnalysisConfig,
    ErrorLiftingConfig,
    VegaConfig,
)
from repro.core.workflow import VegaWorkflow
from repro.cpu.alu_design import build_alu
from repro.cpu.cosim import GateAluBackend
from repro.cpu.mappers import AluMapper
from repro.lifting.lifter import PairOutcome
from repro.workloads import collect_operand_streams


@pytest.fixture(scope="module")
def alu():
    return build_alu()


@pytest.fixture(scope="module")
def alu_stream():
    stream, _ = collect_operand_streams(["minver"])
    return stream


@pytest.fixture(scope="module")
def workflow_report(alu, alu_stream):
    config = VegaConfig(
        aging=AgingAnalysisConfig(clock_margin=0.03, max_paths_per_endpoint=50),
        lifting=ErrorLiftingConfig(bmc_depth=4),
    )
    workflow = VegaWorkflow(config)
    return workflow.run(alu, alu_stream, AluMapper())


class TestVegaWorkflowOnAlu:
    def test_fresh_design_signs_off(self, workflow_report):
        assert workflow_report.sta_report.fresh_report.violations == []

    def test_aged_design_violates(self, workflow_report):
        report = workflow_report.sta_report.report  # AgingStaResult wrapper
        assert report.setup_violations()
        assert report.wns_setup_ns < 0

    def test_sp_profile_collected(self, workflow_report, alu):
        profile = workflow_report.sp_profile
        assert profile.samples > 0
        assert set(profile.sp) == set(alu.nets)

    def test_lifting_outcomes_mix(self, workflow_report):
        lifting = workflow_report.lifting_report
        outcomes = {pair.outcome for pair in lifting.pairs}
        # Paths from toggleable operand flops construct; paths from the
        # mission-constant DFT flop are proven unrealizable.
        assert PairOutcome.CONSTRUCTED in outcomes
        starts = {pair.start for pair in lifting.pairs}
        if any(s.startswith("dft_q") for s in starts):
            assert PairOutcome.UNREALIZABLE in outcomes

    def test_dft_pairs_are_unrealizable(self, workflow_report):
        for pair in workflow_report.lifting_report.pairs:
            if pair.start.startswith(("dft_q", "mode_q", "rm_q")):
                assert pair.outcome is PairOutcome.UNREALIZABLE

    def test_suite_runs_clean_on_healthy_gate_alu(self, workflow_report, alu):
        suite = workflow_report.test_suite
        assert suite.test_cases
        result = suite.run_suite(alu=GateAluBackend(alu))
        assert not result.detected

    def test_suite_compact(self, workflow_report):
        assert 0 < workflow_report.test_suite.suite_cycles() < 2000

    def test_summary_renders(self, workflow_report):
        text = workflow_report.summary()
        assert "aging-prone paths" in text
        assert "test cases" in text

    def _detection_count(self, suite, alu, constructed):
        from repro.lifting.instrument import make_failing_netlist
        from repro.lifting.models import CMode, FailureModel

        detected = 0
        for pair in constructed:
            model = FailureModel(pair.start, pair.end, pair.kind, CMode.ONE)
            failing = make_failing_netlist(alu, model)
            result = suite.run_suite(alu=GateAluBackend(failing.netlist))
            detected += int(result.detected)
        return detected

    def test_suite_detects_lifted_failures(self, workflow_report, alu):
        """Constructed pairs' failing netlists are (mostly) detected.

        Without the §3.3.4 mitigation, occasional misses are expected:
        a test's activation may depend on reset-time register values
        that the suite's own preceding instructions perturb — the exact
        phenomenon the paper reports in §5.2.3.
        """
        suite = workflow_report.test_suite
        constructed = [
            pair
            for pair in workflow_report.lifting_report.pairs
            if pair.outcome is PairOutcome.CONSTRUCTED
        ]
        assert constructed
        detected = self._detection_count(suite, alu, constructed)
        assert detected >= (len(constructed) + 1) // 2

    def test_mitigation_closes_detection_gaps(
        self, workflow_report, alu, alu_stream
    ):
        """The edge-qualified suite detects every constructed failure."""
        config = VegaConfig(
            aging=AgingAnalysisConfig(
                clock_margin=0.03, max_paths_per_endpoint=50
            ),
            lifting=ErrorLiftingConfig(bmc_depth=4, enable_mitigation=True),
        )
        report = VegaWorkflow(config).run(alu, alu_stream, AluMapper())
        constructed = [
            pair
            for pair in report.lifting_report.pairs
            if pair.outcome is PairOutcome.CONSTRUCTED
        ]
        assert constructed
        detected = self._detection_count(
            report.test_suite, alu, constructed
        )
        assert detected == len(constructed)


class TestMapperContracts:
    def test_alu_mapper_assumptions_cover_control_inputs(self):
        names = {a.port for a in AluMapper().assumptions()}
        assert names == {"op", "mode", "dft"}

    def test_fpu_mapper_assumptions_cover_control_inputs(self):
        from repro.cpu.mappers import FpuMapper

        names = {a.port for a in FpuMapper().assumptions()}
        assert names == {"op", "rm", "in_valid", "dft"}


class TestMarkdownReport:
    def test_renders_all_phases(self, workflow_report):
        text = workflow_report.to_markdown()
        assert "# Vega report" in text
        assert "## Phase 1" in text
        assert "## Phase 2" in text
        assert "## Phase 3" in text
        assert "| start | end | kind |" in text
        assert "cycles per pass" in text


class TestPackageQuickstart:
    def test_docstring_quickstart_runs(self, capsys):
        """The package docstring's Quickstart block runs as written."""
        import textwrap

        import repro

        block = repro.__doc__.split("Quickstart::", 1)[1]
        namespace = {}
        exec(compile(textwrap.dedent(block), "<quickstart>", "exec"), namespace)
        assert namespace["report"].test_suite is not None
        assert "Vega workflow report for 'alu'" in capsys.readouterr().out

"""Tests for the timing-report renderer."""

import pytest

from repro.aging.corners import TYPICAL_CORNER
from repro.sta.report import format_path, report_timing
from repro.sta.timing import DelayModel, StaticTimingAnalyzer


@pytest.fixture
def violated_report(paper_adder):
    model = DelayModel.fresh(paper_adder, TYPICAL_CORNER)
    analyzer = StaticTimingAnalyzer(paper_adder, model)
    return analyzer.check(period_ns=0.9), model


class TestTimingReport:
    def test_report_structure(self, paper_adder, violated_report):
        report, model = violated_report
        text = report_timing(report, paper_adder, model, max_paths=2)
        assert "Timing report" in text
        assert "WNS setup" in text
        assert text.count("Startpoint:") == 2
        assert "(VIOLATED)" in text

    def test_per_stage_arrivals_accumulate(self, paper_adder, violated_report):
        report, model = violated_report
        worst = min(report.violations, key=lambda v: v.slack)
        text = format_path(worst, paper_adder, model)
        # The last cumulative figure equals the path arrival.
        lines = [l for l in text.splitlines() if l and l[0] not in "-SEa("]
        last_cumulative = float(lines[-1].split()[-1])
        assert last_cumulative == pytest.approx(worst.arrival)

    def test_structural_only_without_delays(self, paper_adder, violated_report):
        report, _ = violated_report
        worst = report.violations[0]
        text = format_path(worst, paper_adder)
        assert "clk->q" not in text
        for cell in worst.cells:
            assert cell in text

    def test_kind_filter(self, paper_adder, violated_report):
        report, model = violated_report
        text = report_timing(report, paper_adder, model, kind="hold")
        assert "(no violating paths)" in text

    def test_clean_report(self, paper_adder):
        model = DelayModel.fresh(paper_adder, TYPICAL_CORNER)
        report = StaticTimingAnalyzer(paper_adder, model).check(1.0)
        text = report_timing(report, paper_adder, model)
        assert "(no violating paths)" in text

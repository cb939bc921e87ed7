"""Tests for the command-line interface."""

import argparse
import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_workloads_lists_all(self):
        code, text = _run(["workloads"])
        assert code == 0
        assert text.count("\n") == 11
        assert "minver" in text and "crc32" in text and "matmult_hw" in text

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sta_alu(self):
        code, text = _run(["sta", "--unit", "alu"])
        assert code == 0
        assert "fresh violations: 0" in text
        assert "aged setup:" in text
        assert "~>" in text

    def test_inject_emits_verilog(self, tmp_path):
        out_file = tmp_path / "failing.v"
        code, text = _run(
            [
                "inject",
                "--unit", "alu",
                "--start", "a_q_r0",
                "--end", "res_q_r1",
                "--c", "1",
                "-o", str(out_file),
            ]
        )
        assert code == 0
        verilog = out_file.read_text()
        assert "module alu__fail" in verilog
        assert "MUX2" in verilog

    def test_suite_asm_artifact(self, tmp_path):
        out_file = tmp_path / "suite.s"
        code, _ = _run(
            ["suite", "--unit", "alu", "--format", "asm", "-o", str(out_file)]
        )
        assert code == 0
        asm = out_file.read_text()
        assert "ecall" in asm
        # The suite must assemble and pass on the golden backend.
        from repro.cpu.cpu import run_program

        result = run_program(asm)
        assert result.exit_value == 0

    def test_integrate_reports_overhead(self):
        code, text = _run(["integrate", "--workload", "minver", "--units", "alu"])
        assert code == 0
        assert "measured overhead" in text
        assert "result preserved: True" in text

    def test_models_exports_library(self, tmp_path):
        out_dir = tmp_path / "models"
        code, text = _run(["models", "--unit", "alu", "-o", str(out_dir)])
        assert code == 0
        import json

        index = json.loads((out_dir / "index.json").read_text())
        assert index["unit"] == "alu"
        assert index["models"]
        for entry in index["models"]:
            assert (out_dir / entry["file"]).exists()
        # Suite artifacts came along.
        assert any(p.suffix == ".c" for p in out_dir.iterdir())

    def test_verify_alu_roundtrip_and_optimizer(self):
        code, text = _run(["verify", "--unit", "alu", "--depth", "2"])
        assert code == 0
        assert "round-trip equivalent: True" in text
        assert "optimizer" in text


def _flag_inventory(parser, path=()):
    """(verb path, option strings, dest, default, required) per argument."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _flag_inventory(sub, path + (name,))
        elif not isinstance(action, argparse._HelpAction):
            yield [
                " ".join(path),
                list(action.option_strings),
                action.dest,
                action.default,
                action.required,
            ]


class TestFlagInventory:
    def test_every_flag_keeps_its_name_dest_and_default(self):
        """The public flag surface is pinned: CI, the README and user
        scripts drive these names, so no refactor may rename, re-default
        or drop one.  Regenerate tests/cli_flags.json only for a
        deliberate interface change."""
        pinned = json.loads(
            (Path(__file__).parent / "cli_flags.json").read_text()
        )
        assert sorted(_flag_inventory(build_parser())) == pinned


class TestRunAndTrace:
    def test_run_traces_and_resumes(self, tmp_path):
        from repro.core import telemetry

        cache = str(tmp_path / "cache")
        trace = str(tmp_path / "out.jsonl")
        argv = ["run", "--unit", "alu", "--cache-dir", cache]

        code, text = _run(argv + ["--trace", trace, "--metrics"])
        assert code == 0
        assert "Vega workflow report" in text
        assert f"trace written to {trace}" in text
        assert "# Vega run metrics" in text
        # The written trace is valid JSONL covering all three phases.
        records = telemetry.read_trace(trace)
        phases = {
            r["name"]
            for r in records
            if r["type"] == "span" and r.get("parent") is None
        }
        assert phases == {
            "phase1.aging_analysis",
            "phase2.error_lifting",
            "phase3.test_integration",
        }

        # Second invocation resumes every phase from its checkpoint.
        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert (
            "resumed from checkpoints: phase1, phase2, phase3" in text
        )

        # The standalone summarizer renders the written trace.
        code, text = _run(["trace", "summarize", trace])
        assert code == 0
        assert "## Phases" in text
        assert "phase2.error_lifting" in text

    def test_resume_requires_cache(self):
        code, _ = _run(["run", "--unit", "alu", "--resume", "--no-cache"])
        assert code == 2

    def test_summarize_missing_file_is_not_called_empty(
        self, tmp_path, capsys
    ):
        # Only an existing empty file is "empty"; a missing path that
        # happens to contain the word is unreadable.
        missing = tmp_path / "empty-runs" / "missing.jsonl"
        code, _ = _run(["trace", "summarize", str(missing)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid trace: cannot read trace")
        assert "no spans recorded" not in err

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _ = _run(["trace", "summarize", str(empty)])
        assert code == 1
        assert capsys.readouterr().err.startswith("no spans recorded")

    def test_summarize_rejects_invalid_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code, _ = _run(["trace", "summarize", str(bad)])
        assert code == 1
        code, _ = _run(["trace", "summarize", str(tmp_path / "missing")])
        assert code == 1


class TestVerbTelemetry:
    """main() runs every verb under one scoped Telemetry and writes
    --trace / --metrics from it after the verb exits 0."""

    @pytest.mark.parametrize(
        "argv, root_span",
        [
            (["campaign", "run", "--devices", "4", "--shard-size", "2",
              "--onset-years", "6"], "campaign.run"),
            (["run"], "phase1.aging_analysis"),
            (["respond", "--policies", "derate",
              "--accuracy-samples", "8"], "response.evaluate"),
        ],
        ids=["campaign-run", "run", "respond"],
    )
    def test_traced_verb_writes_trace_and_metrics(
        self, tmp_path, argv, root_span
    ):
        from repro.core import telemetry

        trace = str(tmp_path / "trace.jsonl")
        code, text = _run(
            argv + ["--unit", "alu", "--cache-dir", str(tmp_path / "cache"),
                    "--trace", trace, "--metrics"]
        )
        assert code == 0
        assert f"  trace written to {trace}" in text
        assert "# Vega run metrics" in text
        records = telemetry.read_trace(trace)
        roots = {
            r["name"]
            for r in records
            if r["type"] == "span" and r.get("parent") is None
        }
        assert root_span in roots

    @staticmethod
    def _fake_verb(status):
        def handler(args, out):
            from repro.core import telemetry

            with telemetry.span("fake.verb"):
                telemetry.add("fake.count")
            return status

        return handler

    def test_failed_verb_writes_no_trace(self, tmp_path, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "cmd_run", self._fake_verb(1))
        trace = tmp_path / "trace.jsonl"
        code, text = _run(["run", "--trace", str(trace), "--metrics"])
        assert code == 1
        assert not trace.exists()
        assert text == ""

    def test_caller_telemetry_is_restored(self, tmp_path, monkeypatch):
        from repro import cli
        from repro.core import telemetry

        monkeypatch.setattr(cli, "cmd_run", self._fake_verb(0))
        trace = str(tmp_path / "trace.jsonl")
        outer = telemetry.Telemetry(run_id="caller")
        with telemetry.use(outer):
            code, _ = _run(["run", "--trace", trace])
            assert telemetry.active() is outer
        assert code == 0
        assert outer.records == [] and outer.counters == {}
        records = telemetry.read_trace(trace)
        assert [r["name"] for r in records if r["type"] == "span"] == [
            "fake.verb"
        ]
        assert records[-1]["counters"] == {"fake.count": 1}


class TestCountFlags:
    """Counts that must be >= 1 fail at parse time with exit 2 instead
    of crashing (or, for --batch-size, never terminating) later."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "--shard-size", "0"],
            ["schedule", "--batch-size", "0"],
            ["serve", "--batch-size", "0"],
            ["campaign", "run", "--pack-width", "0"],
            ["schedule", "--checkpoint-every", "0"],
            ["serve", "--checkpoint-every", "0"],
        ],
        ids=lambda argv: " ".join(argv[:-1]),
    )
    def test_zero_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestCampaignCli:
    def test_campaign_run_and_report(self, tmp_path):
        report_file = str(tmp_path / "campaign.json")
        code, text = _run(
            [
                "campaign", "run",
                "--unit", "alu",
                "--devices", "4",
                "--shard-size", "2",
                "--onset-years", "6",
                "--report", report_file,
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "campaign: alu fleet of 4" in text
        assert f"report written to {report_file}" in text

        code, text = _run(["campaign", "report", report_file])
        assert code == 0
        assert "# Campaign report" in text
        assert "## Detection coverage" in text

        # Re-running with --resume recomputes nothing.
        code, text = _run(
            [
                "campaign", "run",
                "--unit", "alu",
                "--devices", "4",
                "--shard-size", "2",
                "--onset-years", "6",
                "--resume",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "resumed 2 shard(s) from checkpoints; executed 0" in text

    def test_campaign_resume_requires_cache(self):
        code, _ = _run(
            ["campaign", "run", "--resume", "--no-cache"]
        )
        assert code == 2

    def test_campaign_report_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json}")
        code, _ = _run(["campaign", "report", str(bad)])
        assert code == 1
        code, _ = _run(
            ["campaign", "report", str(tmp_path / "missing.json")]
        )
        assert code == 1


class TestTraceSummarizeEmpty:
    def test_empty_trace_file_reports_no_spans(self, tmp_path):
        """An empty trace gets a clear verdict, not a JSON traceback."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _ = _run(["trace", "summarize", str(empty)])
        assert code == 1  # CI relies on non-zero exit for empty traces

    def test_header_only_trace_prints_no_spans_recorded(self, tmp_path):
        """A meta-only trace (run died before any span closed) renders
        the "no spans recorded" verdict instead of an empty table."""
        import json

        header_only = tmp_path / "header.jsonl"
        header_only.write_text(
            json.dumps({"type": "meta", "schema": 1, "run_id": "t"}) + "\n"
        )
        code, text = _run(["trace", "summarize", str(header_only)])
        assert code == 0
        assert "no spans recorded" in text
        assert "## Phases" not in text

    def test_header_and_counters_still_summarize(self, tmp_path):
        import json

        trace = tmp_path / "counters.jsonl"
        trace.write_text(
            json.dumps({"type": "meta", "schema": 1, "run_id": "t"})
            + "\n"
            + json.dumps({"type": "counters", "counters": {"x": 3}})
            + "\n"
        )
        code, text = _run(["trace", "summarize", str(trace)])
        assert code == 0
        assert "no spans recorded" in text
        assert "## Counters" in text


class TestSchedulerCli:
    def test_schedule_reports_and_logs(self, tmp_path):
        log_file = str(tmp_path / "events.jsonl")
        report_file = str(tmp_path / "schedule.json")
        code, text = _run(
            [
                "schedule",
                "--unit", "alu",
                "--devices", "4",
                "--onset-years", "6",
                "--policy", "thompson",
                "--log", log_file,
                "--report", report_file,
                "--verify-replay",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "scheduler report" in text
        assert "replay: byte-identical" in text

        # The event log is a valid TRACE_SCHEMA trace the summarizer
        # renders directly.
        code, text = _run(["trace", "summarize", log_file])
        assert code == 0
        assert "scheduler.dispatch" in text

        from repro.scheduler import ScheduleReport

        report = ScheduleReport.from_json(open(report_file).read())
        assert report.devices == 4
        assert report.policy == "thompson"

    def test_serve_kill_then_resume(self, tmp_path):
        cache = str(tmp_path / "cache")
        argv = [
            "serve",
            "--unit", "alu",
            "--devices", "4",
            "--onset-years", "6",
            "--checkpoint-every", "2",
            "--cache-dir", cache,
        ]
        # First tick ingests all 4 device results and checkpoints (at
        # events=4 with --checkpoint-every 2); the kill at event 5
        # lands after it, so the resume has something to load.
        code, text = _run(argv + ["--kill-after", "5"])
        assert code == 0
        assert "service killed" in text

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "service drained" in text
        assert "resumed from belief checkpoint" in text

    def test_serve_metrics_port_scrapes_single_process(
        self, tmp_path, monkeypatch
    ):
        import re
        import time
        import urllib.request

        # Scrape from inside the linger window: the CLI sleeps there
        # with the endpoint up, so a stubbed sleep is the scraper.
        out = io.StringIO()
        scraped = []

        def scrape(_seconds):
            url = re.search(r"(http://\S+/metrics)", out.getvalue()).group(1)
            scraped.append(
                urllib.request.urlopen(url, timeout=5).read().decode()
            )

        monkeypatch.setattr(time, "sleep", scrape)
        code = main(
            [
                "serve",
                "--unit", "alu",
                "--devices", "4",
                "--onset-years", "6",
                "--cache-dir", str(tmp_path / "cache"),
                "--metrics-port", "0",
                "--metrics-linger", "1",
            ],
            out=out,
        )
        assert code == 0
        assert "service drained" in out.getvalue()
        assert len(scraped) == 1
        lines = scraped[0].splitlines()
        assert "# TYPE repro_scheduler_results_total counter" in lines
        assert any(
            line.startswith("repro_scheduler_results_total ")
            for line in lines
        )

    def test_unknown_policy_rejected(self):
        code, _ = _run(
            ["schedule", "--unit", "alu", "--policy", "nonesuch"]
        )
        assert code == 2

    def test_serve_resume_requires_cache(self):
        code, _ = _run(["serve", "--unit", "alu", "--resume", "--no-cache"])
        assert code == 2

    def test_surrogate_triage_missing_model_exits_2(self, capsys):
        code, _ = _run(
            ["surrogate", "triage", "--unit", "alu",
             "--model", "/nonexistent/model.json"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load model" in err

    def test_surrogate_validate_rejects_bad_snapshot(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "model.json"
        bad.write_text('{"schema": 99}')
        code, _ = _run(
            ["surrogate", "validate", "--unit", "alu",
             "--model", str(bad)]
        )
        assert code == 2
        assert "schema" in capsys.readouterr().err

    def test_surrogate_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["surrogate"])

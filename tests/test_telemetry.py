"""Unit tests for the telemetry subsystem (spans, counters, traces)."""

import json
import multiprocessing
import os
import urllib.error
import urllib.request

import pytest

from repro.core import telemetry
from repro.core.telemetry import (
    TRACE_SCHEMA,
    MetricsServer,
    Telemetry,
    TraceError,
    dump_trace,
    parse_trace,
    read_trace,
    render_prometheus,
    summarize_trace,
)
from repro.scheduler import EventLog


class TestCounters:
    def test_add_accumulates(self):
        tele = Telemetry()
        tele.add("x")
        tele.add("x", 4)
        tele.add("y", 0.5)
        assert tele.counters == {"x": 5, "y": 0.5}

    def test_deltas_report_only_changes(self):
        tele = Telemetry()
        tele.add("x", 3)
        tele.add("y", 1)
        base = tele.snapshot()
        tele.add("x", 2)
        tele.add("z", 7)
        assert tele.counter_deltas(base) == {"x": 2, "z": 7}

    def test_merge_folds_worker_deltas(self):
        parent = Telemetry()
        parent.add("x", 1)
        worker = Telemetry()
        base = worker.snapshot()
        worker.add("x", 5)
        worker.add("w", 0.25)
        parent.merge_counters(worker.counter_deltas(base))
        assert parent.counters == {"x": 6, "w": 0.25}


class TestSpans:
    def test_hierarchical_ids_and_counter_attribution(self):
        tele = Telemetry()
        with tele.span("outer") as outer:
            tele.add("n", 1)
            with tele.span("inner") as inner:
                tele.add("n", 10)
            outer.annotate(note="done")
        assert inner.id == "outer/inner"
        assert inner.parent == "outer"
        records = {r["id"]: r for r in tele.records}
        # Inner closes first; each span owns the counters that moved
        # while it was open (outer's delta includes inner's).
        assert records["outer/inner"]["counters"] == {"n": 10}
        assert records["outer"]["counters"] == {"n": 11}
        assert records["outer"]["attrs"] == {"note": "done"}

    def test_span_records_on_exception(self):
        tele = Telemetry()
        with pytest.raises(RuntimeError):
            with tele.span("boom"):
                raise RuntimeError("x")
        assert [r["name"] for r in tele.records] == ["boom"]
        # The stack unwound: a new span is top-level again.
        with tele.span("after") as span:
            pass
        assert span.parent is None


class TestActiveInstance:
    def test_helpers_are_noops_when_inactive(self):
        assert telemetry.active() is None
        telemetry.add("x")
        telemetry.event("e")
        with telemetry.span("s") as span:
            assert span is None

    def test_use_installs_and_restores(self):
        outer_tele = Telemetry()
        inner_tele = Telemetry()
        with telemetry.use(outer_tele):
            telemetry.add("x")
            with telemetry.use(inner_tele):
                telemetry.add("x", 10)
            telemetry.add("x")
        assert telemetry.active() is None
        assert outer_tele.counters == {"x": 2}
        assert inner_tele.counters == {"x": 10}


class TestTraceRoundTrip:
    def _trace(self):
        tele = Telemetry(run_id="test-run")
        with tele.span("phase", k=1):
            tele.add("c", 3)
            tele.event("hello", who="world")
        return tele

    def test_parse_then_dump_is_byte_identical(self):
        text = self._trace().to_jsonl()
        assert dump_trace(parse_trace(text)) == text

    def test_record_shape(self):
        records = parse_trace(self._trace().to_jsonl())
        assert records[0] == {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "run_id": "test-run",
        }
        assert [r["type"] for r in records[1:]] == [
            "event",
            "span",
            "counters",
        ]
        assert records[-1]["counters"] == {"c": 3}

    def test_write_and_read_file(self, tmp_path):
        tele = self._trace()
        path = tmp_path / "trace.jsonl"
        tele.write_jsonl(str(path))
        assert dump_trace(read_trace(str(path))) == tele.to_jsonl()

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError, match="empty"):
            parse_trace("")

    def test_garbage_rejected(self):
        with pytest.raises(TraceError, match="not valid JSON"):
            parse_trace("{not json}\n")

    def test_typeless_record_rejected(self):
        with pytest.raises(TraceError, match="no 'type'"):
            parse_trace('{"schema": 1}\n')

    def test_missing_meta_head_rejected(self):
        with pytest.raises(TraceError, match="meta"):
            parse_trace('{"type": "counters", "counters": {}}\n')

    def test_wrong_schema_rejected(self):
        line = json.dumps(
            {"type": "meta", "schema": TRACE_SCHEMA + 1, "run_id": "r"}
        )
        with pytest.raises(TraceError, match="schema"):
            parse_trace(line + "\n")

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(str(tmp_path / "missing.jsonl"))


class TestSummarize:
    def test_renders_phases_counters_and_errors(self):
        tele = Telemetry(run_id="sum-run")
        with tele.span("phase1.aging_analysis", violations=10):
            tele.add("sim.cycles", 250)
            with tele.span("sta.fresh"):
                pass
        tele.event("lifting.pair_error", start="a", error="ValueError: x")
        text = summarize_trace(tele.trace_records())
        assert "sum-run" in text
        assert "phase1.aging_analysis" in text
        assert "violations=10" in text
        assert "1 nested span(s)" in text
        assert "| sim.cycles | 250 |" in text
        assert "Recorded errors" in text
        assert "ValueError: x" in text

    def test_summary_markdown_matches_summarize(self):
        tele = Telemetry()
        tele.add("c")
        assert tele.summary_markdown() == summarize_trace(tele.trace_records())


class TestWriteJsonlConcurrency:
    def test_tmp_name_carries_pid(self, tmp_path, monkeypatch):
        # The published file must come from a pid-unique tmp: spy on
        # os.replace to capture the tmp name actually used.
        log = EventLog(run_id="r1")
        log.event("result", 1, device="d0")
        seen = {}
        real_replace = os.replace

        def spy(src, dst):
            seen["src"] = src
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        target = tmp_path / "log.jsonl"
        log.write_jsonl(str(target))
        assert seen["src"] == f"{target}.tmp.{os.getpid()}"
        assert target.read_text() == log.to_jsonl()

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="concurrent writers need os.fork"
    )
    def test_concurrent_writers_never_clobber(self, tmp_path):
        # Two processes hammering the same log path: with a shared
        # f"{path}.tmp" one writer's os.replace steals the other's tmp
        # file and the loser crashes with FileNotFoundError.  The
        # pid-suffixed tmp makes every publish self-contained.
        target = tmp_path / "shared.jsonl"

        def writer(tag: str) -> None:
            log = EventLog(run_id=f"writer-{tag}")
            for tick in range(50):
                log.event("result", tick, device=f"{tag}-{tick}")
                log.write_jsonl(str(target))

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=writer, args=(tag,)) for tag in ("a", "b")
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        # Whoever won, the published file is a complete log.
        lines = target.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "counters"

    def test_telemetry_write_jsonl_uses_pid_tmp(self, tmp_path,
                                                monkeypatch):
        instance = telemetry.Telemetry(run_id="t1")
        instance.add("x", 1)
        seen = {}
        real_replace = os.replace

        def spy(src, dst):
            seen["src"] = src
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        target = tmp_path / "trace.jsonl"
        instance.write_jsonl(str(target))
        assert seen["src"] == f"{target}.tmp.{os.getpid()}"


class TestPrometheusExport:
    def test_render_counters(self):
        text = render_prometheus(
            {"scheduler.ingest_accepted": 24, "scheduler.dispatches": 7}
        )
        lines = text.splitlines()
        assert "# TYPE repro_scheduler_dispatches_total counter" in lines
        assert "repro_scheduler_dispatches_total 7" in lines
        assert "repro_scheduler_ingest_accepted_total 24" in lines
        # Names render sorted, so snapshots are deterministic.
        assert lines.index("repro_scheduler_dispatches_total 7") < (
            lines.index("repro_scheduler_ingest_accepted_total 24")
        )

    def test_render_active_reads_installed_telemetry(self):
        assert telemetry.render_active() == "\n"
        tele = Telemetry(run_id="scrape")
        tele.add("scheduler.results", 3)
        with telemetry.use(tele):
            text = telemetry.render_active()
        assert "repro_scheduler_results_total 3" in text.splitlines()

    def test_metrics_server_serves_snapshot(self):
        server = MetricsServer(
            lambda: "repro_test_metric 1\n", port=0
        ).start()
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            body = urllib.request.urlopen(url, timeout=5).read()
            assert body == b"repro_test_metric 1\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5
                )
        finally:
            server.stop()

"""Workflow observability: spans, counters, JSONL traces, metrics.

The Vega workflow is a long three-phase pipeline dominated by gate-level
simulation and bounded model checking.  This module is the
dependency-free self-measurement layer every phase reports into:

* **Spans** — context-managed wall-clock intervals with hierarchical
  ids (``phase2.error_lifting/pair:a_q_r0~res_q_r1``).  A span records
  the *deltas* of every counter that moved while it was open, so a
  trace shows not just how long phase 1 took but how many cycles it
  simulated and how many cache hits it got.
* **Counters** — named monotonic totals (int or float).  Producers call
  :func:`add` unconditionally; when no telemetry is active the call is
  a dictionary lookup and a ``None`` check, cheap enough for simulator
  and solver hot paths.
* **Events** — point-in-time records (per-endpoint wall times, pair
  errors, pool utilization).

Counters merge across ``fork`` workers the same way the profiling and
lifting shards merge results: a worker snapshots its counters around a
task (:meth:`Telemetry.snapshot`), ships the integer/float *deltas*
back with the task result, and the parent folds them in with
:meth:`Telemetry.merge_counters` in deterministic submission order.
Nothing is shared between processes, so the merge is race-free by
construction.

The trace serializes as JSONL (:data:`TRACE_SCHEMA`): a ``meta`` line,
one line per event/span in completion order, and a closing ``counters``
line.  :func:`parse_trace` validates and round-trips it;
:func:`summarize_trace` renders the markdown summary behind
``repro trace summarize`` and ``repro run --metrics``.
:func:`render_prometheus` renders counters as Prometheus text, and
:class:`MetricsServer` serves that text on ``/metrics`` (``repro serve
--metrics-port``).
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Union,
)

#: Trace format version, bumped on any incompatible record change.
TRACE_SCHEMA = 1

Number = Union[int, float]


class TraceError(ValueError):
    """An on-disk trace is empty, truncated, or not valid JSONL."""


class Span:
    """One open interval; yielded by :meth:`Telemetry.span`.

    ``annotate`` attaches attributes that land in the span's trace
    record (e.g. ``resumed=True`` on a checkpoint hit).
    """

    __slots__ = ("id", "name", "parent", "attrs", "_t0", "_start_s", "_base")

    def __init__(
        self,
        span_id: str,
        name: str,
        parent: Optional[str],
        start_s: float,
        base: Dict[str, Number],
    ):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs: Dict[str, object] = {}
        self._t0 = time.perf_counter()
        self._start_s = start_s
        self._base = base

    def annotate(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self


class Telemetry:
    """One run's worth of spans, counters, and events.

    Producers normally reach the *active* instance through the
    module-level helpers (:func:`add`, :func:`event`, :func:`span`)
    rather than threading the object through every call; the workflow
    installs it with :func:`use`.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id or f"vega-{os.getpid()}-{time.time_ns():x}"
        self.counters: Dict[str, Number] = {}
        self.records: List[dict] = []
        self._t0 = time.perf_counter()
        self._stack: List[str] = []
        self._seq = 0

    # -- counters ------------------------------------------------------
    def add(self, name: str, value: Number = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> Dict[str, Number]:
        """Copy of the counters, for delta computation around a task."""
        return dict(self.counters)

    def counter_deltas(self, base: Dict[str, Number]) -> Dict[str, Number]:
        """Counters that moved since ``base`` (a :meth:`snapshot`)."""
        deltas: Dict[str, Number] = {}
        for name, value in self.counters.items():
            change = value - base.get(name, 0)
            if change:
                deltas[name] = change
        return deltas

    def merge_counters(self, deltas: Dict[str, Number]) -> None:
        """Fold a worker's counter deltas into this (parent) instance."""
        for name, value in deltas.items():
            self.add(name, value)

    # -- events and spans ----------------------------------------------
    def event(self, name: str, **attrs: object) -> None:
        self.records.append(
            {
                "type": "event",
                "name": name,
                "t_s": round(time.perf_counter() - self._t0, 6),
                "attrs": attrs,
            }
        )

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        self._seq += 1
        span_id = f"{parent}/{name}" if parent else name
        span = Span(
            span_id,
            name,
            parent,
            round(time.perf_counter() - self._t0, 6),
            self.snapshot(),
        )
        span.attrs.update(attrs)
        self._stack.append(span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            self.records.append(
                {
                    "type": "span",
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "seq": self._seq,
                    "start_s": span._start_s,
                    "dur_s": round(time.perf_counter() - span._t0, 6),
                    "counters": self.counter_deltas(span._base),
                    "attrs": span.attrs,
                }
            )

    # -- serialization -------------------------------------------------
    def trace_records(self) -> List[dict]:
        """The full trace as records (meta + events/spans + counters)."""
        return (
            [{"type": "meta", "schema": TRACE_SCHEMA, "run_id": self.run_id}]
            + self.records
            + [{"type": "counters", "counters": dict(self.counters)}]
        )

    def to_jsonl(self) -> str:
        out = io.StringIO()
        for record in self.trace_records():
            out.write(json.dumps(record, sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def write_jsonl(self, path: str) -> None:
        # pid-suffixed tmp + fsync: concurrent writers (fork workers)
        # publishing under one path must not clobber each other's
        # half-written tmp, and the rename must never publish a
        # partially flushed trace after a crash.
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fp:
            fp.write(self.to_jsonl())
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)

    def summary_markdown(self) -> str:
        return summarize_trace(self.trace_records())


# ---------------------------------------------------------------------
# The active instance and the cheap producer-side helpers.
# ---------------------------------------------------------------------
_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The telemetry instance installed by :func:`use`, if any."""
    return _ACTIVE


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the process-wide active instance."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def install(telemetry: Telemetry) -> None:
    """Permanently install ``telemetry`` (for fork-worker processes)."""
    global _ACTIVE
    _ACTIVE = telemetry


def add(name: str, value: Number = 1) -> None:
    """Bump a counter on the active telemetry; no-op when inactive."""
    if _ACTIVE is not None:
        _ACTIVE.add(name, value)


def event(name: str, **attrs: object) -> None:
    if _ACTIVE is not None:
        _ACTIVE.event(name, **attrs)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Optional[Span]]:
    """Span on the active telemetry; yields None when inactive."""
    if _ACTIVE is None:
        yield None
        return
    with _ACTIVE.span(name, **attrs) as sp:
        yield sp


# ---------------------------------------------------------------------
# Prometheus text export.
# ---------------------------------------------------------------------
def prometheus_name(name: str) -> str:
    """Sanitize a counter name into a valid Prometheus metric name.

    Dots (the telemetry counter convention, ``scheduler.dispatches``)
    and any other illegal character become underscores.
    """
    sanitized = "".join(
        ch if (ch.isalnum() or ch in "_:") else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def render_prometheus(
    counters: Mapping[str, Number], prefix: str = "repro"
) -> str:
    """Telemetry counters as Prometheus text.

    ``counters`` maps telemetry names to monotonic totals; each renders
    as ``<prefix>_<name>_total`` with a ``# TYPE`` line.  Output is
    sorted, so a snapshot is deterministic for a given input — scrapes
    diff cleanly in tests and CI.
    """
    lines: List[str] = []
    for name in sorted(counters):
        metric = prometheus_name(f"{prefix}_{name}_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")
    return "\n".join(lines) + "\n"


def render_active() -> str:
    """Prometheus text of the active telemetry's counters.

    Copies the counter dict first: scrapes run on the server thread
    while producers keep adding counters on the main thread.
    """
    active = _ACTIVE
    return render_prometheus(
        dict(active.counters) if active is not None else {}
    )


class MetricsServer:
    """Threaded HTTP server exposing ``/metrics`` (Prometheus text).

    ``render`` is called per scrape, so the endpoint always shows the
    current counter state.  ``port=0`` binds an ephemeral port (the
    resolved one is in :attr:`port`).
    """

    def __init__(self, render: Callable[[], str] = render_active,
                 port: int = 0, host: str = "127.0.0.1"):
        # Imported here so the many modules importing telemetry do
        # not pay for an HTTP stack only ``repro serve`` uses.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path in ("/", "/metrics"):
                    body = outer.render().encode("utf-8")
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_response(404)
                    self.end_headers()

            def log_message(self, *args: object) -> None:
                pass  # scrapes are telemetry, not stderr noise

        self.render = render
        self._server = ThreadingHTTPServer((host, port), Handler)
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics",
            daemon=True,
        )

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


# ---------------------------------------------------------------------
# Trace files: parsing, validation, summarization.
# ---------------------------------------------------------------------
def parse_trace(text: str) -> List[dict]:
    """Parse and validate a JSONL trace; raises :class:`TraceError`.

    The inverse of :meth:`Telemetry.to_jsonl` — parsing and
    re-serializing yields byte-identical JSONL (the round-trip the
    trace-schema tests pin down).
    """
    records: List[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TraceError(f"line {lineno}: record has no 'type' field")
        records.append(record)
    if not records:
        raise TraceError("trace is empty")
    head = records[0]
    if head.get("type") != "meta":
        raise TraceError("trace does not start with a 'meta' record")
    if head.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"unsupported trace schema {head.get('schema')!r} "
            f"(expected {TRACE_SCHEMA})"
        )
    return records


def dump_trace(records: List[dict]) -> str:
    """Re-serialize parsed records to canonical JSONL."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def read_trace(path: str) -> List[dict]:
    try:
        text = open(path).read()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from exc
    return parse_trace(text)


def _format_value(value: Number) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summarize_trace(records: List[dict]) -> str:
    """Markdown metrics summary of a trace (phases, then counters)."""
    meta = records[0] if records and records[0].get("type") == "meta" else {}
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    totals: Dict[str, Number] = {}
    for record in records:
        if record.get("type") == "counters":
            totals = record.get("counters", {})
    lines = [f"# Vega run metrics — `{meta.get('run_id', '?')}`", ""]

    top_level = [s for s in spans if not s.get("parent")]
    if top_level:
        lines += [
            "## Phases",
            "",
            "| span | wall s | notes |",
            "|---|---:|---|",
        ]
        for record in sorted(top_level, key=lambda s: s.get("start_s", 0.0)):
            attrs = record.get("attrs", {})
            notes = ", ".join(
                f"{k}={v}" for k, v in sorted(attrs.items())
            )
            lines.append(
                f"| {record['name']} | {record.get('dur_s', 0.0):.3f} "
                f"| {notes} |"
            )
        lines.append("")
        nested = [s for s in spans if s.get("parent")]
        if nested:
            lines.append(f"({len(nested)} nested span(s) in the trace)")
            lines.append("")
    elif not spans:
        # A header-only trace (meta line, nothing recorded) renders a
        # clear verdict instead of an empty table.
        lines.append("no spans recorded")
        lines.append("")
    if totals:
        lines += ["## Counters", "", "| counter | total |", "|---|---:|"]
        for name in sorted(totals):
            lines.append(f"| {name} | {_format_value(totals[name])} |")
        lines.append("")
    errors = [e for e in events if e.get("name", "").endswith("error")]
    if errors:
        lines += ["## Recorded errors", ""]
        for record in errors:
            attrs = record.get("attrs", {})
            detail = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"- `{record['name']}`: {detail}")
        lines.append("")
    if events:
        lines.append(f"{len(events)} event(s) recorded.")
    return "\n".join(lines).rstrip() + "\n"

"""Per-layer breakdown of a traced benchmark pass.

The benchmark wraps every public call it makes in a span named
``perfbench.<metric>`` (for example ``perfbench.lifting.lift``) and
every stage in a ``perfbench.stage.<name>`` span.  This module turns
the resulting telemetry trace records into the per-layer metrics:

* self time of each benchmark span: its duration minus the durations
  of the benchmark spans directly inside it (spans the program emits
  itself count towards the enclosing benchmark span);
* counter totals, read from the trace's closing ``counters`` record
  or from the counter deltas a span recorded;
* ratios, each kept with its numerator and base so a zero base reads
  as "no base" instead of a division error.

Nothing here imports the program: it works on plain trace records, so
it is tested on synthetic traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Span-name prefix of the spans the benchmark itself opens.
PREFIX = "perfbench."

#: Stage spans group the calls of one user-facing stage.
STAGE_PREFIX = PREFIX + "stage."

#: Layer of each call span (the span name without :data:`PREFIX`).
CALL_LAYERS: Dict[str, str] = {
    "sta.phase1": "sta/aging",
    "sta.onset_sweep": "sta/aging",
    "surrogate.sweep": "sta/aging",
    "surrogate.fit": "sta/aging",
    "surrogate.score": "sta/aging",
    "surrogate.exact_tail": "sta/aging",
    "surrogate.exact_recheck": "sta/aging",
    "lifting.lift": "formal/lifting",
    "lifting.catalogue": "formal/lifting",
    "integration.build": "integration",
    "campaign.run": "campaign",
    "campaign.tail": "campaign",
    "scheduler.run": "scheduler",
}

#: Layer table order, with the counters listed under each layer.
LAYER_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim.cycles", "sim.compile.misses"),
    "sta/aging": (
        "sta.paths_timed",
        "surrogate.oracle.probes",
        "surrogate.triage.flagged",
        "surrogate.triage.cleared",
    ),
    "formal/lifting": (
        "lifting.pairs",
        "sat.solve_s",
        "sat.conflicts",
        "sat.propagations",
        "sat.decisions",
        "bmc.frames",
        "bmc.queries",
    ),
    "integration": ("integration.suite_runs",),
    "campaign": (
        "campaign.devices",
        "campaign.outcome_memo_hits",
        "campaign.stalls",
        "campaign.packed_planes",
        "campaign.packed_replays",
        "campaign.packed_fallbacks",
    ),
    "scheduler": (
        "scheduler.dispatches",
        "scheduler.results",
        "scheduler.ingest_rejected",
        "scheduler.client_retries",
        "scheduler.checkpoints",
        "scheduler.outcome_memo_hits",
    ),
}


@dataclass
class SpanNode:
    """One benchmark span with its benchmark-side children."""

    id: str
    name: str
    start_s: float
    dur_s: float
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def call(self) -> str:
        """The span name without the benchmark prefix."""
        return self.name[len(PREFIX):]

    @property
    def self_s(self) -> float:
        return self.dur_s - sum(child.dur_s for child in self.children)


@dataclass(frozen=True)
class Ratio:
    """A ratio with its numerator and base (``value`` is 0 on base 0)."""

    numerator: float
    base: float

    @property
    def value(self) -> float:
        return self.numerator / self.base if self.base else 0.0

    def describe(self, num_label: str, base_label: str) -> str:
        if not self.base:
            return f"n/a (base {base_label} = 0)"
        return (
            f"{self.value:.4g} ({_fmt(self.numerator)} {num_label} / "
            f"{_fmt(self.base)} {base_label})"
        )


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def benchmark_spans(records: Sequence[Mapping]) -> List[SpanNode]:
    """Benchmark spans of a trace as a forest, in start order.

    A span is a child of the innermost benchmark span whose id is a
    prefix of its own and whose interval contains its start; program
    spans between the two are skipped over.
    """
    nodes = [
        SpanNode(
            id=str(r["id"]),
            name=str(r["name"]),
            start_s=float(r.get("start_s", 0.0)),
            dur_s=float(r.get("dur_s", 0.0)),
            counters=dict(r.get("counters", {})),
        )
        for r in records
        if r.get("type") == "span" and str(r.get("name", "")).startswith(PREFIX)
    ]
    # Outer spans first on equal start: they close later, so a longer
    # span at the same start time is the parent.
    nodes.sort(key=lambda n: (n.start_s, -n.dur_s))
    roots: List[SpanNode] = []
    stack: List[SpanNode] = []
    for node in nodes:
        while stack and not (
            node.id.startswith(stack[-1].id + "/")
            and node.start_s <= stack[-1].start_s + stack[-1].dur_s
        ):
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def walk(nodes: Sequence[SpanNode]):
    for node in nodes:
        yield node
        yield from walk(node.children)


def self_times(records: Sequence[Mapping]) -> Dict[str, float]:
    """Total self time per benchmark call name (prefix stripped)."""
    totals: Dict[str, float] = {}
    for node in walk(benchmark_spans(records)):
        totals[node.call] = totals.get(node.call, 0.0) + node.self_s
    return totals


def span_counters(records: Sequence[Mapping], call: str) -> Dict[str, float]:
    """Counter deltas summed over every benchmark span named ``call``."""
    totals: Dict[str, float] = {}
    for node in walk(benchmark_spans(records)):
        if node.call == call:
            for name, value in node.counters.items():
                totals[name] = totals.get(name, 0) + value
    return totals


def final_counters(records: Sequence[Mapping]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for record in records:
        if record.get("type") == "counters":
            totals = dict(record.get("counters", {}))
    return totals


def wall_time(records: Sequence[Mapping]) -> float:
    """Wall time covered by the benchmark's top-level spans."""
    roots = benchmark_spans(records)
    if not roots:
        return 0.0
    start = min(node.start_s for node in roots)
    end = max(node.start_s + node.dur_s for node in roots)
    return end - start


@dataclass
class LayerTable:
    """Per-layer self time, counters and ratios of one traced pass."""

    wall_s: float
    layer_self_s: Dict[str, float]
    counters: Dict[str, float]
    ratios: Dict[str, Tuple[Ratio, str, str]]

    @property
    def attributed_s(self) -> float:
        return sum(self.layer_self_s.values())

    @property
    def attributed(self) -> Ratio:
        return Ratio(self.attributed_s, self.wall_s)

    def render(self) -> str:
        lines = [
            "| layer | self s | share of traced wall | counters |",
            "|---|---:|---:|---|",
        ]
        for layer in list(LAYER_COUNTERS) + sorted(
            set(self.layer_self_s) - set(LAYER_COUNTERS)
        ):
            self_s = self.layer_self_s.get(layer, 0.0)
            share = Ratio(self_s, self.wall_s).value
            counters = ", ".join(
                f"{name}={_fmt(self.counters.get(name, 0))}"
                for name in LAYER_COUNTERS.get(layer, ())
            )
            lines.append(
                f"| {layer} | {self_s:.3f} | {100 * share:.1f}% | {counters} |"
            )
        unattributed = self.wall_s - self.attributed_s
        lines.append(
            f"| (stage glue, unattributed) | {unattributed:.3f} | "
            f"{100 * Ratio(unattributed, self.wall_s).value:.1f}% | |"
        )
        lines.append("")
        lines.append(f"traced wall time: {self.wall_s:.3f} s")
        for name, (ratio, num_label, base_label) in sorted(self.ratios.items()):
            lines.append(f"- {name}: {ratio.describe(num_label, base_label)}")
        return "\n".join(lines)


def layer_table(
    records: Sequence[Mapping],
    ratios: Optional[Dict[str, Tuple[Ratio, str, str]]] = None,
) -> LayerTable:
    """Self time per layer; ``sim`` has no call span of its own.

    Gate simulation runs inside the lifting, campaign and scheduler
    calls, so its time is part of theirs; the ``sim`` row carries its
    counters only.
    """
    per_layer: Dict[str, float] = {}
    for call, self_s in self_times(records).items():
        layer = CALL_LAYERS.get(call)
        if layer is not None:
            per_layer[layer] = per_layer.get(layer, 0.0) + self_s
    return LayerTable(
        wall_s=wall_time(records),
        layer_self_s=per_layer,
        counters=final_counters(records),
        ratios=dict(ratios or {}),
    )

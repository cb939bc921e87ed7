"""Tests of the benchmark's own code, on synthetic traces.

Run from the checkout root: ``python -m pytest perfbench -q``.
"""

import json
import os
import re

import pytest

import layers
import workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The benchmark contract's name and unit rules.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def span(span_id, start, dur, counters=None):
    return {
        "type": "span",
        "id": span_id,
        "name": span_id.rsplit("/", 1)[-1],
        "parent": span_id.rsplit("/", 1)[0] if "/" in span_id else None,
        "start_s": start,
        "dur_s": dur,
        "counters": counters or {},
        "attrs": {},
    }


STAGE = "perfbench.stage.build"
LIFT = STAGE + "/perfbench.lifting.lift"
PHASE1 = STAGE + "/perfbench.sta.phase1"


def synthetic_trace():
    """A stage with two calls; the program opens spans of its own."""
    return [
        {"type": "meta", "schema": 1, "run_id": "synthetic"},
        span(PHASE1 + "/sta.fresh", 0.5, 0.5),
        span(PHASE1, 0.0, 2.0, {"sta.paths_timed": 7}),
        span(LIFT + "/lifting.pair", 2.5, 4.0),
        span(LIFT, 2.0, 5.0, {"sat.solve_s": 1.5, "sim.cycles": 10}),
        span(STAGE, 0.0, 8.0),
        {"type": "counters", "counters": {"sim.cycles": 10, "sta.paths_timed": 7}},
    ]


def test_self_time_subtracts_benchmark_children_only():
    times = layers.self_times(synthetic_trace())
    # The stage loses both calls; a call keeps its program spans.
    assert times["stage.build"] == pytest.approx(8.0 - 2.0 - 5.0)
    assert times["sta.phase1"] == pytest.approx(2.0)
    assert times["lifting.lift"] == pytest.approx(5.0)


def test_call_under_a_program_span_nests_in_the_benchmark_span():
    records = [
        span("perfbench.stage.triage", 0.0, 10.0),
        span("perfbench.stage.triage/surrogate.triage", 1.0, 6.0),
        span(
            "perfbench.stage.triage/surrogate.triage/perfbench.surrogate.score",
            2.0,
            3.0,
        ),
    ]
    roots = layers.benchmark_spans(records)
    assert [r.call for r in roots] == ["stage.triage"]
    assert [c.call for c in roots[0].children] == ["surrogate.score"]
    assert roots[0].self_s == pytest.approx(7.0)


def test_repeated_calls_attach_to_their_own_stage_instance():
    records = [
        span("perfbench.stage.serve", 0.0, 4.0),
        span("perfbench.stage.serve/perfbench.scheduler.run", 0.0, 3.0),
        span("perfbench.stage.serve", 5.0, 4.0),
        span("perfbench.stage.serve/perfbench.scheduler.run", 5.5, 1.0),
    ]
    roots = layers.benchmark_spans(records)
    assert [r.self_s for r in roots] == pytest.approx([1.0, 3.0])
    assert layers.self_times(records)["scheduler.run"] == pytest.approx(4.0)


def test_sibling_with_same_prefix_is_not_a_child():
    records = [
        span("perfbench.campaign.run", 0.0, 1.0),
        span("perfbench.campaign.run", 2.0, 1.0),
    ]
    roots = layers.benchmark_spans(records)
    assert len(roots) == 2
    assert all(not r.children for r in roots)


def test_span_counters_sum_over_named_calls():
    deltas = layers.span_counters(synthetic_trace(), "lifting.lift")
    assert deltas == {"sat.solve_s": 1.5, "sim.cycles": 10}


def test_ratio_with_zero_base_reads_zero_and_says_so():
    ratio = layers.Ratio(5, 0)
    assert ratio.value == 0.0
    assert ratio.describe("fallbacks", "planes") == "n/a (base planes = 0)"


def test_ratio_describes_numerator_and_base():
    ratio = layers.Ratio(3, 4)
    assert ratio.value == 0.75
    assert ratio.describe("hits", "devices") == "0.75 (3 hits / 4 devices)"


def test_layer_table_attributes_call_time_to_layers():
    table = layers.layer_table(synthetic_trace())
    assert table.wall_s == pytest.approx(8.0)
    assert table.layer_self_s == {
        "sta/aging": pytest.approx(2.0),
        "formal/lifting": pytest.approx(5.0),
    }
    assert table.attributed.value == pytest.approx(7.0 / 8.0)
    text = table.render()
    assert "| formal/lifting | 5.000 | 62.5% |" in text
    assert "(stage glue, unattributed) | 1.000 | 12.5%" in text


def test_empty_trace_has_no_wall_time():
    table = layers.layer_table([{"type": "meta", "schema": 1}])
    assert table.wall_s == 0.0
    assert table.attributed.value == 0.0


def test_every_call_span_has_a_layer():
    # Each call the workload times must land in some layer row.
    source = open(os.path.join(ROOT, "perfbench", "workload.py")).read()
    calls = set()
    for chunk in source.split('clock.call("')[1:]:
        calls.add(chunk.split('"', 1)[0])
    assert calls and calls <= set(layers.CALL_LAYERS)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def test_metric_names_and_units_are_valid_and_unique(declared):
    names = [
        m["name"] for section in ("end_to_end", "per_layer") for m in declared[section]
    ]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for section in ("end_to_end", "per_layer"):
        for metric in declared[section]:
            assert UNIT_RE.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")


def test_name_rules_reject_bad_names():
    assert not NAME_RE.match("_leading")
    assert not NAME_RE.match("has space")
    assert not NAME_RE.match("x" * 65)
    assert NAME_RE.match("sim.cycles_per_s")
    assert not UNIT_RE.match("x" * 17)
    assert UNIT_RE.match("devices/s")


def test_contract_shape(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["workloads"] and {w["name"] for w in declared["workloads"]} == set(
        workload.WORKLOADS
    )
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_metrics_cover_every_declared_per_layer_metric(declared):
    result = workload.PassResult(
        wall_s=8.0,
        metrics={},
        digests={},
        facts={
            "lifting.s_pairs": 1,
            "lifting.pairs_attempted": 2,
            "cache.bytes_written": 100,
            "cache.hits": 0,
        },
    )
    metric, table = workload.layer_metrics(synthetic_trace(), result, 7.5)
    assert set(metric) == {m["name"] for m in declared["per_layer"]}
    assert metric["lifting.non_solver_s"] == pytest.approx(5.0 - 1.5)
    assert metric["lifting.success_ratio"] == 0.5
    assert metric["campaign.fallback_ratio"] == 0.0  # base 0: no planes
    assert metric["trace.overhead_pct"] == pytest.approx(100 * 0.5 / 7.5)
    assert metric["trace.attributed_pct"] == pytest.approx(87.5)


def test_derived_seeds_are_stable_and_distinct():
    assert workload.derive_seed("campaign", 1) == workload.derive_seed("campaign", 1)
    assert workload.derive_seed("campaign", 1) != workload.derive_seed("policy", 1)
    assert workload.derive_seed("campaign", 1) != workload.derive_seed("campaign", 2)

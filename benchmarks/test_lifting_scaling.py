"""Scaling — incremental + parallel Error Lifting vs the seed engine.

The seed lifter rebuilt a fresh SAT solver for every unroll depth of
every cover query: proving a pair unrealizable at depth D re-encoded
1 + 2 + ... + D frames and re-derived every conflict from scratch.  The
incremental engine keeps one solver per query, adds one frame of CNF
per depth, and asserts the per-depth cover objective through assumption
literals, so learned clauses and the VSIDS ordering survive across
depths.  Endpoint pairs are additionally sharded across ``fork``
workers (one per CPU) with deterministic result ordering.

The seed engine is the ``fresh_bmc`` oracle of ``tests/oracles.py``.
This benchmark runs the ALU workflow's lifting phase under all three
engines on a hard configuration (mitigation variants, deep bound),
checks the reports are identical, and records the pair/conflict table.
Acceptance: parallel + incremental is at least 2x faster than the
seed-style serial engine.

A second block gates the FPU's search: one serial incremental lift at
the workflow's own settings, with its solver and unrolling work
counters.  They change only if the CNF or the search does.
"""

import time
from contextlib import nullcontext

from repro.core import telemetry
from repro.core.config import ErrorLiftingConfig
from repro.lifting.lifter import ErrorLifter

from oracles import fresh_bmc

#: Deep bound + mitigation variants: the regime where rebuild-per-depth
#: hurts most (UR proofs re-encode a quadratic number of frames).
BMC_DEPTH = 10
REPEATS = 3


def _lift(unit, incremental, workers):
    config = ErrorLiftingConfig(
        enable_mitigation=True,
        bmc_depth=BMC_DEPTH,
        workers=workers,
    )
    lifter = ErrorLifter(unit.netlist, config, unit.mapper)
    with nullcontext() if incremental else fresh_bmc():
        return lifter.lift(unit.sta_result.report)


def _timed(unit, incremental, workers):
    """Best-of-N wall time plus the report of the last run."""
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = _lift(unit, incremental, workers)
        best = min(best, time.perf_counter() - start)
    return best, report


def _fingerprint(report):
    """Everything a run produces, for bit-identical comparison."""
    return [
        (
            pair.start,
            pair.end,
            pair.outcome.value,
            [
                (
                    v.model.label,
                    v.status.value,
                    v.test_case.name if v.test_case else None,
                    len(v.test_case.instructions) if v.test_case else 0,
                )
                for v in pair.variants
            ],
        )
        for pair in report.pairs
    ]


def test_lifting_engine_scaling(ctx, benchmark, recorder):
    unit = ctx.alu
    _lift(unit, True, 1)  # warm the pipeline + compile/levelize caches

    serial_time, serial_report = _timed(unit, incremental=False, workers=1)
    incr_time, incr_report = _timed(unit, incremental=True, workers=1)
    par_time, par_report = _timed(unit, incremental=True, workers=0)

    # All three engines must produce bit-identical reports.
    baseline = _fingerprint(serial_report)
    assert _fingerprint(incr_report) == baseline
    assert _fingerprint(par_report) == baseline

    def conflicts(report):
        return sum(v.conflicts for p in report.pairs for v in p.variants)

    # The table holds only deterministic columns, so a full-scale run
    # reproduces it byte for byte; wall times and the speedup are
    # timing samples in BENCH_lifting_scaling.json.
    rows = [
        f"ALU workflow: mitigation on, depth {BMC_DEPTH}",
        "engine               | endpoint pairs | conflicts",
    ]
    for label, wall, report in (
        ("seed serial (fresh)", serial_time, serial_report),
        ("incremental", incr_time, incr_report),
        ("parallel+incremental", par_time, par_report),
    ):
        rows.append(
            f"{label:20s} | {len(report.pairs):14d} | "
            f"{conflicts(report):9d}"
        )
        engine = label.replace(" ", "_").replace("(", "").replace(")", "")
        recorder.sample(
            "lifting_scaling", "wall_time", wall, "seconds",
            engine=engine, depth=BMC_DEPTH, repeats=REPEATS, timing=True,
        )
        recorder.sample(
            "lifting_scaling", "solver_conflicts", conflicts(report),
            "conflicts", engine=engine, depth=BMC_DEPTH,
        )
    recorder.sample(
        "lifting_scaling", "speedup", serial_time / par_time, "ratio",
        engine="parallel+incremental", depth=BMC_DEPTH,
        timing=True, bigger_is_better=True,
    )
    recorder.sample(
        "lifting_scaling", "endpoint_pairs", len(serial_report.pairs),
        "pairs", depth=BMC_DEPTH, bigger_is_better=True,
    )
    rows.extend(["", *_fpu_rows(ctx, recorder)])
    recorder.table("lifting_scaling", "\n".join(rows))

    # Acceptance: the new engine at least halves lifting wall time.
    assert serial_time / par_time >= 2.0, (
        f"parallel+incremental only {serial_time / par_time:.2f}x faster"
    )

    result = benchmark(_lift, unit, True, 1)
    assert result.pairs


#: Deterministic FPU columns: (header, counter, sample metric, unit).
FPU_COLUMNS = (
    ("conflicts", "sat.conflicts", "fpu_conflicts", "conflicts"),
    ("decisions", "sat.decisions", "fpu_decisions", "decisions"),
    ("propagations", "sat.propagations", "fpu_propagations", "propagations"),
    ("frames", "bmc.frames", "fpu_frames", "frames"),
    ("bmc.clauses", "bmc.clauses", "fpu_bmc_clauses", "clauses"),
)


def _fpu_rows(ctx, recorder):
    """One serial incremental FPU lift; its table rows and samples."""
    unit = ctx.fpu
    lifting = ctx.config.lifting
    config = ErrorLiftingConfig(
        bmc_depth=lifting.bmc_depth,
        bmc_conflict_budget=lifting.bmc_conflict_budget,
        workers=1,
    )
    lifter = ErrorLifter(unit.netlist, config, unit.mapper)
    report = unit.sta_result.report
    tele = telemetry.Telemetry(run_id="lifting-scaling-fpu")
    with telemetry.use(tele):
        start = time.perf_counter()
        pairs = len(lifter.lift(report).pairs)
        wall = time.perf_counter() - start
    recorder.sample(
        "lifting_scaling", "fpu_wall_time", wall, "seconds",
        depth=config.bmc_depth, timing=True,
    )
    recorder.sample(
        "lifting_scaling", "fpu_endpoint_pairs", pairs, "pairs",
        depth=config.bmc_depth, bigger_is_better=True,
    )
    values = []
    for _, counter, metric, unit_name in FPU_COLUMNS:
        value = int(tele.counters.get(counter, 0))
        values.append(value)
        recorder.sample(
            "lifting_scaling", metric, value, unit_name,
            depth=config.bmc_depth,
        )
    header = " | ".join(
        ["engine     ", "endpoint pairs", *(c[0] for c in FPU_COLUMNS)]
    )
    row = " | ".join(
        [f"{'incremental':11s}", f"{pairs:14d}"]
        + [f"{v:{len(c[0])}d}" for v, c in zip(values, FPU_COLUMNS)]
    )
    return [
        f"FPU workflow: mitigation off, depth {config.bmc_depth}, serial",
        header,
        row,
    ]

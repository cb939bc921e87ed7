"""Scaling — parallel, vectorized Aging Analysis vs the seed path.

The seed profiled workloads one operand per simulated cycle group
(scalar values, one Python dict walk per gate per cycle) and ran STA by
walking per-net dicts in levelized order.  Phase 1 now packs operands
into bit-parallel lanes sharded across ``fork`` workers, propagates
arrival times over numpy level vectors, and memoizes both artifacts in
a content-addressed cache.

This benchmark runs the full Aging Analysis (SP profiling + aged STA)
on the ALU under the seed-style path (the scalar profiling and
dict-walk STA oracles of ``tests/oracles.py``) and the new engines,
checks the SP profiles and violating-path sets are identical, and
records the wall-time table.  Acceptance: packed-parallel profiling +
vectorized STA is at least 2x faster than the seed-serial path (the
observed gap is orders of magnitude; 2x is the floor the cache can
never hide because the first run always simulates).

``VEGA_SMOKE=1`` shrinks the operand budget and relaxes the threshold
so CI can exercise every path in seconds.
"""

import os
import tempfile
import time

from repro.core.artifacts import ArtifactCache  # noqa: F401  (re-export check)
from repro.core.config import VegaConfig
from repro.core.workflow import VegaWorkflow
from repro.sim.gatesim import GateSimulator
from repro.sim.parallel_profile import profile_workload_streams
from repro.sta.aging_sta import AgingAwareSta

from oracles import profile_operand_stream_reference, reference_sta

SMOKE = os.environ.get("VEGA_SMOKE") == "1"
#: The scalar baseline simulates ~3 cycles per operand at ~1300 cells;
#: its wall time caps how long this benchmark may run.
OPS = 800 if SMOKE else 20000
MIN_SPEEDUP = 1.5 if SMOKE else 2.0
REPEATS = 3


def _analyze(ctx, profile):
    unit = ctx.alu
    sta = AgingAwareSta(
        unit.netlist,
        ctx.timing_lib,
        config=ctx.config.aging,
        gated_instances=unit.gated_instances(),
    )
    return sta.analyze(profile)


def _seed_serial(ctx, stream):
    """Scalar profiling + dict-walking STA: the pre-optimization path."""
    unit = ctx.alu
    profile = profile_operand_stream_reference(unit.netlist, stream)
    sta = AgingAwareSta(
        unit.netlist,
        ctx.timing_lib,
        config=ctx.config.aging,
        gated_instances=unit.gated_instances(),
    )
    with reference_sta():
        return profile, sta.analyze(profile)


def _packed(ctx, stream, workers=1):
    profile = profile_workload_streams(
        ctx.alu.netlist, {"minver": stream}, workers=workers
    )
    return profile, _analyze(ctx, profile)


def _parallel(ctx, stream):
    return _packed(ctx, stream, workers=0)


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _violation_set(result):
    return sorted(
        (v.kind, v.start, v.end, v.cells, v.arrival)
        for v in result.report.violations
    )


def test_aging_analysis_scaling(ctx, benchmark, recorder):
    stream = ctx.stream("alu")[:OPS]
    netlist = ctx.alu.netlist
    _packed(ctx, stream[:64])  # warm compile/levelize/timing-lib caches

    serial_time, (serial_profile, serial_result) = _timed(
        lambda: _seed_serial(ctx, stream), repeats=1
    )
    packed_time, (packed_profile, packed_result) = _timed(
        lambda: _packed(ctx, stream)
    )
    par_time, (par_profile, par_result) = _timed(
        lambda: _parallel(ctx, stream)
    )

    # The cached path: one priming run populates the artifact store, the
    # timed run reuses the SP profile and aged delay model.
    with tempfile.TemporaryDirectory() as cache_dir:
        workflow = VegaWorkflow(VegaConfig(cache_dir=cache_dir))
        workflow.run_aging_analysis(netlist, stream, workload_id="alu:minver")
        cached_time, (cached_profile, cached_result) = _timed(
            lambda: workflow.run_aging_analysis(
                netlist, stream, workload_id="alu:minver"
            )
        )
        assert workflow.last_cache_stats == (2, 0)

    # Every engine must agree bit-for-bit with the seed path.
    assert packed_profile.sp == serial_profile.sp
    assert par_profile.sp == serial_profile.sp
    assert cached_profile.sp == serial_profile.sp
    assert packed_profile.samples == serial_profile.samples
    baseline = _violation_set(serial_result)
    assert _violation_set(packed_result) == baseline
    assert _violation_set(par_result) == baseline
    assert _violation_set(cached_result) == baseline

    rows = [
        f"ALU aging analysis: {len(stream)}-op minver stream, "
        f"{netlist.stats()['_cells']} cells, {os.cpu_count()} CPU(s), "
        f"fast paths best of {REPEATS}"
        + (" [smoke]" if SMOKE else ""),
        "engine                            | wall (s) | speedup",
    ]
    for engine, label, wall in (
        ("seed_serial", "seed serial (scalar + dict STA)", serial_time),
        ("packed_vectorized", "packed + vectorized STA", packed_time),
        ("parallel_vectorized", "parallel + vectorized STA", par_time),
        ("cache_hit", "artifact cache hit (2nd run)", cached_time),
    ):
        rows.append(
            f"{label:33s} | {wall:8.3f} | {serial_time / wall:7.2f}x"
        )
        recorder.sample(
            "profiling_scaling", "wall_time", wall, "seconds",
            engine=engine, ops=OPS, timing=True,
        )
    recorder.sample(
        "profiling_scaling", "speedup", serial_time / par_time, "ratio",
        engine="parallel_vectorized", ops=OPS,
        timing=True, bigger_is_better=True,
    )
    recorder.sample(
        "profiling_scaling", "profiled_samples", serial_profile.samples,
        "samples", ops=OPS, bigger_is_better=True,
    )
    recorder.sample(
        "profiling_scaling", "aged_violations",
        len(serial_result.report.violations), "paths", ops=OPS,
    )
    recorder.table("profiling_scaling", "\n".join(rows))

    assert serial_time / par_time >= MIN_SPEEDUP, (
        f"parallel+vectorized only {serial_time / par_time:.2f}x faster"
    )

    result = benchmark(lambda: _packed(ctx, stream)[0])
    assert result.samples == 3 * len(stream)


def test_run_loop_hoists_compiled_cycle(ctx, monkeypatch, recorder):
    """`GateSimulator.run` never re-enters the compile machinery.

    A second simulator over the same netlist hits the per-structure
    compile cache, and `run` must not consult it again per cycle.  The
    zero-recompile count is the assertion.  `run` and a per-`step`
    loop do the same work per cycle (the layout is cached at
    construction), so their wall times are only recorded, as timing
    samples that warn and never fail.
    """
    netlist = ctx.alu.netlist
    stream = ctx.stream("alu")[:512]
    frames = [
        {name: op.get(name, 0) for name in (p.name for p in netlist.input_ports())}
        for op in stream
    ]
    sim = GateSimulator(netlist)  # warms the compile cache

    compiles = []
    original = GateSimulator._compile_uncached
    monkeypatch.setattr(
        GateSimulator,
        "_compile_uncached",
        lambda self: compiles.append(1) or original(self),
    )
    hot = GateSimulator(netlist)
    hot.run(frames)
    assert compiles == []  # zero recompiles: cache hit + hoisted loop

    def run_loop():
        sim.reset()
        sim.run(frames)

    def step_loop():
        sim.reset()
        for frame in frames:
            sim.step(frame)

    for loop, fn in (("run", run_loop), ("step", step_loop)):
        wall, _ = _timed(fn, repeats=5)
        recorder.sample(
            "profiling_scaling", "sim_loop_time", wall, "seconds",
            loop=loop, frames=len(frames), timing=True,
        )
    # The scaling test above may already have published the document.
    recorder.flush("profiling_scaling")

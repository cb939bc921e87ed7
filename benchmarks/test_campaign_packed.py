"""Fault-parallel packed campaign — bit-plane packing vs serial paths.

The packed prefilter multiplexes every injected failure model of a
device group into one bit-plane of a single compiled gate simulation:
one shadow-mux netlist carries all models, one packed pass replays the
golden stimulus for the whole group, and only the planes that diverge
from the golden trace pay a per-device resolution (ISA replay or
lockstep tail co-simulation).  The serial engine pays one full
co-simulation per (device, suite) instead.

This benchmark runs one 64-device fleet through three paths — the
naive per-device loop, the campaign engine with packing disabled (the
``unpacked_campaign`` oracle of ``tests/oracles.py``), and the engine
with packing on — asserts the reports are byte-identical,
and records devices/sec.  Acceptance (non-smoke): packed is at least
5x the naive loop and at least 2x the unpacked serial engine.

``VEGA_SMOKE=1`` shrinks the fleet and relaxes the floors so CI can
exercise every path in seconds.
"""

import os
import time
from contextlib import nullcontext

from repro.baselines.random_tests import random_suite
from repro.baselines.silifuzz_lite import SiliFuzzLite
from repro.campaign import CampaignEngine, sample_fleet
from repro.core.config import CampaignConfig
from repro.core.rng import stream_seed
from repro.cpu.cosim import GateAluBackend
from repro.integration.library_gen import AgingLibrary
from repro.lifting.instrument import make_failing_netlist

from oracles import unpacked_campaign

SMOKE = os.environ.get("VEGA_SMOKE") == "1"
DEVICES = 8 if SMOKE else 64
REPEATS = 1 if SMOKE else 3
#: Floors on the packed path (non-smoke): vs naive, vs unpacked serial.
MIN_VS_NAIVE = 1.5 if SMOKE else 5.0
MIN_VS_SERIAL = 1.0 if SMOKE else 2.0


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _config():
    return CampaignConfig(
        devices=DEVICES,
        seed=2024,
        shard_size=8,
        workers=1,
        silifuzz_snapshots=3,
        base_onset_years=6.0,
    )


def _naive_fleet(ctx, fleet, config):
    """Seed-style loop: every per-suite fixed cost paid per device."""
    unit = ctx.alu
    verdicts = []
    size = max(1, len(unit.suite(False).test_cases))
    for spec in fleet:
        vega = AgingLibrary(
            name="vega_naive",
            test_cases=list(unit.suite(False).test_cases),
        )
        rnd = random_suite(
            "alu", size,
            seed=stream_seed("campaign.random_suite", config.seed),
        )
        fuzz = SiliFuzzLite(
            "alu", seed=stream_seed("campaign.silifuzz", config.seed)
        )
        snapshots = fuzz.corpus(config.silifuzz_snapshots)
        if spec.faulty:
            failing = make_failing_netlist(unit.netlist, spec.model).netlist

            def backends():
                return {
                    "alu": GateAluBackend(failing, seed=spec.backend_seed)
                }

        else:

            def backends():
                return {}

        verdicts.append(
            (
                spec.device_id,
                vega.run_suite(**backends()).detected,
                rnd.run_suite(**backends()).detected,
                bool(fuzz.detects(snapshots, **backends())["detected"]),
            )
        )
    return verdicts


def _engine_fleet(ctx, packed):
    engine = CampaignEngine(
        ctx.alu.netlist,
        "alu",
        ctx.alu.suite(False),
        ctx.alu.failure_models(),
        _config(),
    )
    with nullcontext() if packed else unpacked_campaign():
        return engine.run()


def _engine_verdicts(report):
    return [
        (
            row["device"],
            *(outcome["detected"] for outcome in row["outcomes"]),
        )
        for row in report.device_rows
    ]


def test_campaign_packed(ctx, benchmark, recorder):
    config = _config()
    models = ctx.alu.failure_models()
    fleet = sample_fleet(config, models, config.base_onset_years)
    _engine_fleet(ctx, True)  # warm compile / assembly / netlist caches

    naive_time, naive_verdicts = _timed(
        lambda: _naive_fleet(ctx, fleet, config), repeats=1
    )
    serial_time, serial_report = _timed(lambda: _engine_fleet(ctx, False))
    packed_time, packed_report = _timed(lambda: _engine_fleet(ctx, True))

    # The packed path is an optimization, never a semantic change: the
    # report must be byte-identical and the per-device verdicts must
    # match the naive loop's.
    assert packed_report.to_json() == serial_report.to_json()
    assert _engine_verdicts(packed_report) == naive_verdicts

    rows = [
        f"ALU packed campaign: {DEVICES}-device fleet, "
        f"{len(models)} failure models, 3 suites"
        + (" [smoke]" if SMOKE else ""),
        "path                              | wall (s) | devices/s | speedup",
    ]
    for path_name, label, wall in (
        ("naive_loop", "naive per-device loop", naive_time),
        ("engine_serial", "campaign engine (unpacked)", serial_time),
        ("engine_packed", "campaign engine (packed)", packed_time),
    ):
        rows.append(
            f"{label:33s} | {wall:8.3f} | {DEVICES / wall:9.1f} "
            f"| {naive_time / wall:6.2f}x"
        )
        recorder.sample(
            "campaign_packed", "wall_time", wall, "seconds",
            path=path_name, devices=DEVICES, seed=config.seed, timing=True,
        )
        recorder.sample(
            "campaign_packed", "devices_per_second", DEVICES / wall,
            "devices/s", path=path_name, devices=DEVICES, seed=config.seed,
            timing=True, bigger_is_better=True,
        )
    recorder.sample(
        "campaign_packed", "speedup_vs_naive", naive_time / packed_time,
        "ratio", path="engine_packed", devices=DEVICES, seed=config.seed,
        timing=True, bigger_is_better=True,
    )
    recorder.sample(
        "campaign_packed", "speedup_vs_serial", serial_time / packed_time,
        "ratio", path="engine_packed", devices=DEVICES, seed=config.seed,
        timing=True, bigger_is_better=True,
    )
    recorder.sample(
        "campaign_packed", "devices_simulated", packed_report.devices,
        "devices", seed=config.seed, bigger_is_better=True,
    )
    recorder.sample(
        "campaign_packed", "failure_models", len(models), "models",
        seed=config.seed, bigger_is_better=True,
    )
    recorder.table("campaign_packed", "\n".join(rows))

    assert naive_time / packed_time >= MIN_VS_NAIVE, (
        f"packed campaign only {naive_time / packed_time:.2f}x faster "
        f"than the naive loop"
    )
    assert serial_time / packed_time >= MIN_VS_SERIAL, (
        f"packed campaign only {serial_time / packed_time:.2f}x faster "
        f"than the unpacked engine"
    )

    report = benchmark(lambda: _engine_fleet(ctx, True))
    assert report.devices == DEVICES

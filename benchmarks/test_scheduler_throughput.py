"""Scheduler service throughput — one fixed ALU fleet, checkpoints on.

One scheduled run serves a fixed ALU fleet (512 devices; 64 under
``VEGA_SMOKE=1``) with the default scheduler settings: Thompson policy,
a belief checkpoint every 25 ingested results, published to an
:class:`~repro.core.artifacts.ArtifactCache` in a temp directory.  So
the timing covers the whole serve path — planning, gate-level
execution, the belief fold, and the checkpoint encode and store.

The result table holds only deterministic values (devices, events,
ticks, checkpoints, and the sha256 prefixes of the event log and the
final belief), so a full-size run reproduces it byte for byte.  The
timings go to ``BENCH_scheduler_throughput.json`` only, as
``timing=True`` samples:

* **events/s** — ingested results per second of the best run;
* **ms per checkpoint** — wall time inside the service's checkpoint
  step of that run, per checkpoint written.
"""

import hashlib
import os
import time

from repro.core.artifacts import ArtifactCache
from repro.core.config import CampaignConfig, SchedulerConfig
from repro.scheduler import ScheduleSession
from repro.scheduler.service import DetectionService

SMOKE = os.environ.get("VEGA_SMOKE") == "1"
DEVICES = 64 if SMOKE else 512
REPEATS = 1 if SMOKE else 3
#: Floor on ingest throughput (events/sec).
MIN_EVENTS_PER_S = 5.0 if SMOKE else 20.0


def _session(ctx, cache_dir):
    config = CampaignConfig(
        devices=DEVICES,
        seed=2024,
        silifuzz_snapshots=3,
        base_onset_years=6.0,
    )
    return ScheduleSession(
        ctx.alu.netlist,
        "alu",
        ctx.alu.suite(False),
        ctx.alu.failure_models(),
        config=config,
        scheduler=SchedulerConfig(),
        cache=ArtifactCache(cache_dir),
    )


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_scheduler_throughput(ctx, recorder, tmp_path, monkeypatch):
    checkpoint_s = [0.0]
    original = DetectionService._maybe_checkpoint

    def timed_checkpoint(self, force=False):
        start = time.perf_counter()
        try:
            return original(self, force)
        finally:
            checkpoint_s[0] += time.perf_counter() - start

    monkeypatch.setattr(DetectionService, "_maybe_checkpoint", timed_checkpoint)

    # Warm the shared caches (suite assembly, instrumented netlists,
    # arm cost measurement) so the timing reflects the service, not
    # one-time pipeline setup.  Every run gets a fresh artifact cache.
    _session(ctx, tmp_path / "warm").run()

    best = None
    for repeat in range(REPEATS):
        checkpoint_s[0] = 0.0
        session = _session(ctx, tmp_path / f"run{repeat}")
        start = time.perf_counter()
        outcome = session.run()
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, checkpoint_s[0], outcome)
        # Every repeat walks the same trajectory.
        assert outcome.log.to_jsonl() == best[2].log.to_jsonl()
    wall, spent_in_checkpoints, outcome = best

    report = outcome.report
    checkpoints = outcome.log.counters["scheduler.checkpoint"]
    log_sha = _sha(outcome.log.to_jsonl())
    belief_sha = outcome.belief.digest()[:16]
    events_per_s = report.events / wall
    ms_per_checkpoint = 1000.0 * spent_in_checkpoints / checkpoints

    meta = dict(devices=DEVICES, policy="thompson", seed=2024)
    recorder.sample(
        "scheduler_throughput", "ingest_rate", events_per_s, "events/s",
        timing=True, bigger_is_better=True, **meta,
    )
    recorder.sample(
        "scheduler_throughput", "checkpoint_latency", ms_per_checkpoint,
        "ms/checkpoint", timing=True, **meta,
    )
    recorder.sample(
        "scheduler_throughput", "events_ingested", report.events,
        "events", bigger_is_better=True, **meta,
    )
    recorder.sample(
        "scheduler_throughput", "planning_ticks", report.ticks, "ticks",
        **meta,
    )
    recorder.sample(
        "scheduler_throughput", "checkpoints", checkpoints, "checkpoints",
        **meta,
    )

    recorder.table(
        "scheduler_throughput",
        "\n".join([
            "Scheduler service throughput (ALU fleet, thompson policy, "
            "default checkpoint interval)",
            "devices | events | ticks | checkpoints | event log sha256 "
            "| belief sha256",
            f"{report.devices:7d} | {report.events:6d} | {report.ticks:5d} "
            f"| {checkpoints:11d} | {log_sha} | {belief_sha}",
        ]),
    )

    assert report.devices == DEVICES
    assert report.detected >= 1
    assert checkpoints >= 2
    assert events_per_s >= MIN_EVENTS_PER_S, (
        f"ingest throughput {events_per_s:.1f} events/s below floor "
        f"{MIN_EVENTS_PER_S}"
    )

"""Scheduler service throughput — ingest rate and dispatch latency.

The service's costs are batching overhead (planning ticks) and
result ingestion (belief updates + event-log records).  This benchmark
drives complete scheduled runs at 1, 4, and 16 simulated device
clients and records:

* **ingest throughput** — result events folded into the belief per
  second of wall time;
* **batch-dispatch latency** — mean wall time per planning tick (one
  batch planned + its results ingested).

All runs use the Thompson policy and the full arm catalogue (per-case
vega arms + baseline suites).  ``VEGA_SMOKE=1`` shrinks repeats and
relaxes the floor so CI exercises the path in seconds.
"""

import os
import time

from repro.core.config import CampaignConfig, SchedulerConfig
from repro.scheduler import ScheduleSession

SMOKE = os.environ.get("VEGA_SMOKE") == "1"
CLIENTS = (1, 4, 16)
REPEATS = 1 if SMOKE else 3
#: Floor on ingest throughput at every client count (events/sec).
MIN_EVENTS_PER_S = 5.0 if SMOKE else 20.0


def _session(ctx, clients):
    config = CampaignConfig(
        devices=clients,
        seed=2024,
        silifuzz_snapshots=3,
        base_onset_years=6.0,
    )
    sched = SchedulerConfig(
        policy="thompson",
        policy_seed=7,
        batch_size=16,
        checkpoint_every=1_000_000,  # no checkpoint I/O in the timing
        cycle_budget=25_000,
    )
    return ScheduleSession(
        ctx.alu.netlist,
        "alu",
        ctx.alu.suite(False),
        ctx.alu.failure_models(),
        config=config,
        scheduler=sched,
    )


def test_scheduler_throughput(ctx, benchmark, recorder):
    # Warm shared caches (suite assembly, instrumented netlists, arm
    # cost measurement) so the table reflects steady-state service
    # cost, not one-time pipeline setup.
    _session(ctx, CLIENTS[0]).run()

    rows = [
        "Scheduler service throughput (thompson policy, full arm "
        "catalogue)" + (" [smoke]" if SMOKE else ""),
        "clients | events | ticks | wall (s) | events/s | ms/tick",
    ]
    measured = {}
    for clients in CLIENTS:
        session = _session(ctx, clients)
        best = float("inf")
        outcome = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            outcome = session.run()
            best = min(best, time.perf_counter() - start)
        report = outcome.report
        events_per_s = report.events / best if best > 0 else 0.0
        ms_per_tick = 1000.0 * best / max(1, report.ticks)
        measured[clients] = events_per_s
        rows.append(
            f"{clients:7d} | {report.events:6d} | {report.ticks:5d} "
            f"| {best:8.3f} | {events_per_s:8.1f} | {ms_per_tick:7.2f}"
        )
        recorder.sample(
            "scheduler_throughput", "ingest_rate", events_per_s,
            "events/s", clients=clients, policy="thompson", seed=2024,
            timing=True, bigger_is_better=True,
        )
        recorder.sample(
            "scheduler_throughput", "tick_latency", ms_per_tick,
            "ms/tick", clients=clients, policy="thompson", seed=2024,
            timing=True,
        )
        recorder.sample(
            "scheduler_throughput", "events_ingested", report.events,
            "events", clients=clients, policy="thompson", seed=2024,
            bigger_is_better=True,
        )
        recorder.sample(
            "scheduler_throughput", "planning_ticks", report.ticks,
            "ticks", clients=clients, policy="thompson", seed=2024,
        )
        # Every run is complete and deterministic regardless of the
        # client count driving it.
        assert report.devices == clients
        assert report.escapes == 0
    recorder.table("scheduler_throughput", "\n".join(rows))

    for clients, events_per_s in measured.items():
        assert events_per_s >= MIN_EVENTS_PER_S, (
            f"{clients} client(s): ingest throughput "
            f"{events_per_s:.1f} events/s below floor "
            f"{MIN_EVENTS_PER_S}"
        )

    report = benchmark(lambda: _session(ctx, CLIENTS[-1]).run().report)
    assert report.devices == CLIENTS[-1]

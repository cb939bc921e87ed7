"""Tests for the shared fork fan-out (``repro.core.pool``).

``fork_map`` is the one process pool behind SP profiling, Error
Lifting and campaign shards.  These tests pin its
contract (order, worker resolution, in-process fallback, counter
merge, task errors) and that every caller's work counters are the same
at one and at three workers.
"""

import os
import re
import time

import pytest

import repro.core.pool as pool_mod
import repro.sim.parallel_profile as parallel_profile
from repro.campaign import CampaignEngine
from repro.core import telemetry
from repro.core.config import CampaignConfig, ErrorLiftingConfig
from repro.core.pool import fork_available, fork_map, resolve_workers
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.integration.library_gen import AgingLibrary
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.lifting.parallel import lift_pairs
from repro.sim.parallel_profile import profile_workload_streams
from repro.sta.timing import TimingViolation

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")

ADDER_VIOLATIONS = [
    TimingViolation(
        kind="setup", start="d4", end="d10", cells=("x7", "x8"),
        arrival=0.95, required=0.94,
    ),
    TimingViolation(
        kind="hold", start="d1", end="d9", cells=("x5",),
        arrival=0.0, required=0.05,
    ),
    TimingViolation(
        kind="setup", start="d3", end="d10", cells=("x7", "x8"),
        arrival=0.95, required=0.94,
    ),
]

MODELS = [
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ZERO),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.ONE),
    FailureModel("a_q_r0", "res_q_r31", ViolationKind.SETUP, CMode.RANDOM),
]


def _stream(count, width=2):
    return [
        {"a": (7 * i + 3) % (1 << width), "b": (5 * i + 1) % (1 << width)}
        for i in range(count)
    ]


def _work_counters(tele):
    """Counters that must not depend on the worker count.

    Wall times (``_s``) vary run to run, and the compile cache is per
    process, so its hits and misses follow the process count.
    """
    return {
        name: value
        for name, value in tele.counters.items()
        if not re.search(r"_s(\.|$)", name)
        and not name.startswith("sim.compile.")
    }


def _traced(fn):
    tele = telemetry.Telemetry(run_id="pool-test")
    with telemetry.use(tele):
        result = fn()
    return result, tele


def _pool_events(tele, name):
    return [
        r for r in tele.records
        if r.get("type") == "event" and r["name"] == f"{name}.pool"
    ]


# -- fork_map contract ----------------------------------------------------
def _slow_square(state, task):
    # Later tasks finish first, so order comes from the pool, not luck.
    time.sleep(0.002 * (state - task))
    telemetry.add("test.tasks")
    telemetry.add("test.task_sum", task)
    return task * task, os.getpid()


class TestForkMap:
    def test_workers_resolve_to_cpu_count_and_task_cap(self):
        cpus = os.cpu_count() or 1
        assert resolve_workers(0, 1000) == min(cpus, 1000)
        assert resolve_workers(-3, 1000) == min(cpus, 1000)
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 0) == 1
        assert resolve_workers(1, 50) == 1

    @needs_fork
    def test_pooled_results_keep_submission_order(self):
        tasks = list(range(12))
        runs, tele = _traced(
            lambda: list(fork_map("test", _slow_square, 12, tasks, 3))
        )
        assert [square for (square, _pid), _wall in runs] == [
            t * t for t in tasks
        ]
        assert all(wall >= 0 for _, wall in runs)
        assert os.getpid() not in {pid for (_sq, pid), _wall in runs}
        # Worker counter deltas fold into the parent.
        assert tele.counters["test.tasks"] == len(tasks)
        assert tele.counters["test.task_sum"] == sum(tasks)
        events = _pool_events(tele, "test")
        assert len(events) == 1
        attrs = events[0]["attrs"]
        assert attrs["workers"] == 3
        assert attrs["tasks"] == len(tasks)
        assert set(attrs) == {
            "workers", "tasks", "elapsed_s", "busy_s", "utilization",
        }

    def test_serial_run_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        tasks = list(range(5))
        runs, tele = _traced(
            lambda: list(fork_map("test", _slow_square, 5, tasks, 4))
        )
        assert [square for (square, _pid), _wall in runs] == [
            t * t for t in tasks
        ]
        assert {pid for (_sq, pid), _wall in runs} == {os.getpid()}
        assert tele.counters["test.tasks"] == len(tasks)
        assert _pool_events(tele, "test") == []

    def test_one_worker_runs_in_process(self):
        runs = list(fork_map("test", _slow_square, 3, [0, 1, 2], 1))
        assert {pid for (_sq, pid), _wall in runs} == {os.getpid()}


# -- task errors ----------------------------------------------------------
class _Poisoned(dict):
    """An operand whose port lookup fails inside the chunk simulation."""

    def get(self, key, default=None):
        raise ValueError("poisoned operand")


@needs_fork
def test_task_error_propagates_without_serial_rerun(
    paper_adder, monkeypatch, tmp_path
):
    log = tmp_path / "pids.txt"
    real = parallel_profile._count_chunk

    def counted(*args, **kwargs):
        with open(log, "a") as fp:
            fp.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_profile, "_count_chunk", counted)
    ops = _stream(400)
    ops[200] = _Poisoned(ops[200])
    with pytest.raises(ValueError, match="poisoned operand"):
        profile_workload_streams(
            paper_adder, {"w": ops}, lanes=8, workers=2, chunk_batches=1
        )
    pids = {int(line) for line in log.read_text().split()}
    assert pids, "no chunk ran"
    assert os.getpid() not in pids


# -- counters match across worker counts ----------------------------------
@needs_fork
def test_lifting_counters_match_across_worker_counts(paper_adder):
    lifter = ErrorLifter(paper_adder, ErrorLiftingConfig(bmc_depth=4))
    (serial, one), (pooled, three) = (
        _traced(lambda w=w: lift_pairs(lifter, ADDER_VIOLATIONS, workers=w))
        for w in (1, 3)
    )
    assert [p.outcome for p in serial] == [p.outcome for p in pooled]
    assert _work_counters(one) == _work_counters(three)
    assert _work_counters(one)["bmc.frames"] > 0
    assert _pool_events(one, "lifting") == []
    assert len(_pool_events(three, "lifting")) == 1


@needs_fork
def test_profiling_counters_match_across_worker_counts(paper_adder):
    streams = {"w0": _stream(300), "w1": _stream(90)}
    (serial, one), (pooled, three) = (
        _traced(
            lambda w=w: profile_workload_streams(
                paper_adder, streams, lanes=8, workers=w, chunk_batches=2
            )
        )
        for w in (1, 3)
    )
    assert pooled.ones == serial.ones
    assert _work_counters(one) == _work_counters(three)
    assert _work_counters(one)["sim.cycles"] > 0
    assert _pool_events(one, "profile") == []
    assert len(_pool_events(three, "profile")) == 1


@pytest.fixture(scope="module")
def alu_campaign_inputs():
    netlist = build_alu()
    lifter = ErrorLifter(netlist, ErrorLiftingConfig(), AluMapper())
    violation = TimingViolation(
        "setup", "a_q_r0", "res_q_r31", ("u",), 6.1, 6.0
    )
    library = AgingLibrary(
        name="pool_vega",
        test_cases=lifter.lift_pair(violation).test_cases,
    )
    return netlist, library


@needs_fork
def test_campaign_counters_match_across_worker_counts(alu_campaign_inputs):
    netlist, library = alu_campaign_inputs

    def run(workers):
        config = CampaignConfig(
            devices=6,
            seed=5,
            shard_size=2,
            workers=workers,
            silifuzz_snapshots=3,
            base_onset_years=6.0,
        )
        engine = CampaignEngine(netlist, "alu", library, MODELS, config)
        return engine.run().to_json()

    run(1)  # warm the per-process suite and simulator caches
    (serial, one), (pooled, three) = (
        _traced(lambda w=w: run(w)) for w in (1, 3)
    )
    assert pooled == serial
    assert _pool_events(one, "campaign") == []
    assert len(_pool_events(three, "campaign")) == 1
    # The device-outcome memo lives in each process's copy of the
    # runner, like the compile cache: a worker misses once per outcome
    # key it meets first, so its hits follow the shard split.
    memo = "campaign.outcome_memo_hits"
    one, three = _work_counters(one), _work_counters(three)
    assert three.pop(memo, 0) <= one.pop(memo, 0)
    assert one == three
    assert one["campaign.devices"] == 6

"""Parallel SP profiling — sharded Aging Analysis workload simulation.

Signal-probability profiling (§3.2.1) is embarrassingly parallel at two
granularities, and this module exploits both with the same architecture
the Error Lifter uses for endpoint pairs (:mod:`repro.lifting.parallel`):

* **across workloads** — each representative workload's operand stream
  is an independent simulation;
* **within a workload** — :func:`repro.sim.probes.profile_operand_stream`
  resets the simulator per packed batch, so a long stream splits into
  *chunks* at lane-batch boundaries, each chunk an independent packed
  simulation over its cycle range.

Chunk boundaries depend only on ``lanes`` and ``chunk_batches`` — never
on the worker count — and each chunk contributes raw integer one-counts
which are summed in deterministic chunk order before a single final
division.  A parallel profile is therefore **bit-identical** to the
serial one for any worker count, and both are bit-identical to the
monolithic :func:`profile_operand_stream` result.

Workers are ``fork`` processes: the netlist and all operand streams
travel once via the pool initializer (inherited copy-on-write), tasks
carry only ``(workload, start, stop)`` index triples, and results are
flat integer count vectors.  Platforms without ``fork`` — or
``workers <= 1``, or a pool that fails to start — fall back to the
serial loop transparently.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import telemetry
from ..netlist.netlist import Netlist
from .gatesim import GateSimulator, pack_vectors
from .probes import SPCounter, SPProfile

#: Packed batches per chunk: chunks of ``chunk_batches * lanes`` operands
#: keep task-dispatch overhead negligible while still load-balancing.
DEFAULT_CHUNK_BATCHES = 4

#: Per-worker state installed by :func:`_init_worker` after the fork.
_WORKER_STATE: Optional[Tuple[Netlist, Dict[str, Sequence], int, int]] = None


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


@dataclass(frozen=True)
class Chunk:
    """One unit of profiling work: a cycle range of one workload."""

    workload: str
    start: int
    stop: int


def plan_chunks(
    stream_lengths: Mapping[str, int],
    lanes: int,
    chunk_batches: int = DEFAULT_CHUNK_BATCHES,
) -> List[Chunk]:
    """Split every workload into lane-aligned chunks.

    The plan is a pure function of the stream lengths and batching
    parameters, so serial and parallel runs (of any width) simulate the
    exact same packed batches.
    """
    size = max(1, lanes * chunk_batches)
    chunks: List[Chunk] = []
    for workload, length in stream_lengths.items():
        for start in range(0, length, size):
            chunks.append(Chunk(workload, start, min(start + size, length)))
    return chunks


def _count_chunk(
    netlist: Netlist,
    operands: Sequence[Mapping[str, int]],
    lanes: int,
    drain_cycles: int,
    sim: Optional[GateSimulator] = None,
) -> Tuple[List[int], int]:
    """Packed-simulate one chunk; return (per-net one-counts, samples).

    The batch loop mirrors :func:`profile_operand_stream` exactly —
    reset per batch, ``1 + drain_cycles`` steps, sample after each —
    so per-chunk counts add up to the monolithic run's counts.
    """
    if sim is None:
        sim = GateSimulator(netlist)
    counter = SPCounter(netlist)
    ports = {p.name: p.width for p in netlist.input_ports()}
    for start in range(0, len(operands), lanes):
        batch = operands[start : start + lanes]
        mask = (1 << len(batch)) - 1
        packed_inputs: Dict[str, list] = {}
        for name, width in ports.items():
            values = [op.get(name, 0) for op in batch]
            packed_inputs[name] = pack_vectors(values, width)
        sim.reset()
        for _ in range(1 + drain_cycles):
            sim.step(packed_inputs, mask=mask, packed=True)
            counter.sample(sim, mask=mask)
    return list(counter.ones.values()), counter.samples


def _init_worker(netlist, streams, lanes, drain_cycles) -> None:
    """Stash the shared profiling state in the forked child."""
    global _WORKER_STATE
    # Fresh per-worker telemetry: counter deltas (simulated cycles,
    # compile hits) travel back with each chunk result.
    telemetry.install(telemetry.Telemetry(run_id="profile-worker"))
    _WORKER_STATE = (netlist, streams, lanes, drain_cycles)


def _profile_chunk(
    task: Tuple[int, str, int, int]
) -> Tuple[int, List[int], int, Dict[str, float]]:
    index, workload, start, stop = task
    assert _WORKER_STATE is not None
    netlist, streams, lanes, drain_cycles = _WORKER_STATE
    tele = telemetry.active()
    base = tele.snapshot() if tele is not None else {}
    ones, samples = _count_chunk(
        netlist, streams[workload][start:stop], lanes, drain_cycles
    )
    deltas = tele.counter_deltas(base) if tele is not None else {}
    return index, ones, samples, deltas


def profile_workload_streams(
    netlist: Netlist,
    streams: Mapping[str, Sequence[Mapping[str, int]]],
    lanes: int = 256,
    drain_cycles: int = 2,
    workers: int = 1,
    chunk_batches: int = DEFAULT_CHUNK_BATCHES,
) -> SPProfile:
    """Profile one or more workload operand streams, sharded by chunk.

    ``streams`` maps a workload id to its operand stream (the id only
    names the work; results depend on stream contents alone).
    ``workers <= 0`` means one per CPU.  The merged profile carries raw
    one-counts and is bit-identical across worker counts.
    """
    streams = {name: list(ops) for name, ops in streams.items()}
    if not streams or all(not ops for ops in streams.values()):
        raise ValueError("empty operand stream")
    chunks = plan_chunks(
        {name: len(ops) for name, ops in streams.items()}, lanes, chunk_batches
    )
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    workers = min(workers, len(chunks))

    names = list(netlist.nets)
    totals = [0] * len(names)
    samples = 0

    def _accumulate(ones: List[int], chunk_samples: int) -> None:
        nonlocal samples
        for i, count in enumerate(ones):
            totals[i] += count
        samples += chunk_samples

    if workers <= 1 or not fork_available():
        sim = GateSimulator(netlist)
        for chunk in chunks:
            ones, n = _count_chunk(
                netlist,
                streams[chunk.workload][chunk.start : chunk.stop],
                lanes,
                drain_cycles,
                sim=sim,
            )
            _accumulate(ones, n)
    else:
        ctx = multiprocessing.get_context("fork")
        tasks = [
            (i, c.workload, c.start, c.stop) for i, c in enumerate(chunks)
        ]
        t_pool = time.perf_counter()
        try:
            with ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(netlist, streams, lanes, drain_cycles),
            ) as pool:
                results = pool.map(_profile_chunk, tasks)
        except (OSError, ValueError):  # pool could not start: degrade
            return profile_workload_streams(
                netlist, streams, lanes, drain_cycles,
                workers=1, chunk_batches=chunk_batches,
            )
        # Integer sums are order-independent, but accumulate in chunk
        # order anyway so the code path mirrors the serial loop (and so
        # telemetry counter merges are deterministic too).
        tele = telemetry.active()
        for _index, ones, n, deltas in sorted(results, key=lambda r: r[0]):
            if tele is not None:
                tele.merge_counters(deltas)
            _accumulate(ones, n)
        telemetry.event(
            "profile.pool",
            workers=workers,
            chunks=len(chunks),
            elapsed_s=round(time.perf_counter() - t_pool, 6),
        )

    sp = {name: totals[i] / samples for i, name in enumerate(names)}
    ones_by_net = {name: totals[i] for i, name in enumerate(names)}
    return SPProfile(
        netlist_name=netlist.name, sp=sp, samples=samples, ones=ones_by_net
    )


def profile_operand_stream_parallel(
    netlist: Netlist,
    operands: Sequence[Mapping[str, int]],
    lanes: int = 256,
    drain_cycles: int = 2,
    workers: int = 1,
    chunk_batches: int = DEFAULT_CHUNK_BATCHES,
) -> SPProfile:
    """Sharded drop-in for :func:`~repro.sim.probes.profile_operand_stream`.

    Bit-identical to the monolithic packed run for any ``workers``.
    """
    return profile_workload_streams(
        netlist,
        {"stream": operands},
        lanes=lanes,
        drain_cycles=drain_cycles,
        workers=workers,
        chunk_batches=chunk_batches,
    )

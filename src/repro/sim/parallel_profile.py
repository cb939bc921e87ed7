"""SP profiling of operand streams — the one Aging Analysis profiler.

Signal-probability profiling (§3.2.1) packs ``lanes`` operations into
one simulated stream: each packed batch resets the simulator and runs
``1 + drain_cycles`` steps, sampling after each, so pipelined results
reach the output registers and their SP is observed too.  Because every
batch starts from reset, the work is embarrassingly parallel at two
granularities, and :func:`profile_workload_streams` exploits both:

* **across workloads** — each representative workload's operand stream
  is an independent simulation;
* **within a workload** — a long stream splits into *chunks* at
  lane-batch boundaries, each chunk an independent packed simulation
  over its cycle range.

Chunk boundaries depend only on ``lanes`` and ``chunk_batches`` — never
on the worker count — and each chunk contributes raw integer one-counts
which are summed in deterministic chunk order before a single final
division.  A profile is therefore **bit-identical** for any worker
count, and equal to the scalar one-operand-at-a-time reference
(``tests/oracles.profile_operand_stream_reference``).  Chunks fan out
through :func:`repro.core.pool.fork_map`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.pool import fork_map
from ..netlist.netlist import Netlist
from .gatesim import GateSimulator, pack_vectors
from .probes import SPCounter, SPProfile

#: Packed batches per chunk: chunks of ``chunk_batches * lanes`` operands
#: keep task-dispatch overhead negligible while still load-balancing.
DEFAULT_CHUNK_BATCHES = 4

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


def _count_chunk(state: tuple, chunk: Chunk) -> Tuple[List[int], int]:
    """Packed-simulate one chunk; return (per-net one-counts, samples).

    Reset per batch, ``1 + drain_cycles`` steps, sample after each, so
    per-chunk counts add up to one run over the whole stream.
    """
    netlist, streams, lanes, drain_cycles, sim = state
    operands = streams[chunk.workload][chunk.start : chunk.stop]
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
    names = list(netlist.nets)
    totals = [0] * len(names)
    samples = 0
    # One simulator per process: forked workers inherit their own copy.
    state = (netlist, streams, lanes, drain_cycles, GateSimulator(netlist))
    for (ones, n), _wall in fork_map(
        "profile", _count_chunk, state, chunks, workers
    ):
        for i, count in enumerate(ones):
            totals[i] += count
        samples += n

    sp = {name: totals[i] / samples for i, name in enumerate(names)}
    ones_by_net = {name: totals[i] for i, name in enumerate(names)}
    return SPProfile(
        netlist_name=netlist.name, sp=sp, samples=samples, ones=ones_by_net
    )

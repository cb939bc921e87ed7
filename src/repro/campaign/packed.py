"""Fault-parallel packed campaign prefilter.

The serial campaign evaluates one (device, failure model) at a time,
yet the gate simulator already carries 64+ stimulus vectors per machine
word.  This module folds many failure models into a *single* packed
gate-sim pass and resolves each model's suite verdict from it, in three
exactly-equivalent stages:

1. **Golden trace** — each suite runs once on the recording golden
   backend, capturing the ``(op, a, b) -> golden result`` stream every
   fault-free co-simulation would issue, plus the golden verdict.  The
   ISA model's cycle counts are backend-independent (``spec.cycles``
   per instruction), so any device whose gate results match golden at
   every op behaves — and counts cycles — identically to the golden
   run, by induction over frames.

2. **Packed pass** — one :func:`make_failing_netlist_multi` clone per
   model group replays the golden op stream through a single compiled
   packed simulation: model k's select port is driven with the constant
   plane mask ``1 << k``, scalar operand ports broadcast to the group
   mask, and RANDOM models get their serial backend's exact per-frame
   ``fm_c`` RNG stream on their own plane.  Planes whose result equals
   golden at every op take the golden verdict verbatim; the rest are
   *diverged* and carry their recorded per-op gate results forward.

3. **Replay** — a diverged model re-runs the suite at pure-ISA speed
   with :class:`ReplayBackend` serving the recorded plane results
   index-wise, verifying that every ``execute`` call still matches the
   golden stream (gate state is a function of stimulus history only, so
   a verified prefix makes the served results exact).  The first
   mismatch falls back to the exact serial gate co-simulation, so the
   overall path is unconditionally byte-identical to the serial engine.

SiliFuzz snapshots deliberately feed every result back through a
checksum chain, so a diverged plane *always* mismatches the golden op
stream — a plain replay would degenerate into a full serial co-sim per
plane.  Those planes are resolved by a *lockstep tail co-simulation*
instead: the packed pass checkpoints its DFF state at snapshot
boundaries; a diverged plane's run is bit-identical to golden up to the
snapshot containing its first divergent op, so the resolver takes the
golden verdict and cycle counts for that prefix verbatim and then runs
every diverged plane's remaining snapshots *concurrently* against the
same packed simulator.  Each plane's CPU executes in its own thread,
parked at each backend call; the coordinator packs one pending
``(op, a, b)`` per plane into a single packed op-slot, steps the
simulator once, and hands each plane its own result plane back.  A
plane's gate state depends only on its own stimulus history (the other
planes' muxes sit at identity), so the lockstep interleaving is exactly
the serial backend per plane — threads provide suspension, not
parallelism, and no result crosses planes.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import telemetry
from ..cpu.alu_design import ALU_LATENCY
from ..cpu.cpu import Cpu, CpuStall, GoldenAlu, GoldenMdu
from ..cpu.mdu_design import MDU_LATENCY
from ..lifting.instrument import make_failing_netlist_multi
from ..lifting.models import CMode, FailureModel
from ..sim.gatesim import GateSimulator

#: Units the packed prefilter can batch: fixed-latency issue/drain
#: pipelines whose per-op frame count is plane-independent.  The FPU's
#: variable ``out_valid`` handshake gives each plane its own frame
#: count, which lockstep packed stepping cannot represent.
PACKED_UNITS = ("alu", "mdu")

#: Per-unit co-simulation frame shape, mirroring the serial backends in
#: :mod:`repro.cpu.cosim`: scalar input ports driven per frame, and the
#: drain latency after issue.
_UNIT_FRAMES = {
    "alu": (("op", "a", "b", "mode", "dft"), ALU_LATENCY),
    "mdu": (("op", "a", "b", "dft"), MDU_LATENCY),
}

_GOLDEN = {"alu": GoldenAlu, "mdu": GoldenMdu}


class ReplayMismatch(Exception):
    """A replayed run diverged from the recorded golden op stream.

    Raised by :class:`ReplayBackend` when an ``execute`` call does not
    match the recorded stream index-wise (or outruns it) — the point
    past which the recorded per-plane gate results are no longer known
    to be exact.  The caller falls back to the serial co-simulation.
    """


class ReplayBackend:
    """Serves recorded per-plane gate results at pure-ISA speed.

    Exactness argument: the serial gate backend's state after i
    operations is a pure function of the stimulus prefix (the first i
    ``(op, a, b)`` calls plus the deterministic per-frame ``fm_c``
    stream, which depends only on the frame count).  As long as every
    call matches the recorded golden stream index-wise, the recorded
    packed-plane result *is* the serial backend's result; the first
    mismatch aborts before any unverified value is served.
    """

    __slots__ = ("_ops", "_results", "_index", "operations")

    def __init__(
        self, ops: Sequence[Tuple[int, int, int]], results: Sequence[int]
    ):
        self._ops = ops
        self._results = results
        self._index = 0
        self.operations = 0

    def execute(self, op: int, a: int, b: int) -> int:
        index = self._index
        ops = self._ops
        if index >= len(ops):
            raise ReplayMismatch("op stream outran the recorded trace")
        rec_op, rec_a, rec_b = ops[index]
        if rec_op != op or rec_a != a or rec_b != b:
            raise ReplayMismatch(f"op {index} diverged from the trace")
        self._index = index + 1
        self.operations += 1
        return self._results[index]


class _RecordingBackend:
    """Golden backend that captures the full co-simulation op stream."""

    def __init__(self, golden):
        self._golden = golden
        self.ops: List[Tuple[int, int, int]] = []
        self.results: List[int] = []
        self.operations = 0

    def execute(self, op: int, a: int, b: int) -> int:
        self.operations += 1
        result = self._golden.execute(op, a, b)
        self.ops.append((op, a, b))
        self.results.append(result)
        return result


@dataclass
class GoldenTrace:
    """One suite's fault-free op stream and verdict.

    For the silifuzz suite the trace also records, per snapshot, the
    cumulative op count (``snap_marks``) and the golden cycle count
    (``snap_cycles``) — the ingredients of prefix-skipping tail
    resolution.  Both stay ``None`` for vega/random traces.
    """

    suite: str
    ops: List[Tuple[int, int, int]]
    results: List[int]
    outcome: "SuiteOutcome"  # noqa: F821 - imported lazily (cycle)
    snap_marks: Optional[List[int]] = None
    snap_cycles: Optional[List[int]] = None


@dataclass
class _PassResult:
    """Everything one packed pass learned about its plane group."""

    #: Per-op list of result-port bit planes.
    result_planes: List[List[int]]
    #: Bit k set — plane k differed from golden at some op.
    diverged: int
    #: Plane -> index of its first divergent op.
    first_div: Dict[int, int] = field(default_factory=dict)
    #: Packed-netlist DFF names (state vector order); silifuzz only.
    dff_names: Optional[List[str]] = None
    #: Entry j — packed DFF state before snapshot j; silifuzz only.
    boundary_states: Optional[List[Optional[List[int]]]] = None
    #: The pass's simulator and stimulus shape, reused by the lockstep
    #: tail resolver (silifuzz only).
    sim: Optional[GateSimulator] = None
    select_planes: Optional[Dict[str, List[int]]] = None
    port_widths: Optional[Dict[str, int]] = None
    random_port: Optional[str] = None
    group_mask: int = 0


class _LockstepChannel:
    """Rendezvous between one plane's CPU thread and the coordinator."""

    __slots__ = ("request", "result", "done", "outcome", "error", "rng",
                 "_req", "_res")

    def __init__(self):
        self.request: Optional[Tuple[int, int, int]] = None
        self.result = 0
        self.done = False
        self.outcome = None
        self.error: Optional[BaseException] = None
        self.rng: Optional[random.Random] = None
        self._req = threading.Event()
        self._res = threading.Event()

    # -- CPU-thread side ------------------------------------------------
    def call(self, op: int, a: int, b: int) -> int:
        self.request = (op, a, b)
        self._res.clear()
        self._req.set()
        self._res.wait()
        return self.result

    def finish(self, outcome) -> None:
        self.outcome = outcome
        self.done = True
        self._req.set()

    # -- coordinator side -----------------------------------------------
    def wait_request(self) -> None:
        self._req.wait()
        self._req.clear()

    def respond(self, value: int) -> None:
        self.result = value
        self._res.set()


class _LockstepBackend:
    """Backend facade that parks its CPU at every gate operation."""

    __slots__ = ("_channel", "operations")

    def __init__(self, channel: _LockstepChannel):
        self._channel = channel
        self.operations = 0

    def execute(self, op: int, a: int, b: int) -> int:
        self.operations += 1
        return self._channel.call(op, a, b)


def _planes(value: int, width: int, mask: int) -> List[int]:
    """Broadcast one scalar port value to every plane in the group."""
    return [mask if (value >> bit) & 1 else 0 for bit in range(width)]


class PackedPrefilter:
    """Resolves suite outcomes for groups of failure models at once.

    Built over a :class:`~repro.campaign.engine.DeviceRunner`; writes
    resolved :class:`SuiteOutcome` objects straight into the runner's
    per-``(outcome key, suite)`` memo so :meth:`DeviceRunner.run_device`
    finds them instead of co-simulating.
    """

    def __init__(self, runner):
        self.runner = runner
        self._traces: Dict[str, GoldenTrace] = {}
        self._packed_memo: Dict[tuple, object] = {}

    # -- golden traces --------------------------------------------------
    def trace(self, suite: str) -> GoldenTrace:
        cached = self._traces.get(suite)
        if cached is not None:
            return cached
        from .engine import SuiteOutcome

        runner = self.runner
        recorder = _RecordingBackend(_GOLDEN[runner.unit]())
        backends = {runner.unit: recorder}
        if suite in ("vega", "random"):
            library = (
                runner.library if suite == "vega" else runner.random_library
            )
            result = library.run_suite(
                strategy=runner.config.strategy,
                max_instructions=runner.config.max_suite_instructions,
                **backends,
            )
            outcome = SuiteOutcome(
                suite=suite,
                detected=result.detected,
                stalled=result.stalled,
                cycles=result.cycles,
                detected_by=result.detected_by,
            )
        elif suite == "silifuzz":
            # Replicate SiliFuzzLite.detects so per-snapshot op marks
            # and golden cycle counts land in the trace (the golden
            # backend never stalls or mismatches, but the pathological
            # branches stay faithful — they clear the marks so diverged
            # planes take the generic fallback instead).
            marks: List[int] = []
            snap_cycles: List[int] = []
            executed = 0
            detected, stalled, by = False, False, None
            for snapshot, program in zip(
                runner.snapshots, runner.snapshot_programs
            ):
                cpu = Cpu(program, **backends)
                try:
                    result = cpu.run()
                except CpuStall:
                    detected, stalled, by = True, True, snapshot.name
                    executed += cpu.cycles
                    break
                executed += result.cycles
                marks.append(len(recorder.ops))
                snap_cycles.append(result.cycles)
                if result.exit_value != snapshot.golden:
                    detected, by = True, snapshot.name
                    break
            outcome = SuiteOutcome(
                suite=suite,
                detected=detected,
                stalled=stalled,
                cycles=executed,
                detected_by=by,
            )
            trace = GoldenTrace(
                suite=suite,
                ops=recorder.ops,
                results=recorder.results,
                outcome=outcome,
                snap_marks=None if detected else marks,
                snap_cycles=None if detected else snap_cycles,
            )
            self._traces[suite] = trace
            return trace
        else:
            raise ValueError(f"unknown campaign suite {suite!r}")
        trace = GoldenTrace(
            suite=suite,
            ops=recorder.ops,
            results=recorder.results,
            outcome=outcome,
        )
        self._traces[suite] = trace
        return trace

    # -- packed execution -----------------------------------------------
    def _packed_netlist(self, models: Sequence[FailureModel]):
        key = tuple(model.label for model in models)
        packed = self._packed_memo.get(key)
        if packed is None:
            packed = make_failing_netlist_multi(self.runner.netlist, models)
            self._packed_memo[key] = packed
        return packed

    def _packed_pass(
        self, trace: GoldenTrace, group: Sequence
    ) -> _PassResult:
        """Replay ``trace`` with every group model on its own plane.

        Returns the per-op result planes and the diverged-plane mask:
        bit k set means plane k's result differed from golden at some
        op and needs replay/tail/fallback resolution.  When the trace
        carries snapshot marks (silifuzz), the pass runs segment-wise
        and checkpoints the packed DFF state at every boundary.
        """
        runner = self.runner
        ports, latency = _UNIT_FRAMES[runner.unit]
        # One plane per outcome key; models may repeat across planes
        # (same label, different RANDOM seed), the netlist dedups.
        labels: List[str] = []
        models: List[FailureModel] = []
        for _key, spec in group:
            if spec.model.label not in labels:
                labels.append(spec.model.label)
                models.append(spec.model)
        packed = self._packed_netlist(models)
        netlist = packed.netlist
        mask = (1 << len(group)) - 1
        select_planes: Dict[str, List[int]] = {
            packed.select_ports[label]: [0] for label in labels
        }
        for plane, (_key, spec) in enumerate(group):
            select_planes[packed.select_ports[spec.model.label]][0] |= (
                1 << plane
            )
        # Per-plane fm_c streams: exactly the serial backend's RNG.
        rngs = [
            random.Random(spec.backend_seed)
            if spec.model.c_mode is CMode.RANDOM
            else None
            for _key, spec in group
        ]
        has_c = packed.random_port is not None
        widths = {name: netlist.ports[name].width for name in ports}
        sim = GateSimulator(netlist)

        def frames(ops):
            for op, a, b in ops:
                base = {
                    "op": _planes(op, widths["op"], mask),
                    "a": _planes(a, widths["a"], mask),
                    "b": _planes(b, widths["b"], mask),
                    "dft": [0] * widths["dft"],
                }
                if "mode" in widths:
                    base["mode"] = [0] * widths["mode"]
                base.update(select_planes)
                if not has_c:
                    # Operands hold through the drain frames, exactly
                    # like the serial backend.
                    for _ in range(latency + 1):
                        yield base
                    continue
                for _ in range(latency + 1):
                    c_plane = 0
                    for plane, rng in enumerate(rngs):
                        if rng is not None:
                            c_plane |= rng.getrandbits(1) << plane
                    yield {**base, packed.random_port: [c_plane]}

        watch = ("result",)
        dff_names: Optional[List[str]] = None
        boundary_states: Optional[List[Optional[List[int]]]] = None
        if trace.snap_marks is not None:
            # Segment-wise: the simulator state persists across
            # run_planes calls, so checkpointing between segments is
            # free of behavioural difference.
            captured: List[Tuple[List[int], ...]] = []
            boundary_states = [None]
            prev = 0
            for mark in trace.snap_marks:
                captured.extend(
                    sim.run_planes(frames(trace.ops[prev:mark]), mask, watch)
                )
                boundary_states.append(list(sim.state))
                prev = mark
            dff_names = [d.name for d in sim._dffs]
        else:
            captured = sim.run_planes(frames(trace.ops), mask, watch)
        step = latency + 1
        result_planes: List[List[int]] = []
        diverged = 0
        first_div: Dict[int, int] = {}
        for index, golden in enumerate(trace.results):
            planes = captured[index * step + step - 1][0]
            result_planes.append(planes)
            diff = 0
            for bit, plane in enumerate(planes):
                expected = mask if (golden >> bit) & 1 else 0
                diff |= plane ^ expected
            new = diff & mask & ~diverged
            while new:
                low = new & -new
                first_div[low.bit_length() - 1] = index
                new ^= low
            diverged |= diff & mask
        return _PassResult(
            result_planes=result_planes,
            diverged=diverged,
            first_div=first_div,
            dff_names=dff_names,
            boundary_states=boundary_states,
            sim=sim,
            select_planes=select_planes,
            port_widths=widths,
            random_port=packed.random_port,
            group_mask=mask,
        )

    # -- divergence resolution ------------------------------------------
    def _plane_results(
        self, result_planes: Sequence[Sequence[int]], plane: int
    ) -> List[int]:
        """Re-assemble one plane's per-op integer results."""
        out = []
        for planes in result_planes:
            value = 0
            for bit, plane_bits in enumerate(planes):
                if (plane_bits >> plane) & 1:
                    value |= 1 << bit
            out.append(value)
        return out

    def _resolve_diverged(
        self, suite: str, trace: GoldenTrace, results: List[int], spec
    ):
        runner = self.runner
        backends = {runner.unit: ReplayBackend(trace.ops, results)}
        try:
            outcome = runner._run_suite(suite, spec, backends)
        except ReplayMismatch:
            # The faulty run's op stream left the golden prefix: only
            # the exact gate co-simulation knows what happens next.
            telemetry.add("campaign.packed_fallbacks")
            return runner._run_suite(suite, spec)
        telemetry.add("campaign.packed_replays")
        return outcome

    def _lockstep_worker(
        self, channel: _LockstepChannel, start: int, prefix_cycles: int
    ) -> None:
        """One diverged plane's tail: replicates the ``detects`` loop.

        Snapshots before ``start`` ran bit-identical to golden (same
        stimulus, same results, hence same architectural state and
        checksums), so the golden per-snapshot cycle counts stand in
        for the prefix and the loop resumes at the first snapshot that
        can diverge.
        """
        from .engine import SuiteOutcome

        runner = self.runner
        backends = {runner.unit: _LockstepBackend(channel)}
        executed = prefix_cycles
        outcome = None
        try:
            for snapshot, program in zip(
                runner.snapshots[start:], runner.snapshot_programs[start:]
            ):
                cpu = Cpu(program, **backends)
                try:
                    result = cpu.run()
                except CpuStall:
                    outcome = SuiteOutcome(
                        suite="silifuzz",
                        detected=True,
                        stalled=True,
                        cycles=executed + cpu.cycles,
                        detected_by=snapshot.name,
                    )
                    break
                executed += result.cycles
                if result.exit_value != snapshot.golden:
                    outcome = SuiteOutcome(
                        suite="silifuzz",
                        detected=True,
                        stalled=False,
                        cycles=executed,
                        detected_by=snapshot.name,
                    )
                    break
            else:
                outcome = SuiteOutcome(
                    suite="silifuzz",
                    detected=False,
                    stalled=False,
                    cycles=executed,
                    detected_by=None,
                )
        except BaseException as exc:  # pragma: no cover - surfaced below
            channel.error = exc
        finally:
            channel.finish(outcome)

    def _resolve_silifuzz_tails(
        self, trace: GoldenTrace, passed: _PassResult, group: Sequence,
        planes: Sequence[int],
    ) -> Dict[int, object]:
        """Resolve every diverged silifuzz plane in one lockstep batch.

        The packed pass's simulator is re-seeded so each plane's DFF
        state is its own snapshot-boundary checkpoint (a plane's state
        bits are a pure function of its own stimulus prefix; the other
        planes' muxes sit at identity).  Each plane's tail CPU runs in
        its own thread, parked at every backend call; per op-slot the
        coordinator packs the pending ``(op, a, b)`` of every live
        plane, steps issue + drain frames once, and hands each plane
        its own result plane — so N tails cost one packed co-sim, not N
        serial ones.  Per-plane ``fm_c`` RNGs are fast-forwarded by one
        draw per prefix frame, exactly the serial consumption.
        """
        runner = self.runner
        _ports, latency = _UNIT_FRAMES[runner.unit]
        marks = trace.snap_marks
        sim = passed.sim
        widths = passed.port_widths
        starts = {
            plane: bisect_right(marks, passed.first_div[plane])
            for plane in planes
        }
        # Per-plane initial state, combined into the shared simulator:
        # checkpointed bits for planes with a golden prefix, the reset
        # init for planes diverging inside snapshot 0.  Bits of planes
        # outside the batch are never read back.
        combined = [0] * len(sim._dffs)
        for index, dff in enumerate(sim._dffs):
            bits = 0
            for plane in planes:
                start = starts[plane]
                if start > 0:
                    source = passed.boundary_states[start][index]
                else:
                    source = -1 if dff.init else 0
                bits |= ((source >> plane) & 1) << plane
            combined[index] = bits
        sim.state = combined

        channels: Dict[int, _LockstepChannel] = {}
        threads = []
        for plane in planes:
            _key, spec = group[plane]
            channel = _LockstepChannel()
            start = starts[plane]
            if spec.model.c_mode is CMode.RANDOM:
                rng = random.Random(spec.backend_seed)
                if start > 0:
                    for _ in range(marks[start - 1] * (latency + 1)):
                        rng.getrandbits(1)
                channel.rng = rng
            channels[plane] = channel
            threads.append(
                threading.Thread(
                    target=self._lockstep_worker,
                    args=(
                        channel,
                        start,
                        sum(trace.snap_cycles[:start]),
                    ),
                    daemon=True,
                )
            )
        for thread in threads:
            thread.start()

        mask = passed.group_mask
        zero_planes = {
            name: [0] * width
            for name, width in widths.items()
            if name not in ("op", "a", "b")
        }
        live = dict(channels)
        while True:
            requests: Dict[int, Tuple[int, int, int]] = {}
            for plane, channel in list(live.items()):
                channel.wait_request()
                if channel.done:
                    del live[plane]
                else:
                    requests[plane] = channel.request
            if not live:
                break
            base: Dict[str, List[int]] = {}
            for position, name in enumerate(("op", "a", "b")):
                port_planes = [0] * widths[name]
                for plane, request in requests.items():
                    value = request[position] & ((1 << widths[name]) - 1)
                    while value:
                        low = value & -value
                        port_planes[low.bit_length() - 1] |= 1 << plane
                        value ^= low
                base[name] = port_planes
            base.update(zero_planes)
            base.update(passed.select_planes)
            for _frame in range(latency + 1):
                inputs = base
                if passed.random_port is not None:
                    c_plane = 0
                    for plane, channel in live.items():
                        if channel.rng is not None:
                            c_plane |= channel.rng.getrandbits(1) << plane
                    inputs = {**base, passed.random_port: [c_plane]}
                sim.step(inputs, mask, packed=True)
            telemetry.add("campaign.packed_tail_slots")
            result_planes = sim.read_output_planes("result")
            for plane, channel in live.items():
                value = 0
                for bit, plane_bits in enumerate(result_planes):
                    if (plane_bits >> plane) & 1:
                        value |= 1 << bit
                channel.respond(value)
        for thread in threads:
            thread.join()
        outcomes: Dict[int, object] = {}
        for plane, channel in channels.items():
            if channel.error is not None:
                raise channel.error
            telemetry.add("campaign.packed_tails")
            if channel.outcome.stalled:
                telemetry.add("campaign.stalls")
            outcomes[plane] = channel.outcome
        return outcomes

    # -- group driver ---------------------------------------------------
    def resolve_group(self, group: Sequence) -> None:
        """Resolve every suite outcome for one packed model group.

        ``group`` is a list of ``(outcome_key, representative spec)``
        pairs, at most one per distinct outcome key; resolved outcomes
        land in the runner's per-suite memo.
        """
        runner = self.runner
        telemetry.add("campaign.packed_groups")
        telemetry.add("campaign.packed_planes", len(group))
        for suite in runner.config.suites:
            trace = self.trace(suite)
            passed = self._packed_pass(trace, group)
            tails: List[int] = []
            for plane, (key, spec) in enumerate(group):
                memo_key = (key, suite)
                if memo_key in runner._suite_outcomes:
                    continue
                if not (passed.diverged >> plane) & 1:
                    telemetry.add("campaign.packed_golden")
                    runner._suite_outcomes[memo_key] = trace.outcome
                    continue
                if suite == "silifuzz" and trace.snap_marks is not None:
                    # Checksum chains defeat replay by construction;
                    # batch these into one lockstep tail co-sim below.
                    tails.append(plane)
                    continue
                runner._suite_outcomes[memo_key] = self._resolve_diverged(
                    suite,
                    trace,
                    self._plane_results(passed.result_planes, plane),
                    spec,
                )
            if tails:
                outcomes = self._resolve_silifuzz_tails(
                    trace, passed, group, tails
                )
                for plane in tails:
                    key, _spec = group[plane]
                    runner._suite_outcomes[(key, suite)] = outcomes[plane]

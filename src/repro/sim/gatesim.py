"""Compiled, bit-parallel gate-level simulator.

This is the repo's stand-in for Verilator: it evaluates a synthesized
:class:`~repro.netlist.Netlist` cycle by cycle.  Two tricks keep pure
Python fast enough for whole-workload signal-probability profiling:

* **Compilation** — the levelized netlist is translated once into a
  Python function (one local assignment per gate) and ``exec``'d, so the
  per-cycle cost is straight-line bytecode, not graph interpretation.
* **Bit-parallelism** — net values are arbitrary-width Python ints; bit
  ``i`` of every value belongs to independent stimulus vector ``i``.
  One call to :meth:`GateSimulator.step` therefore simulates up to
  thousands of input vectors at once, which is how SP profiling over a
  long operand stream stays cheap.
"""

from __future__ import annotations

import weakref
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from ..core import telemetry
from ..netlist.netlist import Instance, Netlist


class _Layout(NamedTuple):
    """What every simulator over one netlist version shares, read-only:
    the net numbering, the DFF and input-net indices, and the compiled
    evaluation function."""

    version: int
    net_index: Dict[str, int]
    dffs: Tuple[Instance, ...]
    dff_d_index: Tuple[int, ...]
    dff_q_index: Tuple[int, ...]
    input_index: Tuple[int, ...]
    cycle: Callable


#: Netlist layouts, keyed by netlist identity and tagged with the
#: netlist's structural version.  Building a simulator for the same
#: (unmodified) netlist twice — the Error Lifter does this once per
#: golden-output replay, the scheduler once per fresh execution — then
#: allocates only its state and value arrays instead of re-indexing the
#: nets and re-exec'ing the generated source.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[Netlist, _Layout]" = (
    weakref.WeakKeyDictionary()
)

_GATE_EXPR = {
    "BUF": "{a}",
    "CLKBUF": "{a}",
    "INV": "(~{a} & mask)",
    "AND2": "({a} & {b})",
    "OR2": "({a} | {b})",
    "NAND2": "(~({a} & {b}) & mask)",
    "NOR2": "(~({a} | {b}) & mask)",
    "XOR2": "({a} ^ {b})",
    "XNOR2": "(~({a} ^ {b}) & mask)",
    "MUX2": "((({a}) & ~{s} | ({b}) & {s}) & mask)",
    "TIE0": "0",
    "TIE1": "mask",
}


class SimulationError(Exception):
    """Raised for bad stimulus (unknown port, value overflow)."""


def pack_vectors(values: Sequence[int], width: int) -> List[int]:
    """Transpose per-vector port values into bit-plane masks.

    ``values`` holds one integer per stimulus vector; the result holds
    one mask per bit position, where bit ``v`` of mask ``i`` is bit ``i``
    of ``values[v]``.

    Single pass over the *set* bits of each value: zero values cost one
    truth test, and a value with k set bits costs k isolate-lowest-bit
    steps — O(vectors + popcount) instead of O(vectors × width).  Bits
    at positions >= ``width`` are ignored, as before.
    """
    planes = [0] * width
    value_mask = (1 << width) - 1
    for vec_index, value in enumerate(values):
        rest = value & value_mask
        if not rest:
            continue
        vec_bit = 1 << vec_index
        while rest:
            low = rest & -rest
            planes[low.bit_length() - 1] |= vec_bit
            rest ^= low
    return planes


def unpack_vectors(
    planes: Sequence[int], count: int, strict: bool = True
) -> List[int]:
    """Inverse of :func:`pack_vectors` for ``count`` stimulus vectors.

    A plane bit at vector index >= ``count`` indicates a mask/count
    mismatch upstream (the planes were simulated with a wider mask than
    the caller believes) and raises :class:`ValueError`; pass
    ``strict=False`` to truncate such bits deliberately.
    """
    values = [0] * count
    for bit_index, plane in enumerate(planes):
        rest = plane
        while rest:
            low = rest & -rest
            vec = low.bit_length() - 1
            if vec < count:
                values[vec] |= 1 << bit_index
            elif strict:
                raise ValueError(
                    f"plane {bit_index} has a bit at vector index {vec}, "
                    f"beyond the {count} vectors requested — mask/count "
                    "mismatch (pass strict=False to truncate)"
                )
            rest ^= low
    return values


class GateSimulator:
    """Cycle-based two-state simulator for a single-clock netlist.

    Outputs are combinationally visible within the cycle (before the
    clock edge); :meth:`step` then advances every DFF.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        layout = _COMPILE_CACHE.get(netlist)
        if layout is not None and layout.version == netlist.version:
            telemetry.add("sim.compile.hits")
        else:
            telemetry.add("sim.compile.misses")
            layout = self._layout_uncached()
            _COMPILE_CACHE[netlist] = layout
        self._net_index = layout.net_index
        self._dffs = layout.dffs
        self._dff_d_index = layout.dff_d_index
        self._dff_q_index = layout.dff_q_index
        self._input_index = layout.input_index
        self._eval = layout.cycle
        self.state: List[int] = [0] * len(self._dffs)
        self.values: List[int] = [0] * len(self._net_index)
        self.cycle_count = 0
        self.reset()

    # ------------------------------------------------------------------
    def _layout_uncached(self) -> _Layout:
        """Index the netlist and compile it.

        The layout depends only on the netlist's structure, so it is
        cached per (netlist, structural version) and shared by every
        :class:`GateSimulator` over that netlist.
        """
        netlist = self.netlist
        netlist.validate()
        self._net_index = {name: i for i, name in enumerate(netlist.nets)}
        self._dffs = tuple(netlist.dffs())
        self._dff_d_index = tuple(
            self._net_index[d.pins["D"].name] for d in self._dffs
        )
        self._dff_q_index = tuple(
            self._net_index[d.output_net.name] for d in self._dffs
        )
        self._input_index = tuple(
            self._net_index[net.name]
            for port in netlist.input_ports()
            for net in port.nets
        )
        return _Layout(
            netlist.version,
            self._net_index,
            self._dffs,
            self._dff_d_index,
            self._dff_q_index,
            self._input_index,
            self._compile_uncached(),
        )

    def _compile_uncached(self):
        """Build the straight-line evaluation function."""
        order = self.netlist.levelize()
        lines = ["def _cycle(vals, mask):"]
        # Load sources (inputs + DFF Q) from the shared value array.
        loaded = set(self._input_index) | set(self._dff_q_index)
        for idx in sorted(loaded):
            lines.append(f"    v{idx} = vals[{idx}]")
        for inst in order:
            out_idx = self._net_index[inst.output_net.name]
            template = _GATE_EXPR.get(inst.ctype.name)
            if template is None:
                raise SimulationError(
                    f"no simulation model for cell {inst.ctype.name}"
                )
            pins = {
                pin.lower(): f"v{self._net_index[inst.pins[pin].name]}"
                for pin in inst.ctype.inputs
            }
            expr = template.format(**pins)
            lines.append(f"    v{out_idx} = {expr}")
            lines.append(f"    vals[{out_idx}] = v{out_idx}")
        lines.append("    return vals")
        source = "\n".join(lines)
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<gatesim:{self.netlist.name}>", "exec"), namespace)
        return namespace["_cycle"]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Apply the reset state: every DFF returns to its init value.

        In bit-parallel mode the init bit is broadcast to all vectors on
        the next :meth:`step` via the mask.  The reset width is not yet
        known here (the mask arrives with the stimulus), so an init of 1
        is stored as the all-ones integer ``-1`` — ``-1 & mask`` in
        :meth:`_load_state` then broadcasts it to every vector, however
        wide the next packed stimulus turns out to be.
        """
        self.state = [-1 if d.init else 0 for d in self._dffs]
        self.cycle_count = 0

    def _apply_inputs(self, inputs: Dict[str, int], mask: int) -> None:
        consumed = set()
        for port in self.netlist.input_ports():
            if port.name not in inputs:
                raise SimulationError(f"missing stimulus for port {port.name!r}")
            value = inputs[port.name]
            consumed.add(port.name)
            for bit_index, net in enumerate(port.nets):
                plane = (value >> bit_index) & 1
                self.values[self._net_index[net.name]] = mask if plane else 0
        extra = set(inputs) - consumed
        if extra:
            raise SimulationError(f"unknown input ports {sorted(extra)}")

    def _apply_packed_inputs(
        self, inputs: Dict[str, Sequence[int]], mask: int
    ) -> None:
        consumed = set()
        for port in self.netlist.input_ports():
            planes = inputs.get(port.name)
            if planes is None:
                raise SimulationError(f"missing stimulus for port {port.name!r}")
            if len(planes) != port.width:
                raise SimulationError(
                    f"port {port.name!r} needs {port.width} planes, "
                    f"got {len(planes)}"
                )
            consumed.add(port.name)
            for bit_index, net in enumerate(port.nets):
                self.values[self._net_index[net.name]] = planes[bit_index] & mask
        extra = set(inputs) - consumed
        if extra:
            raise SimulationError(f"unknown input ports {sorted(extra)}")

    def _load_state(self, mask: int) -> None:
        for q_idx, value in zip(self._dff_q_index, self.state):
            self.values[q_idx] = value & mask

    def evaluate(
        self,
        inputs: Dict[str, int],
        mask: int = 1,
        packed: bool = False,
    ) -> Dict[str, int]:
        """Combinationally evaluate without clocking the DFFs.

        ``inputs`` maps port name to an integer value (scalar mode), or
        to a list of bit-plane masks when ``packed`` is true.
        """
        if packed:
            self._apply_packed_inputs(inputs, mask)  # type: ignore[arg-type]
        else:
            self._apply_inputs(inputs, mask)
        self._load_state(mask)
        self._eval(self.values, mask)
        return self.read_outputs()

    def step(
        self,
        inputs: Dict[str, int],
        mask: int = 1,
        packed: bool = False,
    ) -> Dict[str, int]:
        """Evaluate one cycle and advance the clock edge."""
        outputs = self.evaluate(inputs, mask, packed)
        self.state = [self.values[d_idx] & mask for d_idx in self._dff_d_index]
        self.cycle_count += 1
        telemetry.add("sim.cycles")
        return outputs

    # ------------------------------------------------------------------
    def read_outputs(self) -> Dict[str, int]:
        """Current output-port values as bit-plane lists (width>1 packed).

        In scalar mode (mask=1) the planes collapse back to the port's
        integer value; use :meth:`read_output_value` for that.
        """
        result: Dict[str, int] = {}
        for port in self.netlist.output_ports():
            value = 0
            for bit_index, net in enumerate(port.nets):
                if self.values[self._net_index[net.name]] & 1:
                    value |= 1 << bit_index
            result[port.name] = value
        return result

    def read_output_planes(self, port_name: str) -> List[int]:
        port = self.netlist.ports[port_name]
        return [self.values[self._net_index[n.name]] for n in port.nets]

    def read_net(self, net_name: str) -> int:
        return self.values[self._net_index[net_name]]

    def run(
        self,
        stimulus: Iterable[Dict[str, int]],
        mask: int = 1,
        packed: bool = False,
    ) -> List[Dict[str, int]]:
        """Clock the netlist through a stimulus sequence; collect outputs.

        Equivalent to calling :meth:`step` per vector, and the same
        per-cycle work: the compiled cycle function and the netlist
        layout are bound at construction, so neither path re-enters
        the compile cache.  ``run`` only binds the hot attributes once
        and adds the ``sim.cycles`` counter once per call.
        """
        eval_fn = self._eval
        apply_fn = self._apply_packed_inputs if packed else self._apply_inputs
        load_state = self._load_state
        read_outputs = self.read_outputs
        values = self.values
        d_index = self._dff_d_index
        outputs: List[Dict[str, int]] = []
        cycles = 0
        for vec in stimulus:
            apply_fn(vec, mask)  # type: ignore[arg-type]
            load_state(mask)
            eval_fn(values, mask)
            outputs.append(read_outputs())
            self.state = [values[d_idx] & mask for d_idx in d_index]
            cycles += 1
        self.cycle_count += cycles
        telemetry.add("sim.cycles", cycles)
        return outputs

    def run_planes(
        self,
        stimulus: Iterable[Dict[str, Sequence[int]]],
        mask: int,
        watch: Sequence[str],
    ) -> List[Tuple[List[int], ...]]:
        """Packed-only :meth:`run` that captures raw bit-planes.

        :meth:`read_outputs` collapses every plane to its vector-0 bit,
        which throws away exactly what a multi-plane consumer (the
        packed campaign prefilter) needs.  This variant drives packed
        stimulus with the same hoisted hot loop and records, per cycle,
        the undisturbed plane list of each port named in ``watch`` —
        bit ``k`` of plane ``i`` is output bit ``i`` of stimulus plane
        ``k``.
        """
        watch_indices = [
            [self._net_index[net.name] for net in self.netlist.ports[p].nets]
            for p in watch
        ]
        eval_fn = self._eval
        apply_fn = self._apply_packed_inputs
        load_state = self._load_state
        values = self.values
        d_index = self._dff_d_index
        captured: List[Tuple[List[int], ...]] = []
        cycles = 0
        for vec in stimulus:
            apply_fn(vec, mask)
            load_state(mask)
            eval_fn(values, mask)
            captured.append(
                tuple([values[i] for i in idxs] for idxs in watch_indices)
            )
            self.state = [values[d_idx] & mask for d_idx in d_index]
            cycles += 1
        self.cycle_count += cycles
        telemetry.add("sim.cycles", cycles)
        return captured

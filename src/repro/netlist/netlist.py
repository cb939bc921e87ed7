"""Gate-level netlist data model.

A :class:`Netlist` is the directed cell/wire graph that every Vega phase
operates on: the simulator evaluates it, the STA walks its timing arcs,
the failure-model instrumentation rewrites it, and the BMC encodes it to
CNF.  Nets are scalar (single-bit); module ports group nets into ordered
buses so that ``a[1:0]`` style interfaces survive synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .cells import CellLibrary, CellType


class NetlistError(Exception):
    """Raised for structural problems: double drivers, loops, bad pins."""


@dataclass(eq=False)
class Net:
    """A single-bit wire.

    ``driver`` is ``(instance, pin)`` for cell-driven nets, ``None`` for
    primary inputs and dangling wires.  ``loads`` lists ``(instance,
    pin)`` sinks.
    """

    name: str
    driver: Optional[Tuple["Instance", str]] = None
    loads: List[Tuple["Instance", str]] = field(default_factory=list)
    is_input: bool = False
    is_clock: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name})"


@dataclass(eq=False)
class Instance:
    """One placed cell: a cell type plus pin-to-net connections."""

    name: str
    ctype: CellType
    pins: Dict[str, Net] = field(default_factory=dict)
    # Initial (post-reset) value of the output; meaningful for DFFs only.
    init: int = 0

    @property
    def output_net(self) -> Net:
        return self.pins[self.ctype.output]

    def input_nets(self) -> Tuple[Net, ...]:
        return tuple(self.pins[p] for p in self.ctype.inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.name}:{self.ctype.name})"


@dataclass
class Port:
    """A module-level bus: an ordered list of nets, LSB first."""

    name: str
    nets: List[Net]
    direction: str  # "input" | "output"

    @property
    def width(self) -> int:
        return len(self.nets)

    def bit(self, index: int) -> Net:
        return self.nets[index]


class Netlist:
    """A synthesized module: ports, nets, and cell instances.

    The netlist is synchronous single-clock: every DFF is implicitly
    clocked by the module clock (modelled separately by
    :class:`repro.sta.clocktree.ClockTree` when skew matters).
    """

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self.nets: Dict[str, Net] = {}
        self.instances: Dict[str, Instance] = {}
        self.ports: Dict[str, Port] = {}
        self._uid = 0
        # Structural version counter: bumped by every mutation so that
        # derived caches (levelize order, compiled simulators) can be
        # invalidated without tracking individual edits.
        self._version = 0
        self._topo_cache: Optional[List[Instance]] = None
        self._topo_version = -1
        self._hash_cache: Optional[str] = None
        self._hash_version = -1
        self._validated_version = -1

    @property
    def version(self) -> int:
        """Monotonic counter of structural mutations (for cache keys)."""
        return self._version

    def structural_hash(self) -> str:
        """Content hash of the netlist's structure (hex sha256).

        Unlike :attr:`version` — an in-process identity counter — this
        digest depends only on the netlist's *content* (ports, nets,
        instances, pin wiring, init values, cell timing), so two
        processes that synthesize the same design derive the same key.
        It addresses the artifact cache: any structural edit changes the
        digest and orphans stale cached profiles/delay models.  Memoized
        per structural version.
        """
        if self._hash_cache is not None and self._hash_version == self._version:
            return self._hash_cache
        import hashlib

        h = hashlib.sha256()
        h.update(f"netlist {self.name}\n".encode())
        for port in sorted(self.ports.values(), key=lambda p: p.name):
            nets = ",".join(n.name for n in port.nets)
            h.update(f"port {port.name} {port.direction} [{nets}]\n".encode())
        for inst in sorted(self.instances.values(), key=lambda i: i.name):
            pins = ",".join(
                f"{pin}={net.name}" for pin, net in sorted(inst.pins.items())
            )
            cell = (
                f"{inst.ctype.name}:{inst.ctype.tmin!r}:{inst.ctype.tmax!r}"
            )
            h.update(
                f"inst {inst.name} {cell} init={inst.init} {pins}\n".encode()
            )
        digest = h.hexdigest()
        self._hash_cache = digest
        self._hash_version = self._version
        return digest

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _fresh_name(self, prefix: str) -> str:
        while True:
            self._uid += 1
            name = f"{prefix}{self._uid}"
            if name not in self.nets and name not in self.instances:
                return name

    def add_net(self, name: Optional[str] = None) -> Net:
        if name is None:
            name = self._fresh_name("n")
        if name in self.nets:
            raise NetlistError(f"net {name!r} already exists")
        net = Net(name=name)
        self.nets[name] = net
        self._version += 1
        return net

    def get_net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def add_input_port(self, name: str, width: int = 1) -> Port:
        return self._add_port(name, width, "input")

    def add_output_port(self, name: str, width: int = 1) -> Port:
        return self._add_port(name, width, "output")

    def _add_port(self, name: str, width: int, direction: str) -> Port:
        if name in self.ports:
            raise NetlistError(f"port {name!r} already exists")
        if width < 1:
            raise NetlistError("port width must be >= 1")
        nets = []
        for i in range(width):
            bit_name = name if width == 1 else f"{name}[{i}]"
            net = self.add_net(bit_name)
            net.is_input = direction == "input"
            nets.append(net)
        port = Port(name=name, nets=nets, direction=direction)
        self.ports[name] = port
        return port

    def add_instance(
        self,
        ctype_name: str,
        pins: Dict[str, Net],
        name: Optional[str] = None,
        init: int = 0,
    ) -> Instance:
        """Place one cell and hook up its pins.

        Output pins claim the driver slot of their net; a net with two
        drivers is rejected immediately.
        """
        ctype = self.library[ctype_name]
        if name is None:
            name = self._fresh_name(f"u_{ctype.name.lower()}_")
        if name in self.instances:
            raise NetlistError(f"instance {name!r} already exists")
        expected = set(ctype.inputs) | {ctype.output}
        if set(pins) != expected:
            raise NetlistError(
                f"{ctype.name} needs pins {sorted(expected)}, got {sorted(pins)}"
            )
        inst = Instance(name=name, ctype=ctype, pins=dict(pins), init=init)
        out_net = pins[ctype.output]
        if out_net.driver is not None:
            raise NetlistError(
                f"net {out_net.name!r} already driven by "
                f"{out_net.driver[0].name!r}"
            )
        if out_net.is_input:
            raise NetlistError(f"cannot drive input net {out_net.name!r}")
        out_net.driver = (inst, ctype.output)
        for pin_name in ctype.inputs:
            pins[pin_name].loads.append((inst, pin_name))
        self.instances[name] = inst
        self._version += 1
        return inst

    def remove_instance(self, name: str) -> None:
        inst = self.instances.pop(name)
        out = inst.output_net
        out.driver = None
        for pin_name in inst.ctype.inputs:
            net = inst.pins[pin_name]
            net.loads = [(i, p) for (i, p) in net.loads if i is not inst]
        self._version += 1

    def rewire_input(self, inst: Instance, pin: str, new_net: Net) -> None:
        """Reconnect one input pin of ``inst`` to ``new_net``."""
        if pin not in inst.ctype.inputs:
            raise NetlistError(f"{inst.name} has no input pin {pin!r}")
        old = inst.pins[pin]
        old.loads = [(i, p) for (i, p) in old.loads if not (i is inst and p == pin)]
        inst.pins[pin] = new_net
        new_net.loads.append((inst, pin))
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def input_ports(self) -> List[Port]:
        return [p for p in self.ports.values() if p.direction == "input"]

    def output_ports(self) -> List[Port]:
        return [p for p in self.ports.values() if p.direction == "output"]

    def dffs(self) -> List[Instance]:
        return [i for i in self.instances.values() if i.ctype.is_seq]

    def stats(self) -> Dict[str, int]:
        """Per-cell-type instance counts plus totals, for reporting."""
        counts: Dict[str, int] = {}
        for inst in self.instances.values():
            counts[inst.ctype.name] = counts.get(inst.ctype.name, 0) + 1
        counts["_cells"] = len(self.instances)
        counts["_nets"] = len(self.nets)
        counts["_dffs"] = len(self.dffs())
        return counts

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistError`.

        * every combinational input is driven (by a cell or a port),
        * every output port bit is driven,
        * the combinational core is acyclic.

        A successful validation is memoized per structural version, so
        constructing many simulators over the same (unmutated) netlist
        pays the structural walk once.
        """
        if self._validated_version == self._version:
            return
        for inst in self.instances.values():
            for pin_name in inst.ctype.inputs:
                net = inst.pins[pin_name]
                if net.driver is None and not net.is_input:
                    raise NetlistError(
                        f"net {net.name!r} feeding {inst.name}.{pin_name} "
                        "is undriven"
                    )
        for port in self.output_ports():
            for net in port.nets:
                if net.driver is None and not net.is_input:
                    raise NetlistError(
                        f"output bit {net.name!r} is undriven"
                    )
        self.levelize()  # raises on combinational loops
        self._validated_version = self._version

    def levelize(self) -> List[Instance]:
        """Topologically order combinational instances.

        DFF outputs and primary inputs are sources.  Raises on loops.
        The order is memoized per structural version — the simulator
        compiler, STA, and BMC unroller all call this on hot paths —
        and any mutation invalidates it.  A fresh list is returned each
        call so callers may mutate the netlist while iterating.
        """
        if self._topo_cache is not None and self._topo_version == self._version:
            return list(self._topo_cache)
        order = self._levelize_uncached()
        self._topo_cache = order
        self._topo_version = self._version
        return list(order)

    def _levelize_uncached(self) -> List[Instance]:
        order: List[Instance] = []
        # Remaining unseen combinational fanin count per instance.
        pending: Dict[str, int] = {}
        ready: List[Instance] = []
        for inst in self.instances.values():
            if inst.ctype.is_seq:
                continue
            n = 0
            for net in inst.input_nets():
                if net.driver is not None and not net.driver[0].ctype.is_seq:
                    n += 1
            pending[inst.name] = n
            if n == 0:
                ready.append(inst)
        while ready:
            inst = ready.pop()
            order.append(inst)
            for load_inst, _pin in inst.output_net.loads:
                if load_inst.ctype.is_seq:
                    continue
                pending[load_inst.name] -= 1
                if pending[load_inst.name] == 0:
                    ready.append(load_inst)
        if len(order) != len(pending):
            stuck = [n for n, c in pending.items() if c > 0]
            raise NetlistError(
                f"combinational loop involving {stuck[:5]} (+{len(stuck)} total)"
            )
        return order

    # ------------------------------------------------------------------
    # cones
    # ------------------------------------------------------------------
    def fanout_cone(self, start: Net) -> Set[Instance]:
        """All instances transitively reachable from ``start``.

        The walk crosses DFFs (their Q continues the cone), matching the
        shadow-replica construction of §3.3.2 which copies *all* cells
        that the violated endpoint can influence.
        """
        seen: Set[str] = set()
        cone: Set[Instance] = set()
        frontier: List[Net] = [start]
        seen_nets: Set[str] = {start.name}
        while frontier:
            net = frontier.pop()
            for inst, _pin in net.loads:
                if inst.name in seen:
                    continue
                seen.add(inst.name)
                cone.add(inst)
                out = inst.output_net
                if out.name not in seen_nets:
                    seen_nets.add(out.name)
                    frontier.append(out)
        return cone

    def fanin_cone(self, start: Net, stop_at_dff: bool = True) -> Set[Instance]:
        """All instances transitively driving ``start``."""
        cone: Set[Instance] = set()
        frontier: List[Net] = [start]
        seen_nets: Set[str] = {start.name}
        while frontier:
            net = frontier.pop()
            if net.driver is None:
                continue
            inst = net.driver[0]
            if inst in cone:
                continue
            cone.add(inst)
            if stop_at_dff and inst.ctype.is_seq:
                continue
            for in_net in inst.input_nets():
                if in_net.name not in seen_nets:
                    seen_nets.add(in_net.name)
                    frontier.append(in_net)
        return cone

    # ------------------------------------------------------------------
    # cloning
    # ------------------------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "Netlist":
        """Deep-copy the netlist (fresh Net/Instance objects)."""
        out = Netlist(name or self.name, self.library)
        out._uid = self._uid
        for net in self.nets.values():
            copy = out.add_net(net.name)
            copy.is_input = net.is_input
            copy.is_clock = net.is_clock
        for port in self.ports.values():
            out.ports[port.name] = Port(
                name=port.name,
                nets=[out.nets[n.name] for n in port.nets],
                direction=port.direction,
            )
        for inst in self.instances.values():
            out.add_instance(
                inst.ctype.name,
                {p: out.nets[n.name] for p, n in inst.pins.items()},
                name=inst.name,
                init=inst.init,
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name}: {len(self.instances)} cells, "
            f"{len(self.nets)} nets)"
        )

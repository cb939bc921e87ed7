"""Failure-model instrumentation of netlists (§3.3.2).

Two modes, exactly as the paper describes:

* :func:`make_failing_netlist` rewires the *real* capture flop through
  the failure model, producing a standalone "failing netlist" — a
  circuit-level failure model usable in simulation (our Table 6/7
  co-simulation) or exportable as Verilog for external tools.
  :func:`shared_failing_netlist` memoizes it per process, so every
  campaign and scheduled run over one golden netlist simulates the
  same instrumented object (and its compiled simulator layout).

* :func:`instrument_for_cover` leaves the original circuit untouched
  and instead builds a *shadow replica* of everything the capture flop
  can influence, feeds the replica's copy of the flop from the failure
  model, and returns the original/shadow output pairs whose mismatch is
  the ``cover property`` the BMC must reach.

* :func:`make_failing_netlist_multi` attaches *many* failure models to
  one clone, each behind a per-model 1-bit select port — the packed
  campaign drives each select with a constant bit-plane mask, so one
  packed gate-sim pass evaluates every model on its own plane.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import telemetry
from ..netlist.netlist import Instance, Net, Netlist
from .models import CMode, EdgeQualifier, FailureModel, ViolationKind

#: Name of the extra input port carrying a free-running wrong value in
#: CMode.RANDOM failing netlists.
RANDOM_C_PORT = "fm_c"


class InstrumentationError(Exception):
    """Raised when a model cannot be attached to the given netlist."""


def _c_net(netlist: Netlist, model: FailureModel) -> Net:
    """The net carrying the wrong value C."""
    if model.c_mode is CMode.RANDOM:
        if RANDOM_C_PORT in netlist.ports:
            return netlist.ports[RANDOM_C_PORT].bit(0)
        return netlist.add_input_port(RANDOM_C_PORT).bit(0)
    net = netlist.add_net(f"fm_c_{model.label}")
    tie = "TIE1" if model.c_mode is CMode.ONE else "TIE0"
    netlist.add_instance(tie, {"Y": net}, name=f"fm_tie_{model.label}")
    return net


def _build_trigger(
    netlist: Netlist, model: FailureModel, x: Instance
) -> Net:
    """Net that is 1 in cycles where the violation corrupts Y.

    Setup: compares X(t) with X(t-1) via a history flop.  Hold:
    compares X(t) with X(t+1), i.e. X's current D input (§3.3.2 and
    Figure 6: "X(t+1) is derived from the input of X").
    """
    label = model.label
    x_q = x.output_net
    if model.kind is ViolationKind.SETUP:
        hist_q = netlist.add_net(f"fm_hist_{label}")
        netlist.add_instance(
            "DFF", {"D": x_q, "Q": hist_q}, name=f"fm_histdff_{label}",
            init=x.init,
        )
        previous = hist_q
        current = x_q
    else:
        previous = x_q          # X(t)
        current = x.pins["D"]   # X(t+1)

    trigger = netlist.add_net(f"fm_trig_{label}")
    if model.edge is EdgeQualifier.ANY:
        # changed = previous XOR current
        netlist.add_instance(
            "XOR2", {"A": previous, "B": current, "Y": trigger},
            name=f"fm_xor_{label}",
        )
    else:
        inv = netlist.add_net(f"fm_inv_{label}")
        if model.edge is EdgeQualifier.RISING:
            # ~previous & current
            netlist.add_instance(
                "INV", {"A": previous, "Y": inv}, name=f"fm_invc_{label}"
            )
            netlist.add_instance(
                "AND2", {"A": inv, "B": current, "Y": trigger},
                name=f"fm_and_{label}",
            )
        else:
            # previous & ~current
            netlist.add_instance(
                "INV", {"A": current, "Y": inv}, name=f"fm_invc_{label}"
            )
            netlist.add_instance(
                "AND2", {"A": previous, "B": inv, "Y": trigger},
                name=f"fm_and_{label}",
            )
    return trigger


def _model_output(
    netlist: Netlist,
    model: FailureModel,
    x: Instance,
    original_d: Net,
) -> Net:
    """Build the failure model and return the corrupted D net for Y."""
    c_net = _c_net(netlist, model)
    if model.is_self_loop:
        # Metastable: Y always samples C (§3.3.1 special case).
        return c_net
    trigger = _build_trigger(netlist, model, x)
    out = netlist.add_net(f"fm_out_{model.label}")
    # MUX2: S=1 selects B.  trigger -> C, else original D.
    netlist.add_instance(
        "MUX2",
        {"A": original_d, "B": c_net, "S": trigger, "Y": out},
        name=f"fm_mux_{model.label}",
    )
    return out


class FailingNetlist:
    """A standalone circuit-level failure model (§3.3.2, output ❹).

    :func:`make_failing_netlist` returns one over a private clone.  The
    lifter's catalogue (:meth:`~repro.lifting.lifter.ErrorLifter.
    failing_netlists`) returns entries that hold only the golden
    netlist and the model: ``netlist`` resolves through
    :func:`shared_failing_netlist` on first read, so a catalogue whose
    callers read only ``model`` instruments nothing.
    """

    def __init__(
        self,
        model: FailureModel,
        golden: Netlist,
        netlist: Optional[Netlist] = None,
    ):
        self.model = model
        self.golden = golden
        self._netlist = netlist

    @property
    def netlist(self) -> Netlist:
        if self._netlist is None:
            self._netlist = shared_failing_netlist(self.golden, self.model)
        return self._netlist

    def to_verilog(self) -> str:
        from ..netlist.verilog import netlist_to_verilog

        return netlist_to_verilog(self.netlist)


def make_failing_netlist(
    netlist: Netlist, model: FailureModel
) -> FailingNetlist:
    """Clone ``netlist`` and wire the capture flop through the model.

    For :class:`CMode.RANDOM`, the clone gains a 1-bit input port
    ``fm_c`` that the simulator drives with a fresh random value each
    cycle.  Every call builds a fresh clone; use
    :func:`shared_failing_netlist` for the process-wide copy.
    """
    clone = netlist.clone(f"{netlist.name}__fail_{model.label}")
    x = _find_dff(clone, model.start)
    y = _find_dff(clone, model.end)
    original_d = y.pins["D"]
    corrupted = _model_output(clone, model, x, original_d)
    clone.rewire_input(y, "D", corrupted)
    clone.validate()
    return FailingNetlist(model, netlist, clone)


#: Instrumented netlists shared per process: golden netlist ->
#: (golden structural version, {failure model: failing netlist}).
#: Keyed by object identity, like ``gatesim._COMPILE_CACHE``: a fresh
#: golden netlist starts empty, and an entry goes when its golden
#: netlist is collected.  Holding the failing netlist also keeps its
#: compiled simulator layout cached.
_FAILING_MEMO: "weakref.WeakKeyDictionary[Netlist, Tuple[int, dict]]" = (
    weakref.WeakKeyDictionary()
)


def shared_failing_netlist(netlist: Netlist, model: FailureModel) -> Netlist:
    """The process-wide failing netlist of ``model`` on ``netlist``.

    Built by :func:`make_failing_netlist` on the first request and
    returned as the same object afterwards, until ``netlist`` mutates
    (its version moves) and the entry is rebuilt.  Every caller shares
    the object, so it is read-only by contract: simulate it, export it,
    never edit it.
    """
    entry = _FAILING_MEMO.get(netlist)
    if entry is None or entry[0] != netlist.version:
        entry = (netlist.version, {})
        _FAILING_MEMO[netlist] = entry
    failing = entry[1].get(model)
    if failing is None:
        telemetry.add("lifting.instrument.misses")
        failing = make_failing_netlist(netlist, model).netlist
        entry[1][model] = failing
    else:
        telemetry.add("lifting.instrument.hits")
    return failing


@dataclass
class PackedFailingNetlist:
    """Many failure models on one clone, one select port per model.

    Each model's corruption mux is gated by ``trigger AND fm_sel_<label>``
    (for metastable self-loops, by the select alone).  Driving select k
    with the constant plane mask ``1 << k`` in a packed simulation makes
    model k corrupt only bit-plane k: every other plane sees the mux as
    identity, so plane k's values are bit-identical to a single-model
    :func:`make_failing_netlist` simulation of that model — including
    across model interactions (a model whose trigger taps a net another
    model rewired reads the rewired mux output, which on its own plane
    equals the original net because the other select bit is 0 there).
    """

    netlist: Netlist
    models: List[FailureModel]
    #: model label -> name of its 1-bit select input port.
    select_ports: Dict[str, str]
    #: shared ``fm_c`` input port name, present iff any model is RANDOM.
    random_port: Optional[str] = None


def make_failing_netlist_multi(
    netlist: Netlist, models: Sequence[FailureModel]
) -> PackedFailingNetlist:
    """Clone ``netlist`` and attach every model behind its select port.

    Models sharing an endpoint chain their muxes in catalogue order;
    because each mux is select-gated the chain is order-independent per
    plane.  All RANDOM-mode models share the single ``fm_c`` port —
    the packed driver separates them by plane, one RNG stream per
    plane, exactly replicating each serial backend's ``fm_c`` draws.
    """
    models = list(models)
    labels = [model.label for model in models]
    if len(set(labels)) != len(labels):
        raise InstrumentationError(
            f"duplicate failure-model labels in packed group: {labels}"
        )
    clone = netlist.clone(f"{netlist.name}__fail_packed_{len(models)}")
    select_ports: Dict[str, str] = {}
    random_port: Optional[str] = None
    for model in models:
        x = _find_dff(clone, model.start)
        y = _find_dff(clone, model.end)
        sel_name = f"fm_sel_{model.label}"
        sel = clone.add_input_port(sel_name).bit(0)
        select_ports[model.label] = sel_name
        c_net = _c_net(clone, model)
        if model.c_mode is CMode.RANDOM:
            random_port = RANDOM_C_PORT
        if model.is_self_loop:
            # Metastable: the single-model netlist hard-wires Y's D to
            # C; here the select alone steers the mux.
            gate = sel
        else:
            trigger = _build_trigger(clone, model, x)
            gate = clone.add_net(f"fm_gate_{model.label}")
            clone.add_instance(
                "AND2",
                {"A": trigger, "B": sel, "Y": gate},
                name=f"fm_gand_{model.label}",
            )
        original_d = y.pins["D"]
        out = clone.add_net(f"fm_out_{model.label}")
        clone.add_instance(
            "MUX2",
            {"A": original_d, "B": c_net, "S": gate, "Y": out},
            name=f"fm_mux_{model.label}",
        )
        clone.rewire_input(y, "D", out)
    clone.validate()
    return PackedFailingNetlist(
        netlist=clone,
        models=models,
        select_ports=select_ports,
        random_port=random_port,
    )


@dataclass
class CoverInstrumentation:
    """Shadow-replica instrumentation ready for the BMC (§3.3.2, ❺).

    ``output_pairs`` lists (original, shadow) net names for every
    output bit the corrupted flop can influence — the support of the
    generated ``cover property``.
    """

    netlist: Netlist
    model: FailureModel
    output_pairs: List[Tuple[str, str]] = field(default_factory=list)
    shadow_suffix: str = "__s"

    def cover_property_text(self) -> str:
        """Human-readable rendering of the SV cover property."""
        terms = " || ".join(
            f"{orig} != {shadow}" for orig, shadow in self.output_pairs
        )
        return f"cover property (@(posedge clk) {terms});"


def instrument_for_cover(
    netlist: Netlist, model: FailureModel, suffix: str = "__s"
) -> CoverInstrumentation:
    """Build the shadow replica + failure model on a clone of ``netlist``.

    The replica copies every cell the capture flop Y can influence
    (including Y itself); shadow cells read original nets at the cone
    boundary.  Y's shadow samples the failure model's output instead of
    the true D, so original and shadow outputs diverge exactly when the
    modelled violation would corrupt an observable output.
    """
    clone = netlist.clone(f"{netlist.name}__cover_{model.label}")
    x = _find_dff(clone, model.start)
    y = _find_dff(clone, model.end)

    cone = clone.fanout_cone(y.output_net)
    cone.add(y)
    cone_names = {inst.name for inst in cone}

    # Shadow nets for every cone instance output.
    shadow_net: Dict[str, Net] = {}
    for inst in cone:
        out_name = inst.output_net.name
        shadow_net[out_name] = clone.add_net(out_name + suffix)

    # Shadow instances: inputs use shadow nets when the driver is in
    # the cone, the original nets otherwise.
    for inst in sorted(cone, key=lambda i: i.name):
        pins: Dict[str, Net] = {}
        for pin_name in inst.ctype.inputs:
            net = inst.pins[pin_name]
            pins[pin_name] = shadow_net.get(net.name, net)
        pins[inst.ctype.output] = shadow_net[inst.output_net.name]
        clone.add_instance(
            inst.ctype.name, pins, name=inst.name + suffix, init=inst.init
        )

    # The failure model drives the shadow Y's D pin.
    original_d = y.pins["D"]
    corrupted = _model_output(clone, model, x, original_d)
    shadow_y = clone.instances[y.name + suffix]
    clone.rewire_input(shadow_y, "D", corrupted)

    # Output pairs: every output-port bit whose driver lies in the cone
    # (the driver's output net *is* the port net, so the shadow map is
    # keyed directly by the port-net name).
    unique_pairs: List[Tuple[str, str]] = []
    for port in netlist.output_ports():
        for net in port.nets:
            clone_net = clone.nets[net.name]
            if clone_net.driver is None:
                continue
            if clone_net.driver[0].name in cone_names:
                unique_pairs.append((net.name, shadow_net[net.name].name))
    if not unique_pairs:
        raise InstrumentationError(
            f"violation endpoint {model.end!r} cannot influence any "
            "module output"
        )
    clone.validate()
    return CoverInstrumentation(
        netlist=clone,
        model=model,
        output_pairs=unique_pairs,
        shadow_suffix=suffix,
    )


def _find_dff(netlist: Netlist, name: str) -> Instance:
    try:
        inst = netlist.instances[name]
    except KeyError:
        raise InstrumentationError(f"no instance named {name!r}") from None
    if not inst.ctype.is_seq:
        raise InstrumentationError(
            f"{name!r} is a {inst.ctype.name}, not a flip-flop"
        )
    return inst

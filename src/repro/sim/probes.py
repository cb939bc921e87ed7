"""Signal-probability (SP) profiling — §3.2.1 of the paper.

Vega attaches a counter to the output port of every cell (Q for DFFs, Y
for gates), driven by a free-running profiling clock, and simulates
representative workloads.  The fraction of samples at logic "1" is the
cell's SP, which feeds the BTI stress model.

Here the counter clock is the simulator's cycle loop: every simulated
cycle samples every cell output, including cycles where the design's
own state does not advance — the software analogue of the paper's
"separate free-running clock".  Packed (bit-parallel) simulation counts
all vectors in a word via popcount.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from ..netlist.netlist import Netlist
from .gatesim import GateSimulator


def net_levels(netlist: Netlist) -> Dict[str, int]:
    """Logic depth of every combinational net.

    Primary inputs and DFF outputs are depth-0 sources; a cell's output
    net sits one past its deepest combinational fanin.  Only nets
    driven by combinational cells appear in the result (sources are
    implicit zeros), mirroring :meth:`Netlist.levelize` ordering.
    """
    levels: Dict[str, int] = {}
    for inst in netlist.levelize():
        depth = 0
        for net in inst.input_nets():
            depth = max(depth, levels.get(net.name, 0))
        levels[inst.output_net.name] = depth + 1
    return levels


@dataclass
class SPProfile:
    """Per-net signal probabilities for one netlist.

    ``sp[name]`` is the fraction of observed samples in which net
    ``name`` held logic "1".  ``samples`` is the total sample count the
    profile aggregates (cycles x packed vectors).

    ``ones`` optionally carries the raw per-net one-counts behind
    ``sp``.  Profiles built by :class:`SPCounter` always have it; with
    counts present, :meth:`merge` is *exact* (integer sums, one final
    division) and therefore associative bit-for-bit — the property the
    parallel profiling engine relies on to make sharded runs
    reproducible for any worker count.
    """

    netlist_name: str
    sp: Dict[str, float] = field(default_factory=dict)
    samples: int = 0
    ones: Optional[Dict[str, int]] = None

    def net_samples(self, name: str) -> int:
        """How many of this profile's samples observed net ``name``.

        Every sampled cycle observes every net of the netlist, so a net
        either appears in ``sp`` (observed ``samples`` times) or was
        never part of this profile's netlist view (0 times).
        """
        return self.samples if name in self.sp else 0

    def merge(self, other: "SPProfile") -> "SPProfile":
        """Sample-weighted merge of two profiles of the same netlist.

        A net present in only one operand is weighted by the sample
        count of the profiles that actually observed it — *not* averaged
        against an implicit SP of 0.0 for the other profile's samples,
        which would silently deflate BTI stress for that net.  When both
        operands carry raw one-counts the merge is exact and
        associative: counts add, and SP is one integer division.
        """
        if other.netlist_name != self.netlist_name:
            raise ValueError("cannot merge profiles of different netlists")
        total = self.samples + other.samples
        if total == 0:
            return SPProfile(
                self.netlist_name,
                dict(self.sp),
                0,
                dict(self.ones) if self.ones is not None else None,
            )
        names = set(self.sp) | set(other.sp)
        if self.ones is not None and other.ones is not None:
            merged_ones: Dict[str, int] = {}
            merged_sp: Dict[str, float] = {}
            for name in names:
                count = self.ones.get(name, 0) + other.ones.get(name, 0)
                observed = self.net_samples(name) + other.net_samples(name)
                merged_ones[name] = count
                merged_sp[name] = count / observed
            return SPProfile(self.netlist_name, merged_sp, total, merged_ones)
        merged = {}
        for name in names:
            w_self = self.net_samples(name)
            w_other = other.net_samples(name)
            a = self.sp.get(name, 0.0) * w_self
            b = other.sp.get(name, 0.0) * w_other
            merged[name] = (a + b) / (w_self + w_other)
        return SPProfile(self.netlist_name, merged, total)

    def to_json(self) -> str:
        payload = {
            "netlist": self.netlist_name,
            "samples": self.samples,
            "sp": self.sp,
        }
        if self.ones is not None:
            payload["ones"] = self.ones
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SPProfile":
        data = json.loads(text)
        ones = data.get("ones")
        return cls(
            netlist_name=data["netlist"],
            sp=dict(data["sp"]),
            samples=int(data["samples"]),
            ones={k: int(v) for k, v in ones.items()} if ones is not None else None,
        )


class SPCounter:
    """Accumulates 1-state counts for every net."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.ones: Dict[str, int] = {name: 0 for name in netlist.nets}
        self.samples = 0

    def sample(self, sim: GateSimulator, mask: int = 1) -> None:
        """Record one cycle's values (all packed vectors at once)."""
        values = sim.values
        for name, index in sim._net_index.items():
            self.ones[name] += (values[index] & mask).bit_count()
        self.samples += mask.bit_count()

    def profile(self) -> SPProfile:
        if self.samples == 0:
            raise ValueError("no samples collected")
        return SPProfile(
            netlist_name=self.netlist.name,
            sp={
                name: ones / self.samples for name, ones in self.ones.items()
            },
            samples=self.samples,
            ones=dict(self.ones),
        )


def profile_stimulus(
    netlist: Netlist,
    stimulus: Iterable[Mapping[str, int]],
    packed: bool = False,
    mask: int = 1,
) -> SPProfile:
    """Simulate ``stimulus`` and return the resulting SP profile.

    In packed mode each stimulus entry maps port names to bit-plane
    lists and ``mask`` selects the active vectors.
    """
    sim = GateSimulator(netlist)
    counter = SPCounter(netlist)
    for vector in stimulus:
        sim.step(dict(vector), mask=mask, packed=packed)
        counter.sample(sim, mask=mask)
    return counter.profile()

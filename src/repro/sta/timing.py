"""Graph-based static timing analysis with setup and hold checks.

This module is the repo's Innovus-timing substitute.  It propagates
earliest/latest arrival times through a levelized netlist, checks every
flip-flop's setup and hold constraints under on-chip-variation derates,
and enumerates the complete set of violating paths (bounded per
endpoint) so that Error Lifting can target each unique start/end pair.

Conventions:

* Launch clock uses the *late* arrival view for setup checks and the
  *early* view for hold checks; capture clock uses the opposite — the
  standard pessimistic pairing.
* Primary inputs launch at t=0 (they are register outputs of the
  enclosing design); primary outputs are unconstrained.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..aging.corners import OperatingCorner, WORST_CORNER
from ..netlist.netlist import Instance, Net, Netlist


@dataclass
class DelayModel:
    """Per-instance aged delays plus per-DFF clock arrivals.

    Attributes:
        delays: instance name -> (tmin, tmax) in ns, *before* corner
            derating (the STA applies the corner).
        clock_early: DFF instance name -> earliest clock arrival (ns).
        clock_late: DFF instance name -> latest clock arrival (ns).
        corner: OCV/PVT corner to analyze at.
    """

    delays: Dict[str, Tuple[float, float]]
    clock_early: Dict[str, float] = field(default_factory=dict)
    clock_late: Dict[str, float] = field(default_factory=dict)
    corner: OperatingCorner = WORST_CORNER

    @classmethod
    def fresh(
        cls, netlist: Netlist, corner: OperatingCorner = WORST_CORNER
    ) -> "DelayModel":
        """Un-aged delays straight from the cell library."""
        return cls(
            delays={
                inst.name: (inst.ctype.tmin, inst.ctype.tmax)
                for inst in netlist.instances.values()
            },
            corner=corner,
        )

    def tmax(self, inst: Instance) -> float:
        return self.corner.scale_max_delay(self.delays[inst.name][1])

    def tmin(self, inst: Instance) -> float:
        return self.corner.scale_min_delay(self.delays[inst.name][0])

    def clk_early(self, inst: Instance) -> float:
        return self.clock_early.get(inst.name, 0.0)

    def clk_late(self, inst: Instance) -> float:
        return self.clock_late.get(inst.name, 0.0)


@dataclass
class TimingViolation:
    """One violating signal-propagation path.

    ``start`` and ``end`` are instance names for DFF-to-DFF paths; the
    start may also be a primary-input net name.  ``cells`` lists the
    combinational instances along the path, source to sink.
    """

    kind: str  # "setup" | "hold"
    start: str
    end: str
    cells: Tuple[str, ...]
    arrival: float
    required: float
    start_is_port: bool = False

    @property
    def slack(self) -> float:
        if self.kind == "setup":
            return self.required - self.arrival
        return self.arrival - self.required

    @property
    def endpoint_pair(self) -> Tuple[str, str]:
        return (self.start, self.end)


@dataclass
class StaReport:
    """Aggregate result of one STA run."""

    netlist_name: str
    period_ns: float
    violations: List[TimingViolation] = field(default_factory=list)
    wns_setup_ns: float = float("inf")  # worst (most negative) setup slack
    wns_hold_ns: float = float("inf")
    truncated: bool = False

    def setup_violations(self) -> List[TimingViolation]:
        return [v for v in self.violations if v.kind == "setup"]

    def hold_violations(self) -> List[TimingViolation]:
        return [v for v in self.violations if v.kind == "hold"]

    def unique_endpoint_pairs(self, kind: Optional[str] = None) -> List[Tuple[str, str]]:
        """Distinct (start, end) pairs, preserving worst-first order.

        The paper filters its 11 + 1,366 violating paths down to 6 + 41
        unique pairs this way, generating one test per pair (§5.2.1).
        """
        seen: Set[Tuple[str, str]] = set()
        pairs: List[Tuple[str, str]] = []
        for violation in sorted(self.violations, key=lambda v: v.slack):
            if kind is not None and violation.kind != kind:
                continue
            if violation.start_is_port:
                continue
            pair = violation.endpoint_pair
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
        return pairs

    def representative_violations(self) -> List[TimingViolation]:
        """Worst violation per unique endpoint pair."""
        best: Dict[Tuple[str, str], TimingViolation] = {}
        for violation in self.violations:
            if violation.start_is_port:
                continue
            pair = violation.endpoint_pair
            if pair not in best or violation.slack < best[pair].slack:
                best[pair] = violation
        return sorted(best.values(), key=lambda v: v.slack)


class _Level:
    """One topological level's index arrays for vectorized propagation."""

    __slots__ = ("instances", "out_idx", "in_idx")

    def __init__(self, instances: List[Instance], out_idx, in_idx):
        self.instances = instances
        self.out_idx = out_idx  # (k,) output-net indices
        self.in_idx = in_idx    # (max_fanin, k) input-net indices, padded


class _LevelGraph:
    """Level-grouped numpy layout of a netlist's combinational core.

    Index ``n_nets`` is a sentinel pad slot: the max-arrival array holds
    −inf there and the min-arrival array +inf, so gates with fewer
    inputs than the level's widest gate (and input-less TIE cells) read
    neutral elements through their padded rows.

    The layout depends only on netlist structure, so it is cached per
    (netlist, structural version) and shared by every analyzer — fresh
    and aged STA, every corner.
    """

    def __init__(self, netlist: Netlist):
        self.net_names: List[str] = list(netlist.nets)
        self.net_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)
        }
        self.n_nets = len(self.net_names)
        pad = self.n_nets
        level_of_net: Dict[str, int] = {}
        grouped: Dict[int, List[Instance]] = {}
        for inst in netlist.levelize():
            level = 0
            for net in inst.input_nets():
                level = max(level, level_of_net.get(net.name, 0))
            grouped.setdefault(level, []).append(inst)
            level_of_net[inst.output_net.name] = level + 1
        self.levels: List[_Level] = []
        for level in sorted(grouped):
            instances = grouped[level]
            fanin = max(
                (len(i.ctype.inputs) for i in instances), default=0
            )
            out_idx = np.array(
                [self.net_index[i.output_net.name] for i in instances],
                dtype=np.intp,
            )
            in_idx = np.full((max(fanin, 1), len(instances)), pad, dtype=np.intp)
            for col, inst in enumerate(instances):
                for row, net in enumerate(inst.input_nets()):
                    in_idx[row, col] = self.net_index[net.name]
            self.levels.append(_Level(instances, out_idx, in_idx))


#: Level layouts, keyed by netlist identity + structural version.
_LEVEL_CACHE: "weakref.WeakKeyDictionary[Netlist, Tuple[int, _LevelGraph]]" = (
    weakref.WeakKeyDictionary()
)


def _level_graph(netlist: Netlist) -> _LevelGraph:
    cached = _LEVEL_CACHE.get(netlist)
    if cached is not None and cached[0] == netlist.version:
        return cached[1]
    graph = _LevelGraph(netlist)
    _LEVEL_CACHE[netlist] = (netlist.version, graph)
    return graph


class StaticTimingAnalyzer:
    """Arrival-time propagation and constraint checking for one netlist.

    Arrivals propagate over numpy level vectors.  They are bit-identical
    to a per-gate dict walk in levelized order: the vector path applies
    the same per-instance corner-scaled delays (computed once, not per
    propagation step) and float64 max/add are exact, so downstream
    checks and path sets cannot diverge.
    """

    def __init__(self, netlist: Netlist, delays: DelayModel):
        self.netlist = netlist
        self.delays = delays
        self._arrival_max: Dict[str, float] = {}
        self._arrival_min: Dict[str, float] = {}
        self._propagated = False

    # -- arrival propagation -------------------------------------------
    def _source_arrivals(self, net: Net, late: bool) -> Optional[float]:
        """Arrival at a source net (DFF Q), else None.

        Primary inputs are *unconstrained*: module-level STA without I/O
        constraints does not time port-launched paths, matching the
        paper's focus on internal flop-to-flop paths.
        """
        if net.driver is None:
            return None
        inst = net.driver[0]
        if inst.ctype.is_seq:
            if late:
                return self.delays.clk_late(inst) + self.delays.tmax(inst)
            return self.delays.clk_early(inst) + self.delays.tmin(inst)
        return None

    def propagate(self) -> None:
        """Fill max/min arrival times for every net, level by level.

        Per level: gather input arrivals through padded index arrays,
        reduce max/min down the fanin axis, add the per-instance
        corner-scaled delay vector, and scatter to the output slots.
        The pad slot (index ``n_nets``) stays −inf/+inf, which makes
        narrow gates transparent, and TIE cells too: constants never
        transition, so they must not create timing events.
        """
        graph = _level_graph(self.netlist)
        n = graph.n_nets
        amax = np.full(n + 1, -np.inf)
        amin = np.full(n + 1, np.inf)
        for net in self.netlist.nets.values():
            if net.is_input:
                continue  # already -inf / +inf
            late = self._source_arrivals(net, late=True)
            if late is not None:
                idx = graph.net_index[net.name]
                amax[idx] = late
                amin[idx] = self._source_arrivals(net, late=False)
        # Corner derates applied once per level vector; elementwise
        # float64 ``x * derate / scale`` matches scale_max_delay /
        # scale_min_delay bit-for-bit.
        table = self.delays.delays
        corner = self.delays.corner
        for level in graph.levels:
            base = np.array(
                [table[i.name] for i in level.instances], dtype=np.float64
            )
            tmax = base[:, 1] * corner.late_derate / corner.voltage_scale
            tmin = base[:, 0] * corner.early_derate * corner.voltage_scale
            amax[level.out_idx] = amax[level.in_idx].max(axis=0) + tmax
            amin[level.out_idx] = amin[level.in_idx].min(axis=0) + tmin
        values_max = amax[:n].tolist()
        values_min = amin[:n].tolist()
        self._arrival_max = dict(zip(graph.net_names, values_max))
        self._arrival_min = dict(zip(graph.net_names, values_min))
        self._propagated = True

    def arrival_max(self, net_name: str) -> float:
        if not self._propagated:
            self.propagate()
        return self._arrival_max[net_name]

    def arrival_min(self, net_name: str) -> float:
        if not self._propagated:
            self.propagate()
        return self._arrival_min[net_name]

    def critical_delay(self) -> float:
        """Largest D-pin arrival plus setup: the minimum workable period.

        Ignores clock skew (used to derive a fresh design's target
        frequency the way sign-off would).
        """
        if not self._propagated:
            self.propagate()
        worst = 0.0
        for dff in self.netlist.dffs():
            arrival = self._arrival_max[dff.pins["D"].name]
            worst = max(worst, arrival + dff.ctype.setup)
        return worst

    # -- checking --------------------------------------------------------
    def _slacks(
        self, dff: Instance, period_ns: float
    ) -> Tuple[float, float, float, float]:
        """``(setup_required, setup_slack, hold_required, hold_slack)``."""
        d_net = dff.pins["D"]
        setup_required = period_ns + self.delays.clk_early(dff) - dff.ctype.setup
        hold_required = self.delays.clk_late(dff) + dff.ctype.hold
        return (
            setup_required,
            setup_required - self._arrival_max[d_net.name],
            hold_required,
            self._arrival_min[d_net.name] - hold_required,
        )

    def check(
        self,
        period_ns: float,
        max_paths_per_endpoint: int = 400,
        max_total_paths: int = 20000,
    ) -> StaReport:
        """Run setup and hold checks; enumerate violating paths.

        ``report.truncated`` is set only when a cap actually left a
        violating path out: an endpoint had more than
        ``max_paths_per_endpoint`` violating paths, or the walk stopped
        at ``max_total_paths`` before a flop that still violates.
        """
        if not self._propagated:
            self.propagate()
        import math

        report = StaReport(netlist_name=self.netlist.name, period_ns=period_ns)
        total = 0
        dffs = [
            dff for dff in self.netlist.dffs()
            # constant-fed flops have no transitions to time
            if not math.isinf(self._arrival_max[dff.pins["D"].name])
        ]
        for position, dff in enumerate(dffs):
            d_net = dff.pins["D"]
            setup_required, slack, hold_required, hold_slack = self._slacks(
                dff, period_ns
            )
            report.wns_setup_ns = min(report.wns_setup_ns, slack)
            if slack < 0:
                paths, dropped = self._enumerate(
                    d_net,
                    dff,
                    limit=setup_required,
                    late=True,
                    cap=max_paths_per_endpoint,
                )
                report.truncated = report.truncated or dropped
                report.violations.extend(paths)
                total += len(paths)

            report.wns_hold_ns = min(report.wns_hold_ns, hold_slack)
            if hold_slack < 0:
                paths, dropped = self._enumerate(
                    d_net,
                    dff,
                    limit=hold_required,
                    late=False,
                    cap=max_paths_per_endpoint,
                )
                report.truncated = report.truncated or dropped
                report.violations.extend(paths)
                total += len(paths)
            if total >= max_total_paths:
                # Dropped only if a flop left unchecked still violates
                # (its setup or hold slack is negative).
                report.truncated = report.truncated or any(
                    min(self._slacks(rest, period_ns)[1::2]) < 0
                    for rest in dffs[position + 1:]
                )
                break
        return report

    def _enumerate(
        self,
        d_net: Net,
        capture: Instance,
        limit: float,
        late: bool,
        cap: int,
    ) -> Tuple[List[TimingViolation], bool]:
        """Source-to-endpoint paths violating ``limit``, at most ``cap``.

        For setup (late=True) a path violates when its late arrival
        exceeds ``limit``; for hold (late=False) when its early arrival
        falls below ``limit``.  Pruning uses the per-net arrival bounds,
        so the walk only explores prefixes that can still violate.
        Returns at most ``cap`` paths and whether a violating path was
        left out, found by enumerating ``cap + 1``.
        """
        arrivals = self._arrival_max if late else self._arrival_min
        results: List[TimingViolation] = []

        def violates(total: float) -> bool:
            return total > limit if late else total < limit

        def walk(net: Net, suffix: float, cells: Tuple[str, ...]) -> None:
            if len(results) > cap:
                return
            bound = arrivals[net.name] + suffix
            if not violates(bound):
                return
            if net.driver is None:
                return  # unconstrained primary input
            inst = net.driver[0]
            if inst.ctype.is_seq:
                launch = self._source_arrivals(net, late)
                results.append(
                    TimingViolation(
                        kind="setup" if late else "hold",
                        start=inst.name,
                        end=capture.name,
                        cells=cells,
                        arrival=launch + suffix,
                        required=limit,
                    )
                )
                return
            delay = self.delays.tmax(inst) if late else self.delays.tmin(inst)
            for in_net in inst.input_nets():
                walk(in_net, suffix + delay, (inst.name,) + cells)

        walk(d_net, 0.0, ())
        return results[:cap], len(results) > cap

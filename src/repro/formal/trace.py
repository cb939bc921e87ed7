"""Counterexample/witness traces produced by the bounded model checker.

A trace is the cycle-accurate, module-level input sequence the paper's
§3.3.3 step produces (Table 2 shows one for the example adder): per
cycle, a value for every input port, plus observed values for any nets
of interest.  Traces render as text tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Trace:
    """A bounded witness: ``inputs[t][port]`` is the port value at cycle t."""

    netlist_name: str
    inputs: List[Dict[str, int]] = field(default_factory=list)
    observed: List[Dict[str, int]] = field(default_factory=list)
    property_cycle: int = -1
    # Original-output nets that differ from their shadow at the
    # property cycle (filled by the lifter for cover witnesses).
    mismatch_nets: List[str] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.inputs)

    def port_values(self, port: str) -> List[int]:
        return [frame.get(port, 0) for frame in self.inputs]

    def to_table(self) -> str:
        """Render like the paper's Table 2 (cycles as columns)."""
        ports = sorted({k for frame in self.inputs for k in frame})
        nets = sorted({k for frame in self.observed for k in frame})
        header = ["Cycle"] + [str(t + 1) for t in range(self.depth)]
        rows = [header]
        for port in ports:
            rows.append(
                [port]
                + [format(frame.get(port, 0), "b") for frame in self.inputs]
            )
        for net in nets:
            rows.append(
                [net]
                + [str(frame.get(net, "-")) for frame in self.observed]
            )
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(header))
        ]
        lines = [
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        return "\n".join(lines)

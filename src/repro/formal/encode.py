"""Tseitin encoding of gate-level netlists into CNF.

Each cell type contributes the standard equivalence clauses relating its
output variable to its input variables.  The encoder works per-cycle for
the bounded model checker, which aliases DFF outputs across time frames.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..netlist.netlist import Instance
from .sat import SatSolver


class EncodingError(Exception):
    """Raised when a cell type has no CNF model."""


def encode_instance(
    solver: SatSolver,
    inst: Instance,
    var_of: Dict[str, int],
) -> None:
    """Add the clauses defining ``inst``'s output from its inputs.

    ``var_of`` maps net names (of the current time frame) to solver
    variables; the output variable must already be allocated.
    """
    name = inst.ctype.name
    if inst.ctype.is_seq:
        raise EncodingError(
            "DFFs are handled by the unroller (frame aliasing), not by "
            "per-frame encoding"
        )
    y = var_of[inst.output_net.name]
    ins = [var_of[n.name] for n in inst.input_nets()]

    if name in ("BUF", "CLKBUF"):
        a = ins[0]
        solver.add_clause([-a, y])
        solver.add_clause([a, -y])
    elif name == "INV":
        a = ins[0]
        solver.add_clause([a, y])
        solver.add_clause([-a, -y])
    elif name == "AND2":
        a, b = ins
        solver.add_clause([-y, a])
        solver.add_clause([-y, b])
        solver.add_clause([y, -a, -b])
    elif name == "AND3":
        a, b, c = ins
        solver.add_clause([-y, a])
        solver.add_clause([-y, b])
        solver.add_clause([-y, c])
        solver.add_clause([y, -a, -b, -c])
    elif name == "OR2":
        a, b = ins
        solver.add_clause([y, -a])
        solver.add_clause([y, -b])
        solver.add_clause([-y, a, b])
    elif name == "NAND2":
        a, b = ins
        solver.add_clause([y, a])
        solver.add_clause([y, b])
        solver.add_clause([-y, -a, -b])
    elif name == "NOR2":
        a, b = ins
        solver.add_clause([-y, -a])
        solver.add_clause([-y, -b])
        solver.add_clause([y, a, b])
    elif name == "XOR2":
        a, b = ins
        solver.add_clause([-y, a, b])
        solver.add_clause([-y, -a, -b])
        solver.add_clause([y, -a, b])
        solver.add_clause([y, a, -b])
    elif name == "XNOR2":
        a, b = ins
        solver.add_clause([y, a, b])
        solver.add_clause([y, -a, -b])
        solver.add_clause([-y, -a, b])
        solver.add_clause([-y, a, -b])
    elif name == "MUX2":
        a, b, s = ins
        solver.add_clause([-s, -b, y])
        solver.add_clause([-s, b, -y])
        solver.add_clause([s, -a, y])
        solver.add_clause([s, a, -y])
        # Redundant but propagation-strengthening clauses.
        solver.add_clause([-a, -b, y])
        solver.add_clause([a, b, -y])
    elif name == "TIE0":
        solver.add_clause([-y])
    elif name == "TIE1":
        solver.add_clause([y])
    else:
        raise EncodingError(f"no CNF model for cell type {name!r}")


def encode_xor_var(solver: SatSolver, a: int, b: int) -> int:
    """Allocate and return d with d <-> (a xor b)."""
    d = solver.new_var()
    solver.add_clause([-d, a, b])
    solver.add_clause([-d, -a, -b])
    solver.add_clause([d, -a, b])
    solver.add_clause([d, a, -b])
    return d


def encode_in_set(
    solver: SatSolver, bit_vars: Sequence[int], allowed: Sequence[int]
) -> None:
    """Constrain a bit vector to one of ``allowed`` values.

    This is the CNF backing for ``assume property`` restrictions such
    as "the ALU opcode is a valid operation" (§3.3.3).  Encoded with
    one selector variable per allowed value.
    """
    width = len(bit_vars)
    allowed = sorted(set(v & ((1 << width) - 1) for v in allowed))
    if not allowed:
        raise ValueError("allowed set must not be empty")
    if len(allowed) == 1 << width:
        return  # unconstrained
    selectors = []
    for value in allowed:
        sel = solver.new_var()
        selectors.append(sel)
        for i, var in enumerate(bit_vars):
            lit = var if (value >> i) & 1 else -var
            solver.add_clause([-sel, lit])
    solver.add_clause(selectors)
    # Conversely, matching a value forces its selector (keeps models
    # honest for trace extraction; one direction suffices logically).
    for sel, value in zip(selectors, allowed):
        mismatch = [
            (-var if (value >> i) & 1 else var)
            for i, var in enumerate(bit_vars)
        ]
        solver.add_clause([sel] + mismatch)

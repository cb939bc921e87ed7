"""Tseitin encoding of gate-level netlists into CNF.

Each cell type contributes the standard equivalence clauses relating its
output variable to its input variables.  :data:`CELL_CLAUSES` holds them
once, over pin positions.  :func:`encode_instance` instantiates them on
a live solver; :func:`slot_encoder` turns them into the generated
function the bounded model checker compiles its per-frame clause
template with (:mod:`repro.formal.bmc`), where DFF outputs alias across
time frames.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from ..netlist.netlist import Instance
from .sat import SatSolver


class EncodingError(Exception):
    """Raised when a cell type has no CNF model."""


# Pin positions: the output, then the inputs in ``CellType.inputs``
# order.  A pattern literal is a signed position, 1-based.
Y, A, B, C = 1, 2, 3, 4
S = C  # MUX2's select is its third input

#: Tseitin clauses per combinational cell type.  The clause order and
#: the literal order inside each clause are part of the encoding: the
#: solver's watches and its VSIDS ties follow them.
CELL_CLAUSES: Dict[str, Tuple[Tuple[int, ...], ...]] = {
    "BUF": ((-A, Y), (A, -Y)),
    "CLKBUF": ((-A, Y), (A, -Y)),
    "INV": ((A, Y), (-A, -Y)),
    "AND2": ((-Y, A), (-Y, B), (Y, -A, -B)),
    "AND3": ((-Y, A), (-Y, B), (-Y, C), (Y, -A, -B, -C)),
    "OR2": ((Y, -A), (Y, -B), (-Y, A, B)),
    "NAND2": ((Y, A), (Y, B), (-Y, -A, -B)),
    "NOR2": ((-Y, -A), (-Y, -B), (Y, A, B)),
    "XOR2": ((-Y, A, B), (-Y, -A, -B), (Y, -A, B), (Y, A, -B)),
    "XNOR2": ((Y, A, B), (Y, -A, -B), (-Y, -A, B), (-Y, A, -B)),
    "MUX2": (
        (-S, -B, Y),
        (-S, B, -Y),
        (S, -A, Y),
        (S, A, -Y),
        # Redundant but propagation-strengthening clauses.
        (-A, -B, Y),
        (A, B, -Y),
    ),
    "TIE0": ((-Y,),),
    "TIE1": ((Y,),),
}


def cell_clauses(inst: Instance) -> Tuple[Tuple[int, ...], ...]:
    """``inst``'s Tseitin pattern from :data:`CELL_CLAUSES`."""
    if inst.ctype.is_seq:
        raise EncodingError(
            "DFFs are handled by the unroller (frame aliasing), not by "
            "per-frame encoding"
        )
    clauses = CELL_CLAUSES.get(inst.ctype.name)
    if clauses is None:
        raise EncodingError(f"no CNF model for cell type {inst.ctype.name!r}")
    return clauses


SlotClauses = Tuple[Tuple[int, ...], ...]

_SLOT_ENCODERS: Dict[str, Callable[..., SlotClauses]] = {}


def slot_encoder(inst: Instance) -> Callable[..., SlotClauses]:
    """A function from ``inst``'s pin slots to its clauses over slots.

    It takes the output slot, then the input slots, and returns the
    :data:`CELL_CLAUSES` pattern with each literal as the slot literal
    ``2 * slot + negated``.  Like the gate simulator's cycle function,
    it is generated source, ``exec``'d once per cell type: the bounded
    model checker's template compiler calls it once per cell, and the
    straight-line form takes about half the time of mapping the
    pattern through a lookup list.
    """
    patterns = cell_clauses(inst)
    name = inst.ctype.name
    encoder = _SLOT_ENCODERS.get(name)
    if encoder is None:
        pins = 1 + len(inst.ctype.inputs)
        lines = [f"def encode({', '.join(f'p{i}' for i in range(pins))}):"]
        lines.extend(f"    d{i} = p{i} << 1" for i in range(pins))
        clauses = ", ".join(
            "("
            + ", ".join(
                f"d{abs(l) - 1} | 1" if l < 0 else f"d{l - 1}" for l in pattern
            )
            + ",)"
            for pattern in patterns
        )
        lines.append(f"    return ({clauses},)")
        namespace: Dict[str, Callable[..., SlotClauses]] = {}
        exec(compile("\n".join(lines), f"<encode:{name}>", "exec"), namespace)
        encoder = _SLOT_ENCODERS[name] = namespace["encode"]
    return encoder


def encode_instance(
    solver: SatSolver,
    inst: Instance,
    var_of: Dict[str, int],
) -> None:
    """Add the clauses defining ``inst``'s output from its inputs.

    ``var_of`` maps net names (of the current time frame) to solver
    variables; the output variable must already be allocated.
    """
    clauses = cell_clauses(inst)
    pins = [var_of[inst.output_net.name]]
    pins.extend(var_of[n.name] for n in inst.input_nets())
    for pattern in clauses:
        solver.add_clause(
            [pins[l - 1] if l > 0 else -pins[-l - 1] for l in pattern]
        )


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

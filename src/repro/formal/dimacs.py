"""DIMACS CNF interchange for the SAT solver.

The standard text format lets our CNF instances be cross-checked with
external solvers (minisat/kissat) and lets standard benchmark instances
exercise our CDCL engine.  ``p cnf <vars> <clauses>`` header, clauses as
zero-terminated literal lists, ``c`` comments.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .sat import SatSolver


class DimacsError(Exception):
    """Raised on malformed DIMACS input."""


def parse_dimacs(text: str) -> Tuple[int, List[List[int]]]:
    """Parse DIMACS CNF text; returns (num_vars, clauses)."""
    num_vars: Optional[int] = None
    clauses: List[List[int]] = []
    current: List[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"bad problem line {line!r}")
            num_vars = int(parts[2])
            int(parts[3])  # the clause count must parse; it is not enforced
            continue
        if num_vars is None:
            raise DimacsError("clause before problem line")
        for token in line.split():
            literal = int(token)
            if literal == 0:
                clauses.append(current)
                current = []
            else:
                if abs(literal) > num_vars:
                    raise DimacsError(
                        f"literal {literal} exceeds declared {num_vars} vars"
                    )
                current.append(literal)
    if current:
        clauses.append(current)  # tolerate a missing trailing 0
    if num_vars is None:
        raise DimacsError("missing problem line")
    return num_vars, clauses


def solver_from_dimacs(text: str) -> SatSolver:
    """Build a ready-to-solve :class:`SatSolver` from DIMACS text."""
    num_vars, clauses = parse_dimacs(text)
    solver = SatSolver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def to_dimacs(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    comment: str = "generated by repro.formal",
) -> str:
    """Serialize clauses as DIMACS CNF text."""
    lines = [f"c {comment}", f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

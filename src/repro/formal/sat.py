"""A CDCL SAT solver (conflict-driven clause learning).

The paper drives JasperGold to find traces covering its failure models.
With no SMT/SAT package available offline, this module implements the
solver itself: two-watched-literal propagation, 1UIP conflict analysis
with clause learning and non-chronological backjumping, EVSIDS-style
decision activity with phase saving, geometric restarts, and learned-
clause garbage collection.

A configurable conflict budget turns "too hard" into an explicit
``UNKNOWN`` result — which the Vega workflow reports as the paper's
"FF" (formal-tool timeout) outcome in Table 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from ..core import telemetry


class SatStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatResult:
    """Outcome of a solve call; ``model[var] -> bool`` when SAT."""

    status: SatStatus
    model: Dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    def __bool__(self) -> bool:
        return self.status is SatStatus.SAT


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class SatSolver:
    """CDCL solver over DIMACS-style signed integer literals.

    Variables are positive integers; literal ``-v`` is the negation of
    ``v``.  Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        result = solver.solve()
        assert result and result.model[b]
    """

    def __init__(self):
        self._nvars = 0
        # Internal literal encoding: 2v for +v, 2v+1 for -v.
        self._watches: List[List[_Clause]] = [[], []]
        self._val: List[int] = [-1]  # -1 unassigned / 0 false / 1 true
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        # Max-heap of unassigned variables ordered by activity, with a
        # position index so bumps can sift in place (MiniSat's order
        # heap).  Keeps _decide O(log n) instead of scanning all vars —
        # essential for incremental solving, where variables accumulate
        # across BMC frames.
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        self._phase: List[int] = [0]
        # Conflict analysis marks; every mark is cleared before
        # _analyze returns, so one array serves every conflict.
        self._seen: List[bool] = [False]
        self._trail: List[int] = []  # internal lits, assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._unsat = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        # Lifetime count of learned clauses (units included) — unlike
        # len(self._learned), never shrunk by _reduce_db.
        self.learned_total = 0
        # Optional DRAT proof log: learned clauses in order, for
        # external checking of UNSAT results (drat-trim compatible).
        self.proof_logging = False
        self._proof: List[List[int]] = []

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self._nvars += 1
        self._val.append(-1)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._heap_pos.append(-1)
        self._phase.append(0)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        self._heap_insert(self._nvars)
        return self._nvars

    def new_vars(self, count: int) -> int:
        """Allocate ``count`` consecutive variables; returns the first.

        The same state as ``count`` calls of :meth:`new_var`: a fresh
        variable has activity 0 and the highest index, so
        :meth:`_heap_insert` would leave it where appending puts it.
        """
        first = self._nvars + 1
        self._nvars += count
        self._val.extend([-1] * count)
        self._level.extend([0] * count)
        self._reason.extend([None] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend([0] * count)
        self._seen.extend([False] * count)
        self._watches.extend([[] for _ in range(2 * count)])
        heap = self._heap
        self._heap_pos.extend(range(len(heap), len(heap) + count))
        heap.extend(range(first, first + count))
        return first

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause of signed literals; duplicates and tautologies
        are simplified away.

        Clauses may also be added *between* :meth:`solve` calls — the
        incremental BMC grows the CNF one frame at a time.  Literals
        already falsified at the root level are dropped and clauses
        already satisfied at the root level are skipped, which keeps the
        two-watched-literal invariant intact across solves.  Adding
        clauses while a search is suspended mid-decision is still
        unsupported (``solve`` always returns at decision level 0).
        """
        seen: Dict[int, int] = {}
        out: List[int] = []
        for lit in lits:
            var = abs(lit)
            if var == 0 or var > self._nvars:
                raise ValueError(f"unknown variable in literal {lit}")
            internal = (var << 1) | (lit < 0)
            prior = seen.get(var)
            if prior is None:
                seen[var] = internal
                out.append(internal)
            elif prior != internal:
                return  # tautology: v and -v in the same clause
        self._add_internal(out)

    def add_clauses(
        self, clauses: Sequence[Sequence[int]], table: Sequence[int]
    ) -> None:
        """Add clauses over slots: :meth:`add_clause` in bulk.

        A clause holds *slot literals* ``2 * slot + negated``; ``table``
        maps each slot to a solver variable.  The clauses are added in
        order with :meth:`add_clause`'s root-level simplification,
        unit handling and watches.  The caller guarantees what
        :meth:`add_clause` would otherwise establish per clause: under
        ``table`` no clause repeats a variable or holds both of its
        signs.  In place of the per-literal unknown-variable check,
        ``table`` is range-checked once.
        """
        if table and (min(table) < 1 or max(table) > self._nvars):
            raise ValueError("slot table names an unknown variable")
        lit_of = [0] * (2 * len(table))
        lit_of[0::2] = [var << 1 for var in table]
        lit_of[1::2] = [(var << 1) | 1 for var in table]
        internal = lit_of.__getitem__
        val, watches, store = self._val, self._watches, self._clauses
        for clause in clauses:
            out = list(map(internal, clause))
            for lit in out:
                if val[lit >> 1] >= 0:
                    self._add_internal(out)
                    break
            else:
                # No literal is assigned: nothing to simplify.
                if len(out) > 1:
                    stored = _Clause(out)
                    store.append(stored)
                    watches[out[0]].append(stored)
                    watches[out[1]].append(stored)
                else:
                    self._add_internal(out)

    def _add_internal(self, out: List[int]) -> None:
        """Add a clause of distinct internal literals, no tautology."""
        # Root-level simplification: assignments at level 0 are
        # permanent, so satisfied clauses vanish and false literals drop.
        val, level = self._val, self._level
        simplified: List[int] = []
        for lit in out:
            value = val[lit >> 1]
            if value >= 0 and level[lit >> 1] == 0:
                if value != lit & 1:
                    return  # permanently satisfied
                continue  # permanently false: drop the literal
            simplified.append(lit)
        out = simplified
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            # Unit at the root level.
            lit = out[0]
            current = self._lit_val(lit)
            if current == 0:
                self._unsat = True
            elif current == -1:
                self._enqueue(lit, None)
            return
        clause = _Clause(out)
        self._clauses.append(clause)
        # watches[w] holds the clauses currently watching literal w; the
        # clause is revisited when w becomes false.
        self._watches[out[0]].append(clause)
        self._watches[out[1]].append(clause)

    @property
    def num_vars(self) -> int:
        return self._nvars

    def drat_proof(self) -> str:
        """The learned-clause trail in DRAT format.

        Every CDCL-learned clause is RUP (reverse unit propagation)
        with respect to the formula plus earlier learned clauses, so
        the trail — terminated by the empty clause for UNSAT results —
        is checkable by standard DRAT checkers.  Enable with
        ``solver.proof_logging = True`` before solving.
        """
        lines = [
            " ".join(str(l) for l in clause) + " 0"
            for clause in self._proof
        ]
        lines.append("0")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _lit_val(self, lit: int) -> int:
        value = self._val[lit >> 1]
        if value < 0:
            return -1
        return value ^ (lit & 1)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        var = lit >> 1
        self._val[var] = 1 - (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = self._val[var]
        self._trail.append(lit)

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None.

        The hot loop of the search: state is bound to locals, and
        :meth:`_lit_val` / :meth:`_enqueue` are inlined.  A literal
        ``l`` is false when ``val[l >> 1] == l & 1`` and true when
        ``val[l >> 1] == (l & 1) ^ 1``.
        """
        trail, watches, val = self._trail, self._watches, self._val
        level, reason, phase = self._level, self._reason, self._phase
        depth = len(self._trail_lim)
        qhead = self._qhead
        propagations = 0
        conflict = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            keep: List[_Clause] = []
            index = 0
            count = len(watchers)
            while index < count:
                clause = watchers[index]
                index += 1
                lits = clause.lits
                # Ensure the false literal sits at position 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                first_val = val[first >> 1]
                if first_val == (first & 1) ^ 1:
                    keep.append(clause)
                    continue
                # Search for a new literal to watch.
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if val[lit >> 1] != lit & 1:
                        # lits[k] is not false, so it differs from
                        # false_lit: the append never targets the list
                        # being rebuilt here.
                        lits[1], lits[k] = lit, lits[1]
                        watches[lit].append(clause)
                        break
                else:
                    keep.append(clause)
                    if first_val == first & 1:
                        # Conflict: keep remaining watchers, bail out.
                        keep.extend(watchers[index:count])
                        conflict = clause
                        break
                    propagations += 1
                    var = first >> 1
                    value = (first & 1) ^ 1
                    val[var] = value
                    level[var] = depth
                    reason[var] = clause
                    phase[var] = value
                    trail.append(first)
            watches[false_lit] = keep
            if conflict is not None:
                break
        self._qhead = qhead
        self.propagations += propagations
        return conflict

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        """1UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen, level, trail = self._seen, self._level, self._trail
        counter = 0
        lit = -1
        reason: Optional[_Clause] = conflict
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            assert reason is not None
            self._bump_clause(reason)
            # Skip position 0 (the implied literal) except for the
            # initial conflict clause, where every literal matters.
            start = 1 if lit != -1 else 0
            for clause_lit in reason.lits[start:]:
                var = clause_lit >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(clause_lit)
            # Walk back to the next marked literal on the trail.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            lit = trail[trail_index]
            trail_index -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[var]
        learned[0] = lit ^ 1
        # Current-level marks were cleared on the walk back; the
        # lower-level literals of the learned clause still hold theirs.
        for clause_lit in learned[1:]:
            seen[clause_lit >> 1] = False

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest decision level in the clause.
        max_index = 1
        for i in range(2, len(learned)):
            if level[learned[i] >> 1] > level[learned[max_index] >> 1]:
                max_index = i
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, level[learned[1] >> 1]

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        val, reason, pos = self._val, self._reason, self._heap_pos
        for lit in reversed(self._trail[limit:]):
            var = lit >> 1
            val[var] = -1
            reason[var] = None
            if pos[var] < 0:  # assigned variables stay in the heap lazily
                self._heap_insert(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._heap_pos[var] >= 0:
            self._heap_up(self._heap_pos[var])
        if self._activity[var] > 1e100:
            # Uniform rescale: relative order (and the heap) is preserved.
            for i in range(1, self._nvars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learned:
            return
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    # -- activity order heap -------------------------------------------
    def _heap_insert(self, var: int) -> None:
        if self._heap_pos[var] >= 0:
            return
        self._heap_pos[var] = len(self._heap)
        self._heap.append(var)
        self._heap_up(len(self._heap) - 1)

    def _heap_up(self, index: int) -> None:
        # Ties break toward the lower variable index, matching the
        # linear scan this heap replaced (keeps witnesses stable).
        heap, pos, activity = self._heap, self._heap_pos, self._activity
        var = heap[index]
        key = activity[var]
        while index > 0:
            parent = (index - 1) >> 1
            pvar = heap[parent]
            pkey = activity[pvar]
            if pkey > key or (pkey == key and pvar < var):
                break
            heap[index] = pvar
            pos[pvar] = index
            index = parent
        heap[index] = var
        pos[var] = index

    def _decide(self) -> int:
        """Pop the unassigned variable with the highest activity.

        Assigned variables stay in the heap lazily; pop until an
        unassigned one surfaces (they re-enter on backtrack).  The pop
        sifts the heap's last variable down from the root in place.
        """
        values, heap = self._val, self._heap
        pos, activity = self._heap_pos, self._activity
        while heap:
            top = heap[0]
            pos[top] = -1
            var = heap.pop()
            size = len(heap)
            if size:
                key = activity[var]
                index = 0
                while True:
                    child = 2 * index + 1
                    if child >= size:
                        break
                    cvar = heap[child]
                    ckey = activity[cvar]
                    right = child + 1
                    if right < size:
                        rvar = heap[right]
                        rkey = activity[rvar]
                        if rkey > ckey or (rkey == ckey and rvar < cvar):
                            child, cvar, ckey = right, rvar, rkey
                    if key > ckey or (key == ckey and var < cvar):
                        break
                    heap[index] = cvar
                    pos[cvar] = index
                    index = child
                heap[index] = var
                pos[var] = index
            if values[top] < 0:
                return top
        return 0

    def _reduce_db(self) -> None:
        """Drop the colder half of the learned clauses."""
        self._learned.sort(key=lambda c: c.activity)
        cutoff = len(self._learned) // 2
        removed = set()
        kept: List[_Clause] = []
        for i, clause in enumerate(self._learned):
            # Never drop clauses currently acting as reasons.
            is_reason = any(
                self._reason[lit >> 1] is clause for lit in clause.lits[:1]
            )
            if i < cutoff and not is_reason and len(clause.lits) > 2:
                removed.add(id(clause))
            else:
                kept.append(clause)
        if not removed:
            return
        self._learned = kept
        for lit in range(2, 2 * self._nvars + 2):
            self._watches[lit] = [
                c for c in self._watches[lit] if id(c) not in removed
            ]

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        conflict_limit: Optional[int] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """Search for a model, optionally under ``assumptions``.

        ``assumptions`` are signed literals treated as forced first
        decisions (MiniSat-style): an UNSAT result under assumptions
        does *not* poison the solver — learned clauses, activities, and
        saved phases persist, and the next :meth:`solve` call may use
        different assumptions or follow :meth:`add_clause` extensions.
        ``conflict_limit`` bounds the solver's *cumulative* conflict
        count (``self.conflicts``), matching its lifetime statistics.
        """
        if telemetry.active() is None:
            return self._search(conflict_limit, assumptions)
        base = (
            self.decisions,
            self.propagations,
            self.conflicts,
            self.learned_total,
        )
        t0 = time.perf_counter()
        try:
            return self._search(conflict_limit, assumptions)
        finally:
            telemetry.add("sat.solves")
            telemetry.add("sat.solve_s", time.perf_counter() - t0)
            telemetry.add("sat.decisions", self.decisions - base[0])
            telemetry.add("sat.propagations", self.propagations - base[1])
            telemetry.add("sat.conflicts", self.conflicts - base[2])
            telemetry.add("sat.learned", self.learned_total - base[3])

    def _search(
        self,
        conflict_limit: Optional[int] = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        if self._unsat:
            return SatResult(SatStatus.UNSAT)
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return SatResult(SatStatus.UNSAT)
        assume: List[int] = []
        for lit in assumptions:
            var = abs(lit)
            if var == 0 or var > self._nvars:
                raise ValueError(f"unknown variable in assumption {lit}")
            assume.append((var << 1) | (lit < 0))

        restart_interval = 100.0
        conflicts_until_restart = restart_interval
        max_learned = max(1000, len(self._clauses) // 2)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_until_restart -= 1
                if not self._trail_lim:
                    self._unsat = True
                    return SatResult(
                        SatStatus.UNSAT,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                    )
                learned, back_level = self._analyze(conflict)
                self.learned_total += 1
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    clause = _Clause(learned, learned=True)
                    clause.activity = self._cla_inc
                    self._learned.append(clause)
                    self._watches[learned[0]].append(clause)
                    self._watches[learned[1]].append(clause)
                    self._enqueue(learned[0], clause)
                if self.proof_logging:
                    self._proof.append(
                        [(l >> 1) * (-1 if l & 1 else 1) for l in learned]
                    )
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    self._backtrack(0)
                    return SatResult(
                        SatStatus.UNKNOWN,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                    )
                if len(self._learned) > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.3)
                continue

            if conflicts_until_restart <= 0:
                conflicts_until_restart = restart_interval
                restart_interval *= 1.5
                self._backtrack(0)
                continue

            if len(self._trail_lim) < len(assume):
                # Re-take pending assumptions as forced decisions, one
                # decision level per assumption (dummy levels for
                # assumptions already implied true keep the level <->
                # assumption correspondence intact across backjumps).
                lit = assume[len(self._trail_lim)]
                value = self._lit_val(lit)
                if value == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == 0:
                    # The formula (plus earlier assumptions) implies the
                    # negation: UNSAT under these assumptions only.
                    result = SatResult(
                        SatStatus.UNSAT,
                        conflicts=self.conflicts,
                        decisions=self.decisions,
                        propagations=self.propagations,
                    )
                    self._backtrack(0)
                    return result
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue

            var = self._decide()
            if var == 0:
                model = {
                    v: bool(self._val[v]) for v in range(1, self._nvars + 1)
                }
                result = SatResult(
                    SatStatus.SAT,
                    model=model,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                )
                self._backtrack(0)
                return result
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            # Phase saving: re-try the variable's previous polarity.
            lit = (var << 1) | (0 if self._phase[var] else 1)
            self._enqueue(lit, None)

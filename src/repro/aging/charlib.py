"""Aging-aware timing-library characterization (§3.2.2, Figure 4).

The paper pre-computes, per standard-cell, how signal probability maps
to switching-delay degradation over time — by running SPICE on each cell
of the library.  Because the work depends only on the library (not on
any particular design), it is done once and reused.

Our analytic substitute does exactly that: for every cell type, a grid
of SP values is mapped through the reaction-diffusion model
(:mod:`repro.aging.bti`) and the alpha-power delay law into a delay
multiplier, stored in a lookup table with linear interpolation between
grid points — the same shape as a characterized ``.lib`` table.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..netlist.cells import CellLibrary, CellType
from .bti import BtiParameters, DEFAULT_BTI, cell_delta_vth, delay_factor

_DEFAULT_SP_GRID = tuple(i / 20.0 for i in range(21))


@dataclass
class CellAgingTable:
    """Delay-degradation lookup for one cell type.

    ``sp_grid`` and ``factors`` are parallel: ``factors[i]`` is the
    delay multiplier (>= 1.0) when the cell's output SP is
    ``sp_grid[i]`` for the characterized lifetime.
    """

    cell_name: str
    sp_grid: Tuple[float, ...]
    factors: Tuple[float, ...]

    def factor_at(self, sp: float) -> float:
        """Linearly interpolated delay multiplier at ``sp``."""
        if not 0.0 <= sp <= 1.0:
            raise ValueError(f"SP must be within [0, 1], got {sp}")
        grid = self.sp_grid
        if sp <= grid[0]:
            return self.factors[0]
        if sp >= grid[-1]:
            return self.factors[-1]
        hi = bisect_left(grid, sp)
        lo = hi - 1
        span = grid[hi] - grid[lo]
        weight = (sp - grid[lo]) / span
        return self.factors[lo] * (1 - weight) + self.factors[hi] * weight


@dataclass
class AgingTimingLibrary:
    """Aging-aware timing views of a cell library at one (lifetime, T).

    Use :meth:`characterize` to build; then :meth:`delay_factor` maps a
    (cell type, SP) pair to its aged delay multiplier during
    aging-aware STA.
    """

    library_name: str
    lifetime_years: float
    temperature_c: float
    tables: Dict[str, CellAgingTable] = field(default_factory=dict)

    @classmethod
    def characterize(
        cls,
        library: CellLibrary,
        lifetime_years: float = 10.0,
        temperature_c: float = 105.0,
        sp_grid: Sequence[float] = _DEFAULT_SP_GRID,
        params: BtiParameters = DEFAULT_BTI,
    ) -> "AgingTimingLibrary":
        """Run the per-cell characterization over the SP grid.

        This is the stand-in for the SPICE sweep: the analytic BTI +
        alpha-power pipeline replaces transistor-level simulation while
        keeping the same inputs (cell, SP, lifetime, temperature) and
        the same output (a delay-degradation table).
        """
        out = cls(
            library_name=library.name,
            lifetime_years=lifetime_years,
            temperature_c=temperature_c,
        )
        grid = tuple(sp_grid)
        for cell in library:
            factors = []
            for sp in grid:
                dvth = cell_delta_vth(
                    sp,
                    lifetime_years,
                    temperature_c,
                    stress_state=cell.stress_state,
                    params=params,
                )
                factors.append(
                    delay_factor(dvth, library.vdd, library.vth0, library.alpha)
                )
            out.tables[cell.name] = CellAgingTable(
                cell_name=cell.name, sp_grid=grid, factors=tuple(factors)
            )
        return out

    def delay_factor(self, cell_name: str, sp: float) -> float:
        try:
            table = self.tables[cell_name]
        except KeyError:
            raise KeyError(
                f"cell {cell_name!r} was not characterized in "
                f"{self.library_name!r}"
            ) from None
        return table.factor_at(sp)

    def aged_delays(
        self, cell: CellType, sp: float
    ) -> Tuple[float, float]:
        """(tmin, tmax) of ``cell`` after aging at output SP ``sp``.

        Both bounds scale: BTI slows every transition through the cell,
        which matters for setup (tmax) and *helps* hold (tmin) — hold
        violations in the paper arise from clock-network phase shift,
        not from data paths getting faster.
        """
        factor = self.delay_factor(cell.name, sp)
        return cell.tmin * factor, cell.tmax * factor


def degradation_curve(
    cell: CellType,
    library: CellLibrary,
    sp: float,
    years: Sequence[float],
    temperature_c: float = 105.0,
    params: BtiParameters = DEFAULT_BTI,
) -> List[float]:
    """Percent delay increase of one cell over time at fixed SP.

    This regenerates Figure 4 of the paper (a 28 nm cell's switching
    delay degradation under different SP levels across a 10-year span).
    """
    curve = []
    for year in years:
        dvth = cell_delta_vth(
            sp, year, temperature_c, stress_state=cell.stress_state, params=params
        )
        factor = delay_factor(dvth, library.vdd, library.vth0, library.alpha)
        curve.append((factor - 1.0) * 100.0)
    return curve

"""Certified worst-case integration error bounds over a partition.

For a partition M_1..M_k with per-cell essential ranges [g_j, G_j],
three bounds on |point-set average - integral| hold simultaneously for
every uniform point set (up to null sets of configurations):

- theorem1   = 2 * distance: twice the sup-norm distance from f to the
  span of the cell indicators (plus constants).  The certified
  mechanism: the point-set average of any function in that span is
  exactly its integral, so replacing f by its best approximant l costs
  at most ||f - l||_inf on each side.
- corollary1 = s = max_j (G_j - g_j), the worst single-cell essential
  oscillation.
- corollary2 = sum_j measure_j * (G_j - g_j), the measure-weighted
  oscillation.  Always <= corollary1, and it is exact per cell: the
  cell's node average and the cell's integral share [g_j, G_j] scaled by
  measure_j.

Why the distance equals s / 2 on a partition: the indicator span
restricted to a partition is exactly the piecewise-constant functions
(the constant 1 is itself the sum of the indicators).  The cells are
disjoint, so each cell's constant can be chosen independently, and the
best constant against an essential range [g, G] is the midpoint
(G + g) / 2 with sup-distance (G - g) / 2; no constant does better than
half the oscillation.  Taking the worst cell gives exactly s / 2,
attained by the piecewise constant of the cell midpoints, hence
theorem1 == corollary1 on partitions.  For families of cells that are
not a partition this independence argument fails; the exact
finite-space minimax over an arbitrary family lives in the oracle
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, mul, sub, truediv
from typing import NamedTuple

from .errors import QmcBoundsError
from .funcmodel import FunctionModel
from .spaces import Partition


@dataclass(frozen=True)
class BoundSet:
    """The three bound values and exactness.  On a partition theorem1 is
    corollary1 and the span distance is half of it (see above), so both
    are read from corollary1, not stored."""

    corollary1: float
    corollary2: float
    exact: bool

    @property
    def theorem1(self) -> float:
        return self.corollary1

    @property
    def distance(self) -> float:
        return self.corollary1 / 2.0


class CellTable(NamedTuple):
    """A function's per-cell data over a partition, as columns in cell
    order: the cell's measure, its essential range [lo, hi], and whether
    that range came from an exact oracle.  A named tuple, which is
    cheaper to build than a frozen dataclass for the many small tables
    of the exhaustive verdict."""

    measure: tuple[float, ...]
    lo: list[float]
    hi: list[float]
    exact: list[bool]


_LO, _HI, _EXACT = attrgetter("lo"), attrgetter("hi"), attrgetter("exact")


def cell_table(f: FunctionModel, partition: Partition) -> CellTable:
    """Read every cell's essential range once, one essential_range call
    per cell, once the model is checked against the partition's space."""
    f._require_on(partition.space)
    ranges = [f.essential_range(cell) for cell in partition.cells]
    return CellTable(partition.measures, list(map(_LO, ranges)), list(map(_HI, ranges)),
                     list(map(_EXACT, ranges)))


def bound_set(f: FunctionModel, partition: Partition) -> BoundSet:
    """Compute all three bounds in one pass over the cells.

    corollary2 sums measure_j * oscillation_j in cell-index order with
    compensated summation; exact is True only when every cell range came
    from an exact oracle.
    """
    return _bounds_from_table(cell_table(f, partition))


def _bounds_from_table(table: CellTable) -> BoundSet:
    """bound_set from a cell table's measure, lo, hi and exact columns.

    A range of finite ends can still be wider than the largest double
    (a jump from 1.7e308 to -1.7e308); that raises QmcBoundsError naming
    the cell, since every bound would read inf.
    """
    widths = list(map(sub, table.hi, table.lo))
    s = max(widths)
    if s == math.inf:
        j = widths.index(s)
        raise QmcBoundsError(f"cell {j} has the range [{table.lo[j]!r}, {table.hi[j]!r}], "
                             f"whose width overflows")
    weighted = math.fsum(map(mul, table.measure, widths))
    return BoundSet(corollary1=s, corollary2=weighted, exact=all(table.exact))


def _rounding_margin(magnitude: float, integral: float, roundings: int) -> float:
    """A margin for ``roundings`` roundings of size u(M + |I|), doubled,
    plus as many underflows, with M = ``magnitude`` the largest |value|
    of the function."""
    relative = 2 * roundings * 2.0**-53
    return relative * magnitude + relative * abs(integral) + roundings * 2.0**-1074


def certification_slack(table: CellTable, integral: float, counts) -> float:
    """How far a realized or worst error over point sets with ``counts``
    nodes per cell may exceed a bound, or differ from the closed-form
    worst error, before the certificate counts as broken.

    Each value is within a few roundings of size u(M + |I|) of its exact
    value, with M the largest |g_j| or |G_j| and I the ``integral`` over
    the space: an error of node values (an fsum, a division and a
    subtraction, over table values or point values that are themselves
    within a few roundings) within 3uM + u|I| plus those roundings,
    the closed form and the bounds
    within about 8uM + u|I| (a cell integral, a division, a subtraction
    and a product per cell, then one fsum); twice a margin of k + 4
    roundings covers each pair.  The exact values differ as well: the
    bounds and the closed form weigh cell j by its measure m_j and the
    point set by its node share c_j / N, which the allocation tolerance
    lets differ, and that moves an error by at most
    sum_j |m_j - c_j / N| max(|g_j|, |G_j|).  The slack scales with the
    data and has no absolute floor, so it stays far below the bounds of
    small functions and above the rounding of large ones.
    """
    extremes = list(map(max, map(abs, table.lo), map(abs, table.hi)))
    margin = _rounding_margin(max(extremes), integral, len(extremes) + 4)
    # |m_j - c_j / N| * extreme_j for every cell
    node_shares = map(truediv, counts, repeat(sum(counts)))
    shares = math.fsum(map(mul, map(abs, map(sub, table.measure, node_shares)), extremes))
    return 2 * margin + shares

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

from .funcmodel import FunctionModel
from .spaces import Partition


@dataclass(frozen=True)
class BoundSet:
    """The three bound values, the span distance, and exactness."""

    theorem1: float
    corollary1: float
    corollary2: float
    distance: float
    exact: bool


def bound_set(f: FunctionModel, partition: Partition) -> BoundSet:
    """Compute all three bounds in one pass over the cells.

    corollary2 sums measure_j * oscillation_j in cell-index order with
    compensated summation; exact is True only when every cell range came
    from an exact oracle.
    """
    return _bounds_from_ranges([f.essential_range(cell) for cell in partition.cells],
                               partition)


def _bounds_from_ranges(ranges, partition: Partition) -> BoundSet:
    """bound_set from the cells' essential ranges, in cell order."""
    s = max(r.width for r in ranges)
    weighted = math.fsum(m * r.width for m, r in zip(partition.measures, ranges))
    return BoundSet(
        theorem1=s,
        corollary1=s,
        corollary2=weighted,
        distance=s / 2.0,
        exact=all(r.exact for r in ranges),
    )

"""Point-set averages, realized integration errors, and bound reports.

Averages use math.fsum, which returns the exactly rounded double sum at
any length.  That exceeds the usual compensated-summation requirement
for large node counts and makes the estimate independent of node order
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundSet, _bounds_from_table, cell_table, certification_slack
from .errors import BoundViolationError, NotUniformError
from .funcmodel import FunctionModel
from .pointsets import UniformPointSet, _as_nodes, is_uniform
from .spaces import Partition


@dataclass(frozen=True)
class BoundReport:
    """Realized error of one point set next to its certified bounds."""

    instance_id: str
    n_points: int
    estimate: float
    integral: float
    error: float
    bounds: BoundSet


def qmc_estimate(f: FunctionModel, pointset, *, normal: bool = False) -> float:
    """Equal-weight node average of f.

    ``normal`` is passed on to every ``f.evaluate``: it says that the
    nodes already are in the model's normal form, so none is checked.

    The sum of N values can pass the largest double while their average
    does not; then the average is the fsum of the values each divided
    by N.
    """
    nodes = _as_nodes(pointset)
    if not nodes:
        raise ValueError("cannot average over an empty point set")
    n = len(nodes)
    evaluate = f.evaluate
    values = [evaluate(node, normal) for node in nodes]
    try:
        return math.fsum(values) / n
    except OverflowError:  # intermediate overflow in fsum
        return math.fsum([value / n for value in values])


def bound_report(f: FunctionModel, partition: Partition, pointset,
                 instance_id: str = "") -> BoundReport:
    """Check uniformity, then assemble estimate, error, and bounds.

    When the bounds are exact the realized error must stay within
    corollary2 plus ``bounds.certification_slack``, the slack the
    exhaustive verdict allows, scaled to the data; breaking that
    certification is an internal bug and raises.
    """
    space = partition.space
    # a set built on this space is normal as it is; other input is normalised once
    nodes = _as_nodes(pointset)
    built_on = pointset.normal_on if isinstance(pointset, UniformPointSet) else None
    if not (built_on is space or built_on == space):
        nodes = tuple(map(space.as_point, nodes))
    report = is_uniform(nodes, partition, normal=True)
    if not report:
        detail = "it has no nodes"
        if report.off:
            j = report.off[0]
            detail = (f"cell {j} holds {report.counts[j]} nodes, expected "
                      f"{report.expected[j]!r}; {len(report.off)} of {partition.k} "
                      f"cells are off")
        raise NotUniformError(f"point set is not uniform for the partition: {detail}")
    # one range per cell serves the bounds and the slack alike. The table
    # comes first: it refuses a model that is not a function on the
    # partition's space, so the unchecked estimate reads each node as the
    # space does, the set the uniformity check counted
    table = cell_table(f, partition)
    bounds = _bounds_from_table(table)
    estimate = qmc_estimate(f, nodes, normal=True)
    integral = f.integral(space)
    error = abs(estimate - integral)
    # the slack is never negative, so it is worked out only for an error
    # above the bound itself
    if bounds.exact and error > bounds.corollary2 and error > (
            bounds.corollary2 + certification_slack(table, integral, report.counts)):
        raise BoundViolationError(
            f"realized error {error!r} exceeds the certified bound corollary2 = "
            f"{bounds.corollary2!r}"
        )
    return BoundReport(
        instance_id=instance_id,
        n_points=report.n_points,
        estimate=estimate,
        integral=integral,
        error=error,
        bounds=bounds,
    )

"""Point-set averages, realized integration errors, and bound reports.

Averages use math.fsum, which returns the exactly rounded double sum at
any length.  That exceeds the usual compensated-summation requirement
for large node counts and makes the estimate independent of node order
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundSet, bound_set
from .errors import BoundViolationError, NotUniformError
from .funcmodel import FunctionModel
from .pointsets import _as_nodes, is_uniform
from .spaces import Partition, Space

# Slack granted to certified bounds before declaring a violation.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Realized error of one point set next to its certified bounds."""

    instance_id: str
    n_points: int
    estimate: float
    integral: float
    error: float
    bounds: BoundSet


def qmc_estimate(f: FunctionModel, pointset) -> float:
    """Equal-weight node average of f."""
    nodes = _as_nodes(pointset)
    if not nodes:
        raise ValueError("cannot average over an empty point set")
    return math.fsum(map(f.evaluate, nodes)) / len(nodes)


def integration_error(f: FunctionModel, pointset, space: Space) -> float:
    """|node average - integral| for nodes lying in the space."""
    return abs(qmc_estimate(f, pointset) - f.integral(space))


def bound_report(f: FunctionModel, partition: Partition, pointset,
                 instance_id: str = "") -> BoundReport:
    """Check uniformity, then assemble estimate, error, and bounds.

    When the bounds are exact the realized error must stay within
    corollary2 plus BOUND_SLACK; breaking that certification is an
    internal bug and raises.
    """
    report = is_uniform(pointset, partition)
    if not report:
        detail = "it has no nodes"
        if report.off:
            j = report.off[0]
            detail = (f"cell {j} holds {report.counts[j]} nodes, expected "
                      f"{report.expected[j]!r}; {len(report.off)} of {partition.k} "
                      f"cells are off")
        raise NotUniformError(f"point set is not uniform for the partition: {detail}")
    bounds = bound_set(f, partition)
    estimate = qmc_estimate(f, pointset)
    integral = f.integral(partition.space)
    error = abs(estimate - integral)
    if bounds.exact and error > bounds.corollary2 + BOUND_SLACK:
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

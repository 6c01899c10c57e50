"""A fixed pure-Python kernel that measures the host's current speed.

The 2-core x86-64 host this benchmark was built on changes speed by
20-30% over tens of seconds, with CPU time tracking wall time, so a
pass time alone says as much about the host as about the library.
run.py runs this kernel between passes and reports each pass in reference units: the
pass time divided by the mean of the kernel times just before and just
after it.  Host speed cancels to first order because the kernel does
the same kinds of interpreter work as the library: pairwise box
comparisons and a linear scan of cell objects for the one holding a
point (spaces), exactly rounded sums over generators of indexed
lookups (estimator, oracle) and small method calls doing float
arithmetic on tuples (funcmodel).

The kernel imports nothing from qmcbounds, so no change to the library
can change it.  Do not edit it: results in reference units are only
comparable between runs of the same kernel.
"""

from __future__ import annotations

import math
import time
from itertools import combinations_with_replacement, product

BOXES = 160
SCAN_CELLS = 512
SCAN_POINTS = 64
CONFIG_ATOMS = 4
CONFIG_NODES = 3
CONFIG_CELLS = 3
CALLS = 6_000


def _overlap(a, b) -> bool:
    for alo, ahi, blo, bhi in zip(a[0], a[1], b[0], b[1]):
        if min(ahi, bhi) - max(alo, blo) <= 0.0:
            return False
    return True


def _pairwise_boxes() -> int:
    boxes = [((i / BOXES,), ((i + 1) / BOXES,)) for i in range(BOXES)]
    hits = 0
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            hits += _overlap(a, b)
    return hits


class _Box:
    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper

    def contains(self, point) -> bool:
        for c, lo, hi in zip(point, self.lower, self.upper):
            if c < lo:
                return False
            if c >= hi and not (hi == 1.0 and c == 1.0):
                return False
        return True


def _cell_scan() -> int:
    cells = [_Box((i / SCAN_CELLS,), ((i + 1) / SCAN_CELLS,)) for i in range(SCAN_CELLS)]
    found = 0
    for n in range(SCAN_POINTS):
        point = ((n + 0.5) / SCAN_POINTS,)
        for j, cell in enumerate(cells):
            if cell.contains(point):
                found += j
                break
    return found


def _enumerated_sums() -> float:
    values = [math.sin(i + 1.0) for i in range(CONFIG_ATOMS * CONFIG_CELLS)]
    per_cell = [
        tuple(combinations_with_replacement(range(j * CONFIG_ATOMS, (j + 1) * CONFIG_ATOMS),
                                            CONFIG_NODES))
        for j in range(CONFIG_CELLS)
    ]
    worst = 0.0
    for config in product(*per_cell):
        worst = max(worst, abs(math.fsum(values[a] for cell in config for a in cell)))
    return worst


class _Quadratic:
    def __init__(self, linear, quadratic):
        self.linear = linear
        self.quadratic = quadratic

    def evaluate(self, point) -> float:
        return math.fsum(
            q * x * x + b * x for q, b, x in zip(self.quadratic, self.linear, point)
        )


def _method_calls() -> float:
    f = _Quadratic((0.5, -0.25), (1.0, 2.0))
    return math.fsum(f.evaluate((i / CALLS, 1.0 - i / CALLS)) for i in range(CALLS))


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _pairwise_boxes()
    _cell_scan()
    _enumerated_sums()
    _method_calls()
    return time.perf_counter() - t0

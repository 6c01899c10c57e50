"""Independent oracles the tests check frozen expected values against.

Nothing here imports the code paths under test: ranges come from dense
pointwise sampling, grid-mode ranges from evaluating every point of the
product grid and from the numpy.linspace sampler that the per-axis
sample lists replace, integrals from scipy quadrature, the minimax from a
coefficient grid search, enumeration from brute force over ordered
node tuples, box overlaps and cell lookups (of boxes and of atoms) from
pairwise tests and linear scans, a finite piecewise constant's range
from every piece, and the exhaustive worst error from scoring every
configuration one by one; a finite table's worst error, W and bounds
in exact rational arithmetic, and an affine function's W and bounds on
a product grid too, its ranges from the cell corners and its cell
integrals from centre values, and a separable quadratic's from each
axis's endpoints and inside vertex and each cell's mean, and a piecewise
constant's from its exact overlap with every piece; node counts per cell one cell at a time;
the cube worst error from every
one-node-per-cell placement on a grid; seeded placement from the
one-try-at-a-time loop with its own membership test, and midpoint and
equispaced placement from the cell-by-cell loops; cube point
normalisation from the generic coordinate loop, with the library's
error class only; a uniformity verdict from counting each node by a
scan and testing each cell in turn; cell integrals,
bounds and the closed-form worst error from the one-cell-at-a-time
loops that the list passes replace (a piecewise constant's from a
scan of its pieces), and sine extremes from every
critical point of the cell, and a continuous family's value and exact
range from the closed forms read off its fields on every call; and
uniform sets that no construction of the library makes, the base-2
van der Corput and Hammersley digital nets, from bit reversal.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import integrate

from qmcbounds.errors import OutOfDomainError


def dense_range_1d(fn, a, b, n=20001):
    """Pointwise min/max of fn over a dense closed grid of [a, b]."""
    values = [fn(a + (b - a) * i / (n - 1)) for i in range(n)]
    return min(values), max(values)


def full_grid_range(base, cell, intervals):
    """Grid-mode (lo, hi, eps) of a continuous family over a box cell,
    evaluating the family at every point of the (intervals + 1)^d grid
    in row-major order."""
    axes = [np.linspace(lo, hi, intervals + 1) for lo, hi in zip(cell.lower, cell.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = [base.evaluate(tuple(p)) for p in points]
    spacing = max((hi - lo) / intervals for lo, hi in zip(cell.lower, cell.upper))
    eps = base.lipschitz_bound() * spacing / 2.0
    return min(values), max(values), eps


def linspace_samples(lo, hi, intervals):
    """numpy.linspace's intervals + 1 samples of [lo, hi], as floats."""
    return np.linspace(lo, hi, intervals + 1).tolist()


def linspace_grid_range(base, cell, intervals):
    """Grid-mode (lo, hi, eps) of a continuous family over a box cell, as
    the numpy sampler computed it: each axis's samples from
    numpy.linspace, a separable family's per-axis terms as array
    arithmetic and its extremes from fsum of each axis's min and max
    term, a sine through math.sin at each sample of its axis."""
    axes = [np.linspace(lo, hi, intervals + 1) for lo, hi in zip(cell.lower, cell.upper)]
    if hasattr(base, "axis"):
        w = 2.0 * math.pi * base.frequency
        values = [base.offset + base.amplitude * math.sin(w * t + base.phase)
                  for t in axes[base.axis].tolist()]
        lo, hi = min(values), max(values)
    else:
        if hasattr(base, "slopes"):
            terms = [a * x for a, x in zip(base.slopes, axes)]
        else:
            terms = [q * x * x + b * x for q, b, x in zip(base.quadratic, base.linear, axes)]
        per_axis = [t.tolist() for t in terms]
        lo = base.intercept + math.fsum(min(t) for t in per_axis)
        hi = base.intercept + math.fsum(max(t) for t in per_axis)
    spacing = max((u - l) / intervals for l, u in zip(cell.lower, cell.upper))
    return lo, hi, base.lipschitz_bound() * spacing / 2.0


def quad_integral(fn, a, b):
    value, _ = integrate.quad(fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def brute_minimax_single_cell(values, members, lo=-10.0, hi=10.0, steps=401,
                              rounds=4):
    """Grid search over (constant, cell coefficient) for one-cell families.

    Refines the grid around the best point a few times; good to ~1e-6.
    """
    c0_lo, c0_hi = lo, hi
    c1_lo, c1_hi = lo, hi
    best = None
    for _ in range(rounds):
        best = (math.inf, 0.0, 0.0)
        for i in range(steps):
            c0 = c0_lo + (c0_hi - c0_lo) * i / (steps - 1)
            for j in range(steps):
                c1 = c1_lo + (c1_hi - c1_lo) * j / (steps - 1)
                worst = max(
                    abs(v - (c0 + (c1 if idx in members else 0.0)))
                    for idx, v in enumerate(values)
                )
                if worst < best[0]:
                    best = (worst, c0, c1)
        span0 = (c0_hi - c0_lo) / (steps - 1) * 4
        span1 = (c1_hi - c1_lo) / (steps - 1) * 4
        c0_lo, c0_hi = best[1] - span0, best[1] + span0
        c1_lo, c1_hi = best[2] - span1, best[2] + span1
    return best[0]


def brute_force_uniform_configs(n_atoms, cells, counts):
    """Every uniform configuration, found the slow way.

    Walks all ordered node tuples over the atoms, keeps those whose
    per-cell counts match, and normalizes each to the tuple of sorted
    per-cell multisets.  Returns the set of normalized configurations.
    """
    n_points = sum(counts)
    found = set()
    for nodes in itertools.product(range(n_atoms), repeat=n_points):
        per_cell = [[] for _ in cells]
        ok = True
        for node in nodes:
            for j, cell in enumerate(cells):
                if node in cell:
                    per_cell[j].append(node)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        if all(len(per_cell[j]) == counts[j] for j in range(len(cells))):
            found.add(tuple(tuple(sorted(c)) for c in per_cell))
    return found


def _in_box(point, lower, upper):
    """Half-open box membership, closed on a face at 1."""
    return all(lo <= c and (c < hi or c == hi == 1.0)
               for c, lo, hi in zip(point, lower, upper))


def first_overlapping_pair(boxes):
    """First pair (i, j), i < j, of boxes meeting with positive volume.

    ``boxes`` is a list of (lower, upper) coordinate tuples; None when
    the boxes are pairwise disjoint up to shared faces.
    """
    for i, (alo, ahi) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            blo, bhi = boxes[j]
            if all(min(a1, b1) > max(a0, b0)
                   for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi)):
                return i, j
    return None


def scan_cell_index(boxes, point):
    """Index of the first box containing the point, by a linear scan."""
    for j, (lower, upper) in enumerate(boxes):
        if _in_box(point, lower, upper):
            return j
    return None


def scan_atom_cell(cells, atom):
    """Index of the first cell (a sequence of atom indices) holding the
    atom, by a linear scan."""
    for j, atoms in enumerate(cells):
        if atom in atoms:
            return j
    return None


def all_pieces_range(pieces, values, atoms):
    """(min, max) of the values of every piece (a sequence of atom
    indices) that shares an atom with ``atoms``, testing each piece in
    turn; min() and max() keep the first of equal values."""
    hits = [v for piece, v in zip(pieces, values) if set(piece) & set(atoms)]
    return min(hits), max(hits)


def scan_worst_configuration(stream, space, f, n_points):
    """Worst |average - integral| over a configuration stream, with the
    lexicographically first configuration attaining it, scoring every
    configuration with its own fsum."""
    integral = f.integral(space)
    atom_values = [f.evaluate(i) for i in range(space.n_atoms)]
    worst = -1.0
    argmax = None
    for config in stream:
        total = math.fsum(atom_values[a] for cell in config for a in cell)
        err = abs(total / n_points - integral)
        if err > worst:
            worst = err
            argmax = config
    return worst, argmax


class ExactBounds(NamedTuple):
    closed_form: Fraction
    corollary1: Fraction
    corollary2: Fraction


class ExactFiniteVerdict(NamedTuple):
    worst_error: Fraction
    closed_form: Fraction
    corollary1: Fraction
    corollary2: Fraction


def _exact_bounds(measures, lows, highs, integral) -> ExactBounds:
    """W = max(sum_j m_j G_j - I, I - sum_j m_j g_j, 0), s = max_j (G_j -
    g_j) and sum_j m_j (G_j - g_j), from exact measures m_j, ranges
    [g_j, G_j] and integral I."""
    up = sum(m * g for m, g in zip(measures, highs)) - integral
    down = integral - sum(m * g for m, g in zip(measures, lows))
    return ExactBounds(
        closed_form=max(up, down, Fraction(0)),
        corollary1=max(g - h for g, h in zip(highs, lows)),
        corollary2=sum(m * (g - h) for m, g, h in zip(measures, highs, lows)),
    )


def exact_finite_verdict(weights, cells, counts, values):
    """A finite table's exhaustive worst error, closed-form worst error W
    and bounds s and sum_j m_j (G_j - g_j), exactly, as Fractions of the
    float atom ``weights`` and ``values``: ``cells`` lists each cell's
    atoms and ``counts`` its nodes.

    The worst error is max |S/N - I| over the node sum S of every
    configuration, each S summed exactly (as integers over the largest
    denominator of the values, a power of two that every other divides).
    m_j is the exact sum of cell j's weights, and [g_j, G_j] the least and
    greatest value of its atoms, which all have positive weight.
    """
    w = list(map(Fraction, weights))
    v = list(map(Fraction, values))
    integral = sum(a * b for a, b in zip(w, v))
    scale = max(x.denominator for x in v)
    scaled = [int(x * scale) for x in v]
    sums = [sum(scaled[a] for cell in config for a in cell) for config in
            itertools.product(*map(itertools.combinations_with_replacement, cells, counts))]
    total = scale * sum(counts)
    worst = max(Fraction(max(sums), total) - integral, integral - Fraction(min(sums), total))
    measures = [sum(w[a] for a in cell) for cell in cells]
    lows = [min(v[a] for a in cell) for cell in cells]
    highs = [max(v[a] for a in cell) for cell in cells]
    return ExactFiniteVerdict(worst, *_exact_bounds(measures, lows, highs, integral))


def exact_affine_bounds(intercept, slopes, edges) -> ExactBounds:
    """An affine function's W and bounds on the product grid of the
    per-axis ``edges`` (each list from 0.0 to 1.0), exactly, as Fractions
    of the float ``intercept``, ``slopes`` and edges.

    Each cell's range is the least and greatest value at its corners;
    its integral is its value at the centre times its volume, and the
    integral over the cube is the sum of the cells'.
    """
    c = Fraction(intercept)
    a = list(map(Fraction, slopes))

    def value(point):
        return c + sum(s * x for s, x in zip(a, point))

    spans = [list(zip(map(Fraction, e), map(Fraction, e[1:]))) for e in edges]
    measures, lows, highs, integrals = [], [], [], []
    for box in itertools.product(*spans):
        corners = [value(corner) for corner in itertools.product(*box)]
        measures.append(math.prod(u - l for l, u in box))
        lows.append(min(corners))
        highs.append(max(corners))
        integrals.append(value([(l + u) / 2 for l, u in box]) * measures[-1])
    return _exact_bounds(measures, lows, highs, sum(integrals))


def exact_quadratic_bounds(intercept, linear, quadratic, edges) -> ExactBounds:
    """A separable quadratic's W and bounds on the product grid of the
    per-axis ``edges`` (each list from 0.0 to 1.0), exactly, as Fractions
    of the float coefficients and edges.

    Each axis term q t^2 + b t takes its least and greatest value over
    [l, u] at l, at u, or at the vertex -b / (2q) when it lies inside, and
    a cell's range adds the axes' extremes to the intercept.  Its mean is
    the intercept plus each axis's q (l^2 + l u + u^2) / 3 + b (l + u) / 2,
    and its integral that mean times its volume.
    """
    c = Fraction(intercept)
    axes = list(zip(map(Fraction, quadratic), map(Fraction, linear)))

    def extremes(q, b, l, u):
        ts = [l, u, -b / (2 * q)] if q and l < -b / (2 * q) < u else [l, u]
        values = [q * t * t + b * t for t in ts]
        return min(values), max(values)

    spans = [list(zip(map(Fraction, e), map(Fraction, e[1:]))) for e in edges]
    measures, lows, highs, integrals = [], [], [], []
    for box in itertools.product(*spans):
        ranges = [extremes(q, b, l, u) for (q, b), (l, u) in zip(axes, box)]
        measures.append(math.prod(u - l for l, u in box))
        lows.append(c + sum(lo for lo, _ in ranges))
        highs.append(c + sum(hi for _, hi in ranges))
        mean = c + sum(q * (l * l + l * u + u * u) / 3 + b * (l + u) / 2
                       for (q, b), (l, u) in zip(axes, box))
        integrals.append(mean * measures[-1])
    return _exact_bounds(measures, lows, highs, sum(integrals))


def exact_piecewise_bounds(pieces, values, edges) -> ExactBounds:
    """A piecewise constant's W and bounds on the product grid of the
    per-axis ``edges`` (each list from 0.0 to 1.0), exactly, as Fractions
    of the float piece boxes, ``values`` and edges; ``pieces`` lists each
    piece's (lower, upper) corners.

    A cell's overlap with a piece is the product over the axes of the
    overlap of their intervals, its range the least and greatest value of
    the pieces it overlaps with positive measure, and its integral the sum
    of each value times its overlap.  A cell that overlaps no piece so
    (one inside a gap of the layout) raises OutOfDomainError.
    """
    boxes = [list(zip(map(Fraction, lower), map(Fraction, upper))) for lower, upper in pieces]
    v = list(map(Fraction, values))
    spans = [list(zip(map(Fraction, e), map(Fraction, e[1:]))) for e in edges]
    measures, lows, highs, integrals = [], [], [], []
    for box in itertools.product(*spans):
        overlaps = [math.prod(max(min(pu, u) - max(pl, l), 0) for (pl, pu), (l, u)
                              in zip(piece, box)) for piece in boxes]
        hits = [value for value, m in zip(v, overlaps) if m > 0]
        if not hits:
            raise OutOfDomainError(f"cell {box} meets no piece with positive measure")
        measures.append(math.prod(u - l for l, u in box))
        lows.append(min(hits))
        highs.append(max(hits))
        integrals.append(sum(value * m for value, m in zip(v, overlaps)))
    return _exact_bounds(measures, lows, highs, sum(integrals))


def grid_worst_placement(fn, intervals, points_per_cell):
    """Worst |average - integral| over one-node-per-cell placements on a
    grid, for cells [a, b] that cover [0, 1].

    Each node ranges over ``points_per_cell`` equispaced points of its
    closed cell.  The node sums of all points_per_cell ** k placements
    come from numpy outer additions, and the integral from quadrature.
    Returns the worst error and each cell's grid spacing.
    """
    sums = np.zeros(())
    spacings = []
    for a, b in intervals:
        values = [fn(float(t)) for t in np.linspace(a, b, points_per_cell)]
        sums = np.add.outer(sums, values)
        spacings.append((b - a) / (points_per_cell - 1))
    integral = quad_integral(fn, 0.0, 1.0)
    worst = float(np.max(np.abs(sums / len(intervals) - integral)))
    return worst, spacings


def sequential_seeded_placement(cells, counts, seed, avoid=()):
    """Seeded-random nodes placed one try at a time, the rule spelled out.

    Cell by cell and node by node, each try draws one ``random()`` per
    axis in axis order and takes ``lo + (hi - lo) * r``
    (``random.uniform``); a try outside the cell (half-open, except a
    face at 1.0) or equal to an avoided point is drawn again.
    """
    rng = random.Random(seed)
    avoid = set(avoid)
    nodes = []
    for cell, count in zip(cells, counts):
        spans = list(zip(cell.lower, cell.upper))
        placed = 0
        while placed < count:
            node = tuple(lo + (hi - lo) * rng.random() for lo, hi in spans)
            inside = all(lo <= c < hi or c == hi == 1.0
                         for c, (lo, hi) in zip(node, spans))
            if inside and node not in avoid:
                nodes.append(node)
                placed += 1
    return nodes


def per_cell_placement(cells, counts, strategy):
    """Midpoint (``"cell-midpoint"``) or equispaced nodes placed cell by
    cell, in the loops that the list passes over edge lists replace."""
    nodes = []
    if strategy == "cell-midpoint":
        for cell, count in zip(cells, counts):
            center = tuple([(lo + hi) / 2.0 for lo, hi in zip(cell.lower, cell.upper)])
            nodes.extend([center] * count)
        return nodes
    if strategy == "per-cell-equispaced":
        # nodes at offsets (i - 1/2)/count along every axis of the cell
        for cell, count in zip(cells, counts):
            spans = list(zip(cell.lower, cell.upper))
            for i in range(1, count + 1):
                t = (i - 0.5) / count
                nodes.append(tuple([lo + (hi - lo) * t for lo, hi in spans]))
        return nodes
    raise ValueError(f"no per-cell loop for {strategy!r}")


def per_piece_integral(pieces, values, lower, upper):
    """A piecewise constant's integral over the box [lower, upper): the
    fsum, in piece order, of each value times its piece's overlap
    measure, a product over the axes taken from 1.0."""
    measures = []
    for piece in pieces:
        m = 1.0
        for plo, phi, clo, chi in zip(piece.lower, piece.upper, lower, upper):
            m *= max(min(phi, chi) - max(plo, clo), 0.0)
        measures.append(m)
    return math.fsum(v * m for v, m in zip(values, measures))


def per_box_volume(lower, upper):
    """The volume of the box [lower, upper), its extents multiplied in
    axis order from 1.0, each clamped at 0.0."""
    vol = 1.0
    for l, u in zip(lower, upper):
        vol *= max(u - l, 0.0)
    return vol


def per_cell_integral(base, lower, upper):
    """A continuous family's integral over the box [lower, upper), one
    box at a time, in the IEEE operations and order of the closed forms
    (volume as ``per_box_volume`` takes it, per-axis terms summed by
    fsum)."""
    vol = per_box_volume(lower, upper)
    kind = type(base).__name__
    if kind == "Affine":
        center = [(l + u) / 2.0 for l, u in zip(lower, upper)]
        return vol * (base.intercept + math.fsum(a * c for a, c in zip(base.slopes, center)))
    if kind == "Quadratic":
        avg = math.fsum([
            q * (l * l + l * u + u * u) / 3.0 + b * (l + u) / 2.0
            for q, b, l, u in zip(base.quadratic, base.linear, lower, upper)
        ])
        return vol * (base.intercept + avg)
    a, b = lower[base.axis], upper[base.axis]
    cross = 1.0
    for i, (l, u) in enumerate(zip(lower, upper)):
        if i != base.axis:
            cross *= u - l
    if base.frequency == 0.0:
        osc = math.sin(base.phase) * (b - a)
    else:
        w = 2.0 * math.pi * base.frequency
        osc = (math.cos(w * a + base.phase) - math.cos(w * b + base.phase)) / w
    return cross * (base.offset * (b - a) + base.amplitude * osc)


def fieldwise_value(base, point):
    """A continuous family's value read off its fields: intercept + fsum
    of one term per axis, or the sine of the coordinate on its axis."""
    kind = type(base).__name__
    if kind == "Sinusoid":
        t = point[base.axis]
        return base.offset + base.amplitude * math.sin(
            2.0 * math.pi * base.frequency * t + base.phase)
    if kind == "Affine":
        return base.intercept + math.fsum(a * x for a, x in zip(base.slopes, point))
    return base.intercept + math.fsum(
        [q * x * x + b * x for q, b, x in zip(base.quadratic, base.linear, point)])


def fieldwise_range(base, cell):
    """A continuous family's exact (lo, hi) over a box cell, read off its
    fields: the intercept plus each axis's smallest and largest term, in
    axis order, a Quadratic's vertex found anew on every axis, or a
    Sinusoid's ends and every critical point inside.  min() and max()
    keep the first of equal values; float() comes last, after any exact
    int arithmetic of int fields."""
    if type(base).__name__ == "Sinusoid":
        a, b = cell.lower[base.axis], cell.upper[base.axis]
        at = [fieldwise_value(base, (t,) * base.dimension) for t in (a, b)]
        if base.frequency > 0.0 and base.amplitude != 0.0:
            w = 2.0 * math.pi * base.frequency
            n_lo = math.ceil((w * a + base.phase - math.pi / 2.0) / math.pi)
            n_hi = math.floor((w * b + base.phase - math.pi / 2.0) / math.pi)
            for n in range(n_lo, n_hi + 1):
                if a <= (math.pi / 2.0 + n * math.pi - base.phase) / w <= b:
                    at.append(base.offset - base.amplitude if n % 2 else
                              base.offset + base.amplitude)
        return float(min(at)), float(max(at))
    lo = hi = base.intercept
    if type(base).__name__ == "Affine":
        for a, l, u in zip(base.slopes, cell.lower, cell.upper):
            lo += min(a * l, a * u)
            hi += max(a * l, a * u)
        return float(lo), float(hi)
    for q, b, l, u in zip(base.quadratic, base.linear, cell.lower, cell.upper):
        values = [q * l * l + b * l, q * u * u + b * u]
        if q != 0.0 and l <= -b / (2.0 * q) <= u:
            vertex = -b / (2.0 * q)
            values.append(q * vertex * vertex + b * vertex)
        lo += min(values)
        hi += max(values)
    return float(lo), float(hi)


def per_cell_bounds(f, partition):
    """(theorem1, corollary1, corollary2) from one range per cell."""
    widths = []
    for cell in partition.cells:
        rng = f.essential_range(cell)
        widths.append(rng.hi - rng.lo)
    s = max(widths)
    return s, s, math.fsum(m * w for m, w in zip(partition.measures, widths))


def per_cell_worst_uniform_error(f, partition):
    """The closed-form worst error W, one cell at a time: per-cell
    deviations m_j (G_j - avg_j) and m_j (avg_j - g_j), each side
    summed by fsum."""
    up = []
    down = []
    for cell, measure in zip(partition.cells, partition.measures):
        rng = f.essential_range(cell)
        average = per_cell_integral(f.base, cell.lower, cell.upper) / measure
        up.append(measure * (rng.hi - average))
        down.append(measure * (average - rng.lo))
    return max(math.fsum(up), math.fsum(down), 0.0)


def sine_extremes(base, a, b):
    """min and max of a Sinusoid over [a, b] from its ends and every
    critical point w t + phase = pi/2 + n pi inside, at the closed-form
    value offset + amplitude (n even) or offset - amplitude (n odd)."""
    at = [base.evaluate((a,)), base.evaluate((b,))]
    if base.frequency > 0.0 and base.amplitude != 0.0:
        w = 2.0 * math.pi * base.frequency
        n_lo = math.ceil((w * a + base.phase - math.pi / 2.0) / math.pi)
        n_hi = math.floor((w * b + base.phase - math.pi / 2.0) / math.pi)
        for n in range(n_lo, n_hi + 1):
            if a <= (math.pi / 2.0 + n * math.pi - base.phase) / w <= b:
                at.append(base.offset - base.amplitude if n % 2 else
                          base.offset + base.amplitude)
    return min(at), max(at)


def per_cell_counts(measures, n_points, tol):
    """Per-cell node counts N * measure, one cell at a time, or None when
    a product is more than ``tol`` from its nearest integer or those
    integers do not sum to N."""
    counts = []
    for m in measures:
        target = n_points * m
        nearest = round(target)
        if abs(target - nearest) > tol:
            return None
        counts.append(nearest)
    return tuple(counts) if sum(counts) == n_points else None


def generic_cube_point(dimension, value):
    """A point of [0, 1]^dimension normalised by one loop for every
    dimension: a tuple of in-range floats of the right length comes back
    as it is, anything else goes through float() coordinate by
    coordinate, with OutOfDomainError and its message on a refusal."""
    if type(value) is tuple and len(value) == dimension:
        for c in value:
            if type(c) is not float or not 0.0 <= c <= 1.0:
                break
        else:
            return value
    if isinstance(value, (str, bytes, bytearray)):
        raise OutOfDomainError(f"not a cube point: {value!r}")
    scalar = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        coords = tuple(map(float, (value,) if scalar else value))
    except OverflowError:
        raise OutOfDomainError("a coordinate too large for a float lies outside [0, 1]"
                               ) from None
    except (TypeError, ValueError):
        raise OutOfDomainError(f"not a cube point: {value!r}") from None
    if len(coords) != dimension:
        raise OutOfDomainError(
            f"point has {len(coords)} coordinates, space has dimension {dimension}"
        )
    for c in coords:
        if not 0.0 <= c <= 1.0:
            raise OutOfDomainError(f"coordinate {c!r} outside [0, 1]")
    return coords


def per_cell_uniformity(boxes, measures, nodes, tol):
    """(ok, counts, expected, off) of a uniformity check: each node
    counted in the first box (lower, upper) a scan finds, then each cell
    tested in turn against N * measure and its nearest integer."""
    n = len(nodes)
    counts = [0] * len(boxes)
    for node in nodes:
        j = scan_cell_index(boxes, node)
        if j is not None:
            counts[j] += 1
    expected = tuple(n * m for m in measures)
    off = []
    for j, (got, want) in enumerate(zip(counts, expected)):
        nearest = round(want)
        if abs(want - nearest) > tol or got != nearest:
            off.append(j)
    return n > 0 and not off, tuple(counts), expected, tuple(off)


def van_der_corput(m):
    """The first 2**m points of the base-2 van der Corput sequence:
    phi_2(i), the m bits of i mirrored about the binary point.  Each is a
    dyadic float, exact."""
    return [int(format(i, f"0{m}b")[::-1], 2) / 2**m for i in range(2**m)]


def hammersley_2d(m):
    """The 2-D Hammersley set (i / 2**m, phi_2(i)) for i < 2**m: a
    (0, m, 2)-net in base 2, so every 2**p x 2**(m - p) grid of
    equal boxes holds one point per box."""
    return [(i / 2**m, y) for i, y in enumerate(van_der_corput(m))]

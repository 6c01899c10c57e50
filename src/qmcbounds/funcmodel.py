"""Essentially bounded function models with exact per-cell range oracles.

A model is a base function plus a finite tuple of spike overrides
(point, value).  Spikes change pointwise evaluation only: on a cube
space a finite point set is Lebesgue-null, so essential ranges,
integrals, and everything derived from them ignore spikes entirely.  On
a finite space every atom has positive weight, nonempty null sets do not
exist, and spike overrides are therefore rejected at construction.  A
spike point is normalised like an evaluation point, so one outside the
closed cube or with the wrong number of coordinates, which could never
fire, is rejected too.

Base families and their exact essential-range rules over a box cell
(continuity makes the essential range over a positive-volume box equal
to the pointwise range over its closure, so closed forms are exact):

- Affine        intercept + sum_i slope_i * x_i; extremes at box corners,
                separable per axis.
- Quadratic     intercept + sum_i (quad_i * x_i^2 + lin_i * x_i);
                per-axis endpoints plus the vertex when it lies inside.
- Sinusoid      offset + amplitude * sin(2*pi*frequency*x_axis + phase);
                endpoints plus offset +- amplitude when a critical point
                of that sign lies inside, in constant work.
- PiecewiseConstant  constant values on the cells of its own partition;
                range over a query cell collects the values of pieces
                with positive-measure overlap.
- FiniteTable   per-atom values on a finite space; min and max over the
                cell's atoms.

Every parameter, table value and spike value must be a finite number;
NaN or an infinity is rejected at construction with a ValueError naming
the field.  NaN has no place in the order that ranges are taken in, and
an infinite value would turn every bound into inf or nan.  Finite fields
can still overflow in sum, so a continuous family also rejects fields
whose magnitudes add up to more than VALUE_LIMIT, a bound on its values
over the cube and on every partial sum of them.  A sine's argument is
held to SINE_ARGUMENT_LIMIT, under which its range is counted exactly,
and its slope |amplitude| * 2*pi*frequency to VALUE_LIMIT, so every
family's Lipschitz bound, and a grid range's eps, is finite.

Every cube family integrates over many boxes at once:
``integrals(lowers, uppers)`` takes per-axis edge lists, box j being
[lowers[i][j], uppers[i][j]) on axis i, and returns each box's integral
from list passes in the IEEE operations and order that one box at a
time takes, so ``cell_integral`` is its one-cell case, bit for bit.

A continuous family binds its constants once per model: ``evaluate``
and ``range_on`` close over float copies of the intercept, per-axis
coefficients, 2*pi*frequency and each Quadratic axis's vertex and value,
in the operations and order of the closed forms above.  On one axis
intercept + fsum([t]) is c0 + t, c0 = intercept + 0.0, bit for bit: with
fsum([t]) = t + 0.0, each is intercept + t, save that a zero is +0.0.
On two axes a Quadratic takes fsum([t0, t1]) as (t0 + t1) + 0.0, bit for
bit: both round the exact sum correctly, + 0.0 makes a zero +0.0, and
VALUE_LIMIT keeps the sum finite over the cube, so fsum's overflow error
cannot occur.

Grid range mode replaces the closed forms of the continuous families
with sampled ranges over the regular grid of n + 1 points per axis
(n = GridRangeMode.intervals_per_axis).  axis_samples lists each axis's
samples with numpy.linspace's arithmetic, so they are linspace's bits,
and the families take their per-axis terms from those lists.  Sampled
values are genuine function values, so the reported hi under-estimates
the essential supremum (and lo over-estimates the infimum) by at most
eps = lipschitz * spacing / 2, which is attached to the result and
propagates an exact=False flag into every derived bound.  The jump
families (PiecewiseConstant, FiniteTable) have no Lipschitz constant and
cheap exact ranges, so they ignore grid mode and stay exact.

The extremes over the (n + 1)^d grid points come from O(d n) work per
cell, with the bits of the pointwise values.  Affine and Quadratic
values are intercept + fsum(t_1(x_1), ..., t_d(x_d)), one rounded term
per axis.  fsum rounds the exact sum of its terms correctly, and
round-to-nearest is monotone, so the value is non-decreasing in every
term, and so is the addition of the intercept.  The largest value over
the product grid is therefore the same expression at each axis's
largest term, and likewise for the smallest.  Equal floats differ at
most in the sign of a zero, and a zero extreme can carry either sign
only when the intercept is a zero too.  Then the fsum is zero, so the
exact sum of the terms equals the extreme one, every term of a grid
point attaining it sits at its axis's extreme, and the first such point
in row-major order takes each axis's first extreme sample: the one that
min and max pick from the axis's list.  A Sinusoid reads one axis, so
its extremes over the grid are those over that axis's n + 1 samples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from operator import mul, sub
from typing import Callable, Union

from .errors import OutOfDomainError, QmcBoundsError
from .spaces import (
    BoxCell,
    Cell,
    CubeSpace,
    FiniteCell,
    FiniteSpace,
    Partition,
    Space,
    _per_cell_product,
    _volumes,
    atom_index,
)

TWO_PI = 2.0 * math.pi

# Largest magnitude the values of a continuous model, and the argument of
# a sine, may reach over the cube.  The quarter of the largest double
# leaves room for the arithmetic built on the values: a range's width
# and a realized error are differences of two of them, and a quadratic's
# cell mean passes through three times a coefficient.
VALUE_LIMIT = sys.float_info.max / 4

# Largest magnitude a sine's argument may reach over the cube.  Below it
# the rounded quotient that Sinusoid.range_on counts critical points with
# is off by less than one (four roundings of at most u * 2**50 / pi each),
# and a double still resolves the argument to well under a period.
SINE_ARGUMENT_LIMIT = 2.0**50


@dataclass(frozen=True, slots=True, init=False)
class EssentialRange:
    """Essential infimum and supremum of a model over one cell.

    When ``exact`` is False the values come from grid sampling and
    ``eps`` bounds how far hi may sit below the true supremum (lo above
    the true infimum); sampled values never overshoot.
    """

    lo: float
    hi: float
    exact: bool
    eps: float = 0.0

    def __init__(self, lo, hi, exact, eps=0.0):
        # each slot is set once through its descriptor; NaN fails the test
        if not (lo <= hi and eps >= 0.0):
            raise ValueError(f"range needs lo <= hi and eps >= 0, got lo {lo!r}, "
                             f"hi {hi!r} and eps {eps!r}")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_exact(self, exact)
        _set_eps(self, eps)


_set_lo, _set_hi, _set_exact, _set_eps = (
    getattr(EssentialRange, name).__set__ for name in EssentialRange.__slots__)


# Most intervals per axis that grid mode samples a cell with.  Each cell
# builds a list of intervals + 1 samples per axis, so the cap holds that
# list to 65,537 floats (about 2 MB) and the sampling of a 3-D quadratic
# cell to about 13 ms per axis on a 2-core x86-64 host.  A range that
# needs a finer grid than that has the closed forms of exact mode.
GRID_INTERVAL_LIMIT = 2**16


@dataclass(frozen=True)
class GridRangeMode:
    """Sampled-range fallback: resolution * 2**levels intervals per axis,
    at most GRID_INTERVAL_LIMIT."""

    resolution: int = 64
    levels: int = 2

    def __post_init__(self):
        if self.resolution < 1 or self.levels < 0:
            raise ValueError("grid mode needs resolution >= 1 and levels >= 0")
        # levels is tested first, so that 2**levels is never a huge number
        if (self.levels >= GRID_INTERVAL_LIMIT.bit_length()
                or self.intervals_per_axis > GRID_INTERVAL_LIMIT):
            raise ValueError(f"grid mode samples resolution * 2**levels intervals per axis, "
                             f"at most {GRID_INTERVAL_LIMIT}; got resolution "
                             f"{self.resolution} and levels {self.levels}")

    @property
    def intervals_per_axis(self) -> int:
        return self.resolution * (2 ** self.levels)


def _require_box(cell: Cell, dimension: int) -> BoxCell:
    if not isinstance(cell, BoxCell) or len(cell.lower) != dimension:
        raise OutOfDomainError(f"expected a {dimension}-dimensional box cell, got {cell!r}")
    return cell


def _built():  # a field that __post_init__ builds: not in __init__, ==, hash or repr
    return field(init=False, repr=False, compare=False, hash=False, default=None)


def _require_atoms(cell: FiniteCell, n: int, of: str) -> None:  # atoms are sorted
    if cell.atoms and not (0 <= cell.atoms[0] and cell.atoms[-1] < n):
        raise OutOfDomainError(f"cell atoms {cell.atoms!r} reach outside the {n}-{of}")


def _require_finite(**fields) -> None:
    """ValueError naming the first field entry that is NaN or infinite.

    Each field is a number or a tuple of numbers.
    """
    for name, value in fields.items():
        if not isinstance(value, tuple):
            if not math.isfinite(value):
                raise ValueError(f"{name} is {value!r}, not a finite number")
            continue
        for i, v in enumerate(value):
            if not math.isfinite(v):
                raise ValueError(f"{name}[{i}] is {v!r}, not a finite number")


def _fsum_per_cell(intercept, terms, lowers, uppers) -> list[float]:
    """Each box's volume times intercept + math.fsum of its per-axis
    terms, one iterable of terms per axis.

    An fsum of one term t is t + 0.0: t itself, except that -0.0 becomes
    0.0.
    """
    sums = (t + 0.0 for t in terms[0]) if len(terms) == 1 else map(math.fsum, zip(*terms))
    return [vol * (intercept + t) for vol, t in zip(_volumes(lowers, uppers), sums)]


def _require_bounded(fields: str, quantity: str, magnitude: float,
                     limit: float = VALUE_LIMIT) -> None:
    """ValueError naming the fields when ``magnitude``, the bound they
    give on a quantity over the cube, is above ``limit`` (or is inf,
    which a sum of large finite fields can reach)."""
    if not magnitude <= limit:
        raise ValueError(f"{fields}: {quantity} over the cube can reach {magnitude!r}, "
                         f"above the limit {limit!r}")


def axis_samples(lo: float, hi: float, n: int) -> list[float]:
    """The n + 1 samples of [lo, hi] that numpy.linspace(lo, hi, n + 1)
    takes, bit for bit: i * step + lo for i < n, then hi itself.

    When the step rounds to zero (a subnormal width), linspace scales
    i / n by the width instead, and so does this list.
    """
    return _shifted(_offsets(hi - lo, n), lo, hi)


def _offsets(width: float, n: int) -> list[float]:  # axis_samples' terms before + lo
    step = width / n
    return [i / n * width for i in range(n)] if step == 0.0 else [i * step for i in range(n)]


def _shifted(offsets: list[float], lo: float, hi: float) -> list[float]:
    return [t + lo for t in offsets] + [hi]


def _separable_extremes(intercept: float, terms) -> tuple[float, float]:
    """(min, max) of intercept + fsum(one term per axis) over the product
    of the axes' samples; ``terms`` holds each axis's term list.

    Python's min and max return the first extreme sample of a list,
    which the module docstring's argument relies on.
    """
    return (intercept + math.fsum(map(min, terms)),
            intercept + math.fsum(map(max, terms)))


class _PickledByFields:
    def __reduce__(self):  # pickled as its init fields; loading builds the rest
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class Affine(_PickledByFields):
    intercept: float
    slopes: tuple[float, ...]
    evaluate: Callable[[tuple[float, ...]], float] = _built()
    range_on: Callable[[Cell], tuple[float, float]] = _built()

    def __post_init__(self):
        _require_finite(intercept=self.intercept, slopes=self.slopes)
        _require_bounded("intercept and slopes", "the values",
                         abs(self.intercept) + sum(map(abs, self.slopes)))
        c, slopes, d = float(self.intercept), tuple(map(float, self.slopes)), len(self.slopes)
        if d == 1:  # c + fsum([t]) is c0 + t (module docstring)
            (a,), c0 = slopes, c + 0.0

            def evaluate(point):
                return c0 + a * point[0]
        else:
            def evaluate(point):
                return c + math.fsum(map(mul, slopes, point))

        def range_on(cell):
            cell = _require_box(cell, d)
            lo = hi = c
            for a, l, u in zip(slopes, cell.lower, cell.upper):
                at_l, at_u = a * l, a * u
                # min(at_l, at_u) and max(at_l, at_u), without the calls
                lo += at_u if at_u < at_l else at_l
                hi += at_u if at_u > at_l else at_l
            return lo, hi

        object.__setattr__(self, "evaluate", evaluate)
        object.__setattr__(self, "range_on", range_on)

    @property
    def dimension(self) -> int:
        return len(self.slopes)

    def sampled_range(self, axes) -> tuple[float, float]:
        """(min, max) over the product of the per-axis sample lists."""
        return _separable_extremes(
            self.intercept, [[a * t for t in ts] for a, ts in zip(self.slopes, axes)])

    def integrals(self, lowers, uppers) -> list[float]:
        """Each box's volume times the value at its centre."""
        def axis_terms(a, ls, us):
            return (a * ((l + u) / 2.0) for l, u in zip(ls, us))

        terms = list(map(axis_terms, self.slopes, lowers, uppers))
        return _fsum_per_cell(self.intercept, terms, lowers, uppers)

    def lipschitz_bound(self) -> float:
        return math.fsum(abs(a) for a in self.slopes)


@dataclass(frozen=True)
class Quadratic(_PickledByFields):
    """Separable quadratic: intercept + sum_i (quad_i x_i^2 + lin_i x_i)."""

    intercept: float
    linear: tuple[float, ...]
    quadratic: tuple[float, ...]
    evaluate: Callable[[tuple[float, ...]], float] = _built()
    range_on: Callable[[Cell], tuple[float, float]] = _built()

    def __post_init__(self):
        if len(self.linear) != len(self.quadratic):
            raise ValueError("linear and quadratic coefficient tuples differ in length")
        _require_finite(intercept=self.intercept, linear=self.linear,
                        quadratic=self.quadratic)
        _require_bounded("intercept, linear and quadratic", "the values",
                         abs(self.intercept) + sum(map(abs, self.linear))
                         + sum(map(abs, self.quadratic)))
        qs, bs = tuple(map(float, self.quadratic)), tuple(map(float, self.linear))
        # a range takes l, u, then an inside vertex, each replacing only a strictly
        # smaller (larger) value, as min() and max() do; q == 0 has a NaN vertex
        vs = [-b / (2.0 * q) if q != 0.0 else math.nan for q, b in zip(qs, bs)]
        axes = tuple(zip(qs, bs, vs, [q * v * v + b * v for q, b, v in zip(qs, bs, vs)]))
        c, d = float(self.intercept), len(axes)
        if d == 1:  # c + fsum([t]) is c0 + t (module docstring)
            ((q, b, v, at_v),), c0 = axes, c + 0.0

            def evaluate(point):
                x = point[0]
                return c0 + (q * x * x + b * x)

            def range_on(cell):
                cell = _require_box(cell, 1)
                (l,), (u,) = cell.lower, cell.upper
                at_l, at_u = q * l * l + b * l, q * u * u + b * u
                lo = at_u if at_u < at_l else at_l
                hi = at_u if at_u > at_l else at_l
                inside = l <= v <= u
                return (c + (at_v if inside and at_v < lo else lo),
                        c + (at_v if inside and at_v > hi else hi))
        else:
            if d == 2:  # c + fsum([t0, t1]) is c + ((t0 + t1) + 0.0) (module docstring)
                (q0, q1), (b0, b1) = qs, bs

                def evaluate(point):
                    x0, x1 = point
                    return c + ((q0 * x0 * x0 + b0 * x0) + (q1 * x1 * x1 + b1 * x1) + 0.0)
            else:
                def evaluate(point):
                    return c + math.fsum([q * x * x + b * x for q, b, x in zip(qs, bs, point)])

            def range_on(cell):
                cell = _require_box(cell, d)
                lo = hi = c
                for (q, b, v, at_v), l, u in zip(axes, cell.lower, cell.upper):
                    at_l, at_u = q * l * l + b * l, q * u * u + b * u
                    axis_lo = at_u if at_u < at_l else at_l
                    axis_hi = at_u if at_u > at_l else at_l
                    inside = l <= v <= u
                    lo += at_v if inside and at_v < axis_lo else axis_lo
                    hi += at_v if inside and at_v > axis_hi else axis_hi
                return lo, hi

        object.__setattr__(self, "evaluate", evaluate)
        object.__setattr__(self, "range_on", range_on)

    @property
    def dimension(self) -> int:
        return len(self.linear)

    def sampled_range(self, axes) -> tuple[float, float]:
        """(min, max) over the product of the per-axis sample lists."""
        return _separable_extremes(
            self.intercept,
            [[q * t * t + b * t for t in ts]
             for q, b, ts in zip(self.quadratic, self.linear, axes)],
        )

    def integrals(self, lowers, uppers) -> list[float]:
        """Each box's volume times the function's mean over it."""
        def axis_terms(q, b, ls, us):
            # the mean of q t^2 + b t over [l, u]
            return (q * (l * l + l * u + u * u) / 3.0 + b * (l + u) / 2.0
                    for l, u in zip(ls, us))

        terms = list(map(axis_terms, self.quadratic, self.linear, lowers, uppers))
        return _fsum_per_cell(self.intercept, terms, lowers, uppers)

    def lipschitz_bound(self) -> float:
        return math.fsum(
            max(abs(b), abs(2.0 * q + b)) for q, b in zip(self.quadratic, self.linear)
        )


@dataclass(frozen=True)
class Sinusoid(_PickledByFields):
    """offset + amplitude * sin(2*pi*frequency * x[axis] + phase)."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    offset: float = 0.0
    axis: int = 0
    dimension: int = 1
    evaluate: Callable[[tuple[float, ...]], float] = _built()
    range_on: Callable[[Cell], tuple[float, float]] = _built()

    def __post_init__(self):
        """A range is the min and max of the values at a, b and the critical
        points inside [a, b], in that order, as min() and max() pick them.
        The critical point t_n solves w t + phase = pi/2 + n pi, where the
        sine is 1 at even n and -1 at odd n, so its value is offset +
        amplitude or offset - amplitude in closed form.  The rounded
        bounds n_lo and n_hi are off by less than one under
        SINE_ARGUMENT_LIMIT.  When they are at most eight apart every n
        between them is tested against a <= t_n <= b; when they are
        further apart, n_lo + 2 and n_lo + 3 lie inside the cell, so both
        closed-form values count.  The work is constant in the number of
        critical points.  The two values differ, as amplitude != 0, so the
        order they come in cannot change which one min and max pick.
        """
        _require_finite(amplitude=self.amplitude, frequency=self.frequency,
                        phase=self.phase, offset=self.offset)
        if not 0 <= self.axis < self.dimension:
            raise ValueError(f"axis {self.axis} out of range for dimension {self.dimension}")
        if self.frequency < 0.0:
            raise ValueError("frequency must be nonnegative")
        _require_bounded("offset and amplitude", "the values",
                         abs(self.offset) + abs(self.amplitude))
        _require_bounded("frequency and phase", "the sine's argument",
                         TWO_PI * self.frequency + abs(self.phase), SINE_ARGUMENT_LIMIT)
        _require_bounded("amplitude and frequency", "the slope", self.lipschitz_bound())
        w, phase, offset = TWO_PI * float(self.frequency), float(self.phase), float(self.offset)
        amplitude, axis, d = float(self.amplitude), self.axis, self.dimension
        peaks = (float(self.offset + self.amplitude), float(self.offset - self.amplitude))
        oscillates = self.frequency > 0.0 and self.amplitude != 0.0

        def at(t):
            return offset + amplitude * math.sin(w * t + phase)

        def range_on(cell):
            cell = _require_box(cell, d)
            a, b = cell.lower[axis], cell.upper[axis]
            at_a, at_b = at(a), at(b)
            lo = at_b if at_b < at_a else at_a
            hi = at_b if at_b > at_a else at_a
            if oscillates:
                n_lo = math.ceil((w * a + phase - math.pi / 2.0) / math.pi)
                n_hi = math.floor((w * b + phase - math.pi / 2.0) / math.pi)
                if n_hi - n_lo > 8:
                    parities = (0, 1)
                else:
                    parities = {n % 2 for n in range(n_lo, n_hi + 1)
                                if a <= (math.pi / 2.0 + n * math.pi - phase) / w <= b}
                for odd in parities:
                    value = peaks[odd]
                    lo = value if value < lo else lo
                    hi = value if value > hi else hi
            return lo, hi

        object.__setattr__(self, "evaluate", lambda point: at(point[axis]))
        object.__setattr__(self, "range_on", range_on)

    def sampled_range(self, axes) -> tuple[float, float]:
        """(min, max) over the samples of the axis the sine reads."""
        values = [self.evaluate((t,) * self.dimension) for t in axes[self.axis]]
        return min(values), max(values)

    def integrals(self, lowers, uppers) -> list[float]:
        """Each box's extent across the other axes times the integral of
        the sine along its own axis."""
        a_s, b_s = lowers[self.axis], uppers[self.axis]
        spans = list(map(sub, b_s, a_s))
        phase = self.phase
        if self.frequency == 0.0:
            sine = math.sin(phase)
            oscs = (sine * span for span in spans)
        else:
            w = TWO_PI * self.frequency
            cos = math.cos
            oscs = ((cos(w * a + phase) - cos(w * b + phase)) / w for a, b in zip(a_s, b_s))
        offset, amplitude = self.offset, self.amplitude
        values = (offset * span + amplitude * osc for span, osc in zip(spans, oscs))
        cross = [map(sub, us, ls)
                 for i, (ls, us) in enumerate(zip(lowers, uppers)) if i != self.axis]
        if cross:  # else the per-cell product is 1.0, and 1.0 * x is x
            values = map(mul, _per_cell_product(cross), values)
        return list(values)

    def lipschitz_bound(self) -> float:
        return abs(self.amplitude) * (TWO_PI * self.frequency)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Constant on each cell of its own partition (finite or cube space)."""

    partition: Partition
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.partition.k:
            raise ValueError(
                f"{len(self.values)} values for {self.partition.k} cells"
            )
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require_finite(values=self.values)

    @property
    def dimension(self) -> int | None:
        space = self.partition.space
        return space.dimension if isinstance(space, CubeSpace) else None

    def evaluate(self, point) -> float:
        # The point arrives normalized by FunctionModel's domain, which is
        # this partition's space, so the lookup takes it as it is.
        j = self.partition.cell_index_of(point, True)
        if j is None:
            raise OutOfDomainError(f"point {point!r} lies in no cell of the piece layout")
        return self.values[j]

    def _overlap_measures(self, lower, upper):
        """Each piece's overlap measure with the box [lower, upper), in
        piece order: one list pass per axis over the layout's edges, and
        ``_per_cell_product`` multiplies the axes."""
        return _per_cell_product([
            [max(min(phi, hi) - max(plo, lo), 0.0) for plo, phi in zip(plos, phis)]
            for plos, phis, lo, hi in zip(*self.partition.edges, lower, upper)])

    def range_on(self, cell: Cell) -> tuple[float, float]:
        partition = self.partition
        if isinstance(partition.space, FiniteSpace):
            # every atom has positive weight, so the pieces met are the
            # atoms' own; in piece order, min and max keep the first of
            # 0.0 and -0.0 as a scan of every piece does
            if not isinstance(cell, FiniteCell):
                raise OutOfDomainError(f"expected a finite cell, got {cell!r}")
            _require_atoms(cell, partition.space.n_atoms, "atom space")
            hits = [self.values[j] for j in sorted({partition.slabs[a] for a in cell.atoms})]
        else:
            cell = _require_box(cell, self.dimension)
            hits = [v for v, m in zip(self.values, self._overlap_measures(cell.lower, cell.upper))
                    if m > 0.0]
        if not hits:
            raise OutOfDomainError(f"cell {cell!r} meets no piece with positive measure")
        return min(hits), max(hits)

    def integrals(self, lowers, uppers) -> list[float]:
        """Each box's fsum, in piece order, of the piece values times
        their overlap measures with it."""
        return [math.fsum(map(mul, self.values, self._overlap_measures(lower, upper)))
                for lower, upper in zip(zip(*lowers), zip(*uppers))]


@dataclass(frozen=True)
class FiniteTable:
    """Per-atom values on a finite space; optional labels enable lookups."""

    values: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require_finite(values=self.values)
        if self.labels is not None:
            if len(self.labels) != len(self.values):
                raise ValueError(f"{len(self.values)} values for {len(self.labels)} labels")
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def dimension(self) -> None:
        return None

    def as_point(self, value) -> int:
        """Normalize an atom reference (index, or label of a labeled
        table) to an index, as FiniteSpace.as_point does."""
        return atom_index(value, self.labels or (), len(self.values))

    def evaluate(self, point: int) -> float:
        return self.values[point]

    def range_on(self, cell: Cell) -> tuple[float, float]:
        if not isinstance(cell, FiniteCell):
            raise OutOfDomainError(f"expected a finite cell, got {cell!r}")
        _require_atoms(cell, len(self.values), "value table")
        vals = [self.values[a] for a in cell.atoms]
        return min(vals), max(vals)


BaseFunction = Union[Affine, Quadratic, Sinusoid, PiecewiseConstant, FiniteTable]

# Families whose closed-form ranges grid mode replaces.
_CONTINUOUS_FAMILIES = (Affine, Quadratic, Sinusoid)


@dataclass(frozen=True)
class FunctionModel:
    """Base function plus spike overrides plus a range-oracle mode.

    Spikes are (point, value) pairs matched by exact coordinates during
    evaluation.  They are a null set, so they never reach ranges or
    integrals, and they are rejected on finite spaces where no nonempty
    null set exists.  Spike points must lie in the model's cube.
    """

    base: BaseFunction
    spikes: tuple[tuple[tuple[float, ...], float], ...] = ()
    range_mode: GridRangeMode | None = None

    _spike_map: dict = _built()
    # The spikes' first coordinates, none on a finite model: float == and
    # hash agree on +-0.0, so a point whose first is not in it is no spike.
    _spike_firsts: frozenset = _built()
    _lipschitz: float | None = _built()  # the base's bound when grid mode applies
    # What points are normalised against, by its as_point: the cube, a
    # piecewise constant's own space, or a FiniteTable itself, whose
    # atoms are its values' indices and its labels.
    _domain: Space | FiniteTable = _built()

    def __post_init__(self):
        base = self.base
        if isinstance(base, PiecewiseConstant):
            domain = base.partition.space
        elif isinstance(base, FiniteTable):
            domain = base
        else:
            domain = CubeSpace(base.dimension)
        object.__setattr__(self, "_domain", domain)
        if self.is_finite and self.spikes:
            raise QmcBoundsError(
                "spike overrides are not allowed on finite spaces: "
                "every atom has positive measure"
            )
        normalized = tuple((domain.as_point(p), float(v)) for p, v in self.spikes)
        _require_finite(spike_values=tuple(v for _, v in normalized))
        object.__setattr__(self, "spikes", normalized)
        object.__setattr__(self, "_spike_map", dict(normalized))
        object.__setattr__(self, "_spike_firsts", frozenset(p[0] for p, _ in normalized))
        if self.range_mode is not None and isinstance(base, _CONTINUOUS_FAMILIES):
            object.__setattr__(self, "_lipschitz", base.lipschitz_bound())

    @property
    def is_finite(self) -> bool:
        return not isinstance(self._domain, CubeSpace)

    @property
    def dimension(self) -> int | None:
        return self.base.dimension

    def evaluate(self, point, normal: bool = False) -> float:
        """Pointwise value; spike overrides win on exact coordinate match.

        The domain normalises the point unless ``normal`` says it is
        normal already, as a library-built node is.  Library loops pass
        the flag by position: CPython 3.11+ inlines no keyword call.
        """
        if not normal:
            point = self._domain.as_point(point)
        if self._spike_firsts and point[0] in self._spike_firsts and point in self._spike_map:
            return self._spike_map[point]
        return self.base.evaluate(point)

    def essential_range(self, cell: Cell) -> EssentialRange:
        """Essential range over a positive-measure cell; spikes never matter."""
        if self._lipschitz is None:
            lo, hi = self.base.range_on(cell)  # floats, from every family
            return EssentialRange(lo, hi, True)
        return self._grid_range(cell)

    def _grid_range(self, cell: Cell) -> EssentialRange:
        base = self.base
        cell = _require_box(cell, base.dimension)
        n = self.range_mode.intervals_per_axis
        axes = [axis_samples(lo, hi, n) for lo, hi in zip(cell.lower, cell.upper)]
        lo, hi = base.sampled_range(axes)
        spacing = max((u - l) / n for l, u in zip(cell.lower, cell.upper))
        return EssentialRange(lo, hi, exact=False, eps=self._lipschitz * spacing / 2.0)

    def _require_on(self, space: Space) -> None:
        """OutOfDomainError unless the model is a function on ``space``: a
        cube model on the cube of its own dimension, a table on a space
        with one atom per value, a piece layout on a space with as many
        atoms as its own.  Every point of such a space is a normal point."""
        base, domain = self.base, self._domain
        if isinstance(domain, CubeSpace):
            if isinstance(space, CubeSpace) and space.dimension == domain.dimension:
                return
            model = f"a {domain.dimension}-dimensional cube model"
        else:  # a table is its own domain
            n = len(base.values) if domain is base else domain.n_atoms
            if isinstance(space, FiniteSpace) and space.n_atoms == n:
                return
            model = f"a {n}-value table" if domain is base else f"a piece layout on {n} atoms"
        raise OutOfDomainError(f"{model} read on " + (
            f"a {space.n_atoms}-atom space" if isinstance(space, FiniteSpace)
            else f"the {space.dimension}-dimensional cube"))

    def _atom_values(self, space: FiniteSpace) -> list[float]:
        """The model's value at every atom of the finite space, one
        evaluate call each, once ``_require_on`` accepts the space."""
        self._require_on(space)
        return [self.evaluate(a, True) for a in range(space.n_atoms)]

    def integral(self, space: Space) -> float:
        """Integral over the whole space; spikes are null and ignored."""
        if isinstance(space, FiniteSpace):
            return math.fsum(map(mul, space.weights, self._atom_values(space)))
        d = space.dimension
        return self.cell_integral(BoxCell((0.0,) * d, (1.0,) * d), space)

    def cell_integral(self, cell: Cell, space: Space) -> float:
        """Integral restricted to one cell."""
        if isinstance(space, FiniteSpace):
            if not isinstance(cell, FiniteCell):
                raise OutOfDomainError("finite space needs finite cells")
            _require_atoms(cell, space.n_atoms, "atom space")
            values = self._atom_values(space)
            return math.fsum(space.weights[a] * values[a] for a in cell.atoms)
        self._require_on(space)
        cell = _require_box(cell, space.dimension)
        # the one-cell case of the family's list pass over edge lists
        return self.base.integrals([[l] for l in cell.lower], [[u] for u in cell.upper])[0]

    def cell_integrals(self, partition: Partition) -> list[float]:
        """cell_integral of every cell of the partition, in cell order,
        once ``_require_on`` accepts its space: a finite partition's atoms
        are read once, and each cell takes its fsum; a cube partition's
        per-axis edge lists (``partition.edges``) take one list pass, with
        the bits of the one-cell case."""
        space = partition.space
        if isinstance(space, FiniteSpace):
            values = self._atom_values(space)
            return [math.fsum(space.weights[a] * values[a] for a in cell.atoms)
                    for cell in partition.cells]
        self._require_on(space)
        return self.base.integrals(*partition.edges)

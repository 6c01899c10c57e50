"""Probability spaces, cells, and partitions.

Two kinds of spaces are supported: finite atomic spaces (ordered, labeled
atoms with strictly positive weights summing to 1) and the unit cube
[0,1]^d with Lebesgue measure.  Cells are sets of atom indices on finite
spaces and axis-aligned boxes on cube spaces.

Boxes are half-open, lower <= x < upper in every axis, except that a face
with upper coordinate exactly 1 is closed.  Under this convention a
disjoint family of boxes whose volumes sum to 1 assigns every point of
the cube to exactly one box, so partition membership is unambiguous and
exactly representable with float endpoints.

Points are atom indices (int) on finite spaces and coordinate tuples on
cube spaces; ``as_point`` normalizes user-friendly forms (atom labels,
bare floats in one dimension).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import mul, sub
from typing import Mapping, Sequence, Union

from .errors import (
    CoverError,
    EmptyCellError,
    NonPositiveWeightError,
    OutOfDomainError,
    OverlapError,
    WeightSumError,
)

# Absolute tolerance for total-mass checks (weight sums, partition covers).
MASS_TOL = 1e-12


def atom_index(value, labels: Sequence[str], n: int) -> int:
    """The index of an atom reference: an int in 0..n-1, or one of the
    labels.  A bool is not an index."""
    if isinstance(value, str):
        try:
            return labels.index(value)
        except ValueError:
            raise OutOfDomainError(f"unknown atom label {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise OutOfDomainError(f"not an atom reference: {value!r}")
    if not 0 <= value < n:
        raise OutOfDomainError(f"atom index {value} out of range 0..{n - 1}")
    return value


@dataclass(frozen=True)
class FiniteSpace:
    """Finite atomic probability space with labeled atoms."""

    labels: tuple[str, ...]
    weights: tuple[float, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.labels)

    def as_point(self, value) -> int:
        """Normalize an atom reference (index or label) to an index."""
        return atom_index(value, self.labels, self.n_atoms)


@dataclass(frozen=True)
class CubeSpace:
    """The unit cube [0,1]^dimension with Lebesgue measure."""

    dimension: int

    def as_point(self, value) -> tuple[float, ...]:
        """Normalize a point to a coordinate tuple inside the closed cube.

        A tuple of floats of the right length inside the cube is already
        normal and comes back as it is, not copied.
        """
        d = self.dimension
        if type(value) is tuple and len(value) == d:
            if d == 1:  # one and two axes take straight-line checks
                (c,) = value
                if type(c) is float and 0.0 <= c <= 1.0:
                    return value
            elif d == 2:
                c, c2 = value
                if (type(c) is float and 0.0 <= c <= 1.0
                        and type(c2) is float and 0.0 <= c2 <= 1.0):
                    return value
            else:
                for c in value:
                    if type(c) is not float or not 0.0 <= c <= 1.0:
                        break
                else:
                    return value
        if isinstance(value, (str, bytes, bytearray)):  # iterable, but not coordinates
            raise OutOfDomainError(f"not a cube point: {value!r}")
        scalar = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            coords = tuple(map(float, (value,) if scalar else value))
        except OverflowError:  # an integer too large for a float
            raise OutOfDomainError("a coordinate too large for a float lies outside [0, 1]"
                                   ) from None
        except (TypeError, ValueError):  # not iterable, or a coordinate float() rejects
            raise OutOfDomainError(f"not a cube point: {value!r}") from None
        if len(coords) != self.dimension:
            raise OutOfDomainError(
                f"point has {len(coords)} coordinates, space has dimension {self.dimension}"
            )
        for c in coords:
            if not 0.0 <= c <= 1.0:  # NaN fails this too
                raise OutOfDomainError(f"coordinate {c!r} outside [0, 1]")
        return coords


Space = Union[FiniteSpace, CubeSpace]


def make_finite_space(atoms: Sequence[tuple[str, float]] | Mapping[str, float]) -> FiniteSpace:
    """Build a finite space from (label, weight) pairs.

    Weights must be strictly positive and sum to 1 within MASS_TOL; no
    renormalization is performed, a bad sum is an error.
    """
    pairs = list(atoms.items() if isinstance(atoms, Mapping) else atoms)
    if not pairs:
        raise EmptyCellError("a finite space needs at least one atom")
    labels = tuple(str(label) for label, _ in pairs)
    weights = tuple(float(w) for _, w in pairs)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate atom labels in {labels!r}")
    for label, w in zip(labels, weights):
        if not w > 0.0:
            raise NonPositiveWeightError(f"atom {label!r} has non-positive weight {w!r}")
    total = math.fsum(weights)
    if abs(total - 1.0) > MASS_TOL:
        raise WeightSumError(f"atom weights sum to {total!r}, expected 1")
    return FiniteSpace(labels, weights)


def make_cube_space(dimension: int) -> CubeSpace:
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return CubeSpace(int(dimension))


@dataclass(frozen=True)
class FiniteCell:
    """A subset of a finite space, stored as sorted unique atom indices."""

    atoms: tuple[int, ...]

    def __post_init__(self):
        normalized = tuple(sorted(set(int(a) for a in self.atoms)))
        object.__setattr__(self, "atoms", normalized)


@dataclass(frozen=True, init=False, slots=True)
class BoxCell:
    """An axis-aligned box inside the unit cube.

    Half-open in every axis (lower <= x < upper) except that a face with
    upper == 1 is closed.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower, upper):
        # written out, so that each field is set once, already converted
        lower = tuple(map(float, lower))
        upper = tuple(map(float, upper))
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have the same length")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return len(self.lower)


Cell = Union[FiniteCell, BoxCell]


def box(*bounds: tuple[float, float]) -> BoxCell:
    """Convenience constructor: box((a1, b1), ..., (ad, bd))."""
    lower = tuple(b[0] for b in bounds)
    upper = tuple(b[1] for b in bounds)
    return BoxCell(lower, upper)


def interval(a: float, b: float) -> BoxCell:
    """One-dimensional box [a, b) (closed at b only when b == 1)."""
    return BoxCell((float(a),), (float(b),))


# what cell_edges returns
EdgeLists = tuple[list[list[float]], list[list[float]]]


def cell_edges(cells: Sequence[BoxCell]) -> EdgeLists:
    """Per-axis edge lists ``(lowers, uppers)`` of boxes: box j is
    [lowers[i][j], uppers[i][j]) on axis i."""
    axes = range(cells[0].dimension)
    return ([[c.lower[a] for c in cells] for a in axes],
            [[c.upper[a] for c in cells] for a in axes])


def _per_cell_product(factors):
    """Each cell's product of its per-axis factors, one iterable per axis.

    The products are taken in axis order, as a per-cell loop from 1.0
    takes them; 1.0 * x is x, so that loop's first product is the first
    axis's factor itself.
    """
    product, *rest = factors
    for factor in rest:
        product = map(mul, product, factor)
    return product


def _volumes(lowers, uppers):
    """The volume of every box given by its per-axis edge lists: the
    product of its extents in axis order, each clamped at 0.0, the bits
    of a per-box loop ``v *= max(hi - lo, 0.0)`` from ``v = 1.0``."""
    return _per_cell_product([(0.0 if e < 0.0 else e for e in map(sub, us, ls))
                              for ls, us in zip(lowers, uppers)])


def _sweep(edges: EdgeLists):
    """Slab index of disjoint boxes given by their per-axis edge lists
    (``cell_edges``); OverlapError on a positive-volume overlap.

    Boxes are visited by lower edge on axis 0; at each distinct edge the
    boxes ending at or before it leave the active list, and the boxes
    then active form the edge's slab (Bentley & Wood, 1980).  They all
    cover the slab's first stretch on axis 0, so disjoint ones have
    projections with disjoint interiors on the other axes, and each slab
    is swept again on axis 1, and so on.  On the last axis two active
    boxes share a positive stretch on every axis, which is an overlap,
    and an overlapping pair is active together there at its larger
    lower edges; the OverlapError names the pair in ascending order.

    Returns ``(edges, children)``: the sorted distinct lower edges on the
    axis and, for each, its slab's index on the next axis or, on the
    last axis, its one box.  A box holding a point whose coordinate is
    in ``[edges[i], edges[i + 1])`` (or is 1.0, for the last edge) is
    in slab ``i``, and every box in slab ``i`` starts at or below
    ``edges[i]``, so it holds that coordinate or ends before it.
    """
    lowers, uppers = edges
    last = len(lowers) - 1

    def sweep(members, axis):
        lower, upper = lowers[axis], uppers[axis]
        leaf = axis == last
        edges: list[float] = []
        slabs: list[list[int]] = []
        active: list[int] = []
        for j in sorted(members, key=lower.__getitem__):
            edge = lower[j]
            if not edges or edge != edges[-1]:
                active = [i for i in active if upper[i] > edge]
                edges.append(edge)
                slabs.append(active)  # the same list: boxes starting here join it
            if active and leaf:
                raise OverlapError("cells {} and {} overlap with positive volume"
                                   .format(*sorted((active[0], j))))
            active.append(j)
        if leaf:
            return edges, [slab[0] for slab in slabs]
        return edges, [sweep(slab, axis + 1) for slab in slabs]

    return sweep(range(len(lowers[0])), 0)


def _validate_cell(space: Space, cell: Cell, index: int) -> None:
    """Check one cell against its space."""
    if isinstance(space, FiniteSpace):
        if not isinstance(cell, FiniteCell):
            raise OutOfDomainError(f"cell {index} is not a finite cell")
        if not cell.atoms:
            raise EmptyCellError(f"cell {index} has no atoms")
        for a in cell.atoms:
            if not 0 <= a < space.n_atoms:
                raise OutOfDomainError(f"cell {index} references missing atom {a}")
        return
    if not isinstance(cell, BoxCell):
        raise OutOfDomainError(f"cell {index} is not a box cell")
    if cell.dimension != space.dimension:
        raise OutOfDomainError(
            f"cell {index} has dimension {cell.dimension}, space has {space.dimension}"
        )
    for lo, hi in zip(cell.lower, cell.upper):
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise OutOfDomainError(f"cell {index} bounds outside the unit cube")
        if not lo < hi:
            raise EmptyCellError(f"cell {index} has empty extent [{lo!r}, {hi!r})")


@dataclass(frozen=True)
class Partition:
    """An ordered, validated partition of a space into cells.

    Built by ``make_partition``, or by ``equal_partition_1d`` for k
    equal cells of [0, 1].  Cell lookup, ``cell_index_of``, reads the
    partition's index, ``slabs``: on a finite space the tuple of each
    atom's cell, on the cube the slab index that ``_sweep`` builds from
    the per-axis edge lists of the cells.  It is one call in one frame,
    normalisation included, so a traced run counts one call per lookup.
    A cube partition also holds those lists (``edges``, as
    ``cell_edges`` gives them), which the measures, node placement, cell
    integrals, the naive baseline and the lookup's upper-face test read;
    of the library's passes only the range oracle reads the cells.  A
    finite partition holds None.  ``allocations`` keeps the per-cell
    counts that ``pointsets.allocation`` accepted, by N.  Equality,
    hashing and repr ignore all three.
    """

    space: Space
    cells: tuple[Cell, ...]
    measures: tuple[float, ...]
    edges: EdgeLists | None = field(compare=False, repr=False)
    slabs: tuple = field(compare=False, repr=False)
    allocations: dict[int, tuple[int, ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.cells)

    def cell_index_of(self, point, normal: bool = False) -> int | None:
        """Index of the cell containing the point, None if no cell does.

        The space normalises the point unless ``normal`` says it did, as
        for a point a model evaluates; library loops pass the flag by
        position, as CPython 3.11+ inlines no keyword call.  An atom's
        cell is read from the finite index.  A cube point is found by one
        bisect per coordinate in the slab index.  Every slab it passes
        through starts at or below the point, so the one cell that leaves
        has the point past its lower faces, and only its upper faces are
        tested, closed at 1.0, read from the edge lists; cells are
        disjoint as sets, so the answer is a scan's.  The test rejects
        points in gaps the cover tolerance lets through.  One and two axes
        take straight-line paths; three or more take a loop.
        """
        if not normal:
            point = self.space.as_point(point)
        node = self.slabs
        if self.edges is None:
            return node[point]
        uppers = self.edges[1]
        if len(uppers) == 1:
            (c,) = point
            edges, children = node
            i = bisect_right(edges, c) - 1
            if i < 0:
                return None
            j = children[i]
            hi = uppers[0][j]
            return j if c < hi or hi == 1.0 else None
        if len(uppers) == 2:
            c, c2 = point
            edges, children = node
            i = bisect_right(edges, c) - 1
            if i < 0:
                return None
            edges, children = children[i]
            i = bisect_right(edges, c2) - 1
            if i < 0:
                return None
            j = children[i]
            hi, hi2 = uppers[0][j], uppers[1][j]
            if (c < hi or hi == 1.0) and (c2 < hi2 or hi2 == 1.0):
                return j
            return None
        for c in point:
            edges, children = node
            i = bisect_right(edges, c) - 1
            if i < 0:
                return None
            node = children[i]
        for c, side in zip(point, uppers):
            hi = side[node]
            if not (c < hi or hi == 1.0):
                return None
        return node


def make_partition(space: Space, cells: Sequence[Cell]) -> Partition:
    """Validate cells as a partition of the space and compute measures.

    Cells must be nonempty, pairwise disjoint (positive-measure overlap
    is an error), and cover the space: every atom exactly once on finite
    spaces, total volume 1 within MASS_TOL on cube spaces.
    """
    cells = tuple(cells)
    if not cells:
        raise CoverError("a partition needs at least one cell")
    for j, cell in enumerate(cells):
        _validate_cell(space, cell, j)
    if isinstance(space, FiniteSpace):
        edges = None
        measures = tuple(math.fsum(space.weights[a] for a in cell.atoms) for cell in cells)
    else:
        edges = cell_edges(cells)
        measures = tuple(_volumes(*edges))
    for j, m in enumerate(measures):
        if not m > 0.0:
            raise EmptyCellError(f"cell {j} has measure {m!r}")
    if edges is None:
        owners: list[int | None] = [None] * space.n_atoms  # each atom's cell
        for j, cell in enumerate(cells):
            for a in cell.atoms:
                if owners[a] is not None:
                    raise OverlapError(f"cells {owners[a]} and {j} share atom {a}")
                owners[a] = j
        missing = [a for a, j in enumerate(owners) if j is None]
        if missing:
            raise CoverError(f"atoms {missing} belong to no cell")
        return Partition(space, cells, measures, None, tuple(owners))
    slabs = _sweep(edges)
    total = math.fsum(measures)
    if abs(total - 1.0) > MASS_TOL:
        raise CoverError(f"cell volumes sum to {total!r}, expected 1")
    return Partition(space, cells, measures, edges, slabs)


def equal_partition_1d(k: int) -> Partition:
    """[0,1] cut into k equal half-open cells, built from their edges.

    Edges that strictly increase from 0 to 1 are all make_partition
    would check: every cell [edges[j], edges[j + 1]) then lies in [0, 1]
    and is nonempty, consecutive cells share only an endpoint, so the
    cells are disjoint, and together they cover [0, 1].  The edges i / k
    strictly increase: neighbours differ by 1 / k, more than two ulps of
    any number below 1 for every k < 2**52, so they round apart.  Each
    measure hi - lo, the float ``_volumes`` gives for one axis, is exact
    by Sterbenz's lemma, as lo = 0 or lo >= hi / 2, so their fsum
    telescopes to exactly 1.0.  The cells need no sweep either: they are already sorted by
    lower edge, and the slab index of ordered disjoint intervals is their
    lower edges with slab j holding cell j.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    edges = [i / k for i in range(k)] + [1.0]
    lowers, uppers = edges[:-1], edges[1:]
    measures = tuple(map(sub, uppers, lowers))
    # BoxCell.__init__ would run float() over floats again, so the fields
    # are set through the slot descriptors, past the frozen __setattr__;
    # zip over one list yields the 1-tuples (lo,) and (hi,)
    cells = tuple(map(object.__new__, repeat(BoxCell, k)))
    set_lower, set_upper = BoxCell.lower.__set__, BoxCell.upper.__set__
    for cell, lower, upper in zip(cells, zip(lowers), zip(uppers)):
        set_lower(cell, lower)
        set_upper(cell, upper)
    return Partition(make_cube_space(1), cells, measures, ([lowers], [uppers]),
                     (lowers, range(k)))


def _canonical_cell_text(cell: Cell) -> str:
    if isinstance(cell, FiniteCell):
        return "F:" + ",".join(str(a) for a in cell.atoms)
    spans = ";".join(f"{repr(lo)}..{repr(hi)}" for lo, hi in zip(cell.lower, cell.upper))
    return "B:" + spans


def partition_hash(partition: Partition) -> str:
    """Stable 16-hex digest of the space and cell layout."""
    space = partition.space
    if isinstance(space, FiniteSpace):
        head = "finite|" + ",".join(
            f"{label}:{repr(w)}" for label, w in zip(space.labels, space.weights)
        )
    else:
        head = f"cube:{space.dimension}"
    body = "|".join(_canonical_cell_text(c) for c in partition.cells)
    digest = hashlib.sha256(f"{head}|{body}".encode("utf-8")).hexdigest()
    return digest[:16]

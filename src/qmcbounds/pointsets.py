"""Uniform point sets: allocation, construction, checking, enumeration.

A point set of size N is uniform for a partition when every cell M_j
contains exactly N * measure(M_j) nodes.  Those products must all be
integers for such a set to exist at all; ``allocation`` checks that
first and, on failure, suggests the smallest size above the request
that passes the same test.

``enumerate_uniform`` walks every uniform configuration of a finite
space as a product of per-cell multisets (node order within a cell never
matters to an average), which keeps the count to a product of
multichoose terms instead of a power of the atom count.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, combinations_with_replacement, islice, product, repeat
from operator import add, lt, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    EnumerationTooLargeError,
    InstanceFormatError,
    NonIntegerAllocationError,
    OutOfDomainError,
    QmcBoundsError,
)
from .spaces import (
    EdgeLists,
    FiniteCell,
    FiniteSpace,
    Partition,
    partition_hash,
)

# |N * measure - nearest integer| must stay within this for feasibility.
ALLOCATION_TOL = 1e-9

# Refuse to enumerate configuration sets larger than this by default.
DEFAULT_ENUMERATION_CAP = 10_000_000

STRATEGY_MIDPOINT = "cell-midpoint"
STRATEGY_EQUISPACED = "per-cell-equispaced"
STRATEGY_RANDOM = "seeded-random-in-cell"
STRATEGIES = (STRATEGY_MIDPOINT, STRATEGY_EQUISPACED, STRATEGY_RANDOM)


def _counts(measures: Sequence[float], n_points: int) -> tuple[int, ...] | None:
    """Per-cell node counts N * measure, or None unless every product is
    within ALLOCATION_TOL of an integer and those integers sum to N.

    The sum matters for huge N, where every float product is a whole
    number and the per-cell test alone passes without meaning anything.
    """
    try:
        targets = [n_points * m for m in measures]
        counts = tuple(map(round, targets))
    except OverflowError:
        raise QmcBoundsError(f"N = {n_points} is past the largest float") from None
    if max(map(abs, map(sub, targets, counts)), default=0.0) > ALLOCATION_TOL:
        return None
    return counts if sum(counts) == n_points else None


def _smallest_feasible(measures: Sequence[float], n_points: int) -> int | None:
    """Smallest N' > n_points that allocation accepts, if found.

    Tries the next three multiples of the measures' common denominator,
    the closed form for measures that are fractions; None when none of
    them passes.
    """
    denominators = [
        Fraction(m).limit_denominator(10**9).denominator for m in measures
    ]
    step = math.lcm(*denominators)
    candidate = (n_points // step + 1) * step
    for n in (candidate, candidate + step, candidate + 2 * step):
        if _counts(measures, n) is not None:
            return n
    return None


def allocation(partition: Partition, n_points: int) -> tuple[int, ...]:
    """Exact per-cell node counts N * measure(M_j), or a feasibility error.

    Accepted counts are kept in ``partition.allocations``, so asking
    again for the same N costs one lookup; a failure is worked out again
    every time.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    cache = partition.allocations
    counts = cache.get(n_points)
    if counts is not None:
        return counts
    measures = partition.measures
    counts = _counts(measures, n_points)
    if counts is not None:
        cache[n_points] = counts
        return counts
    suggested = _smallest_feasible(measures, n_points)
    if suggested is None:
        hint = f"no feasible size within ALLOCATION_TOL={ALLOCATION_TOL} was found"
    else:
        hint = f"smallest feasible size is {suggested}"
    for j, m in enumerate(measures):
        target = n_points * m
        if abs(target - round(target)) > ALLOCATION_TOL:
            raise NonIntegerAllocationError(
                f"cell {j} needs {target!r} nodes for n_points={n_points}; {hint}",
                cell_index=j,
                product=target,
                suggested_n=suggested,
            )
    total = sum(round(n_points * m) for m in measures)
    raise NonIntegerAllocationError(
        f"rounded cell counts sum to {total}, not {n_points}",
        suggested_n=suggested,
    )


@dataclass(frozen=True)
class UniformPointSet:
    """Nodes grouped by cell order, as ``partition.allocations[N]`` counts them;
    ``normal_on`` is the space every node is normal on when ``construct_uniform``
    built the set, else None, and is not in ``==``, hash or repr."""

    nodes: tuple
    normal_on: object = field(init=False, repr=False, compare=False, hash=False, default=None)
    _built_on: InitVar[object] = field(default=None, kw_only=True)

    def __post_init__(self, _built_on):
        object.__setattr__(self, "normal_on", _built_on)


@dataclass(frozen=True)
class UniformityReport:
    """Outcome of a uniformity check; truthy exactly when it passed."""

    ok: bool
    counts: tuple[int, ...]
    expected: tuple[float, ...]
    n_points: int
    off: tuple[int, ...]  # cells whose count is not N * measure, ascending

    def __bool__(self) -> bool:
        return self.ok


def _place_in_boxes(edges: EdgeLists, counts: Sequence[int], strategy: str,
                    rng: random.Random, avoid: frozenset) -> list[tuple[float, ...]]:
    """Nodes for every box in cell order, counts[j] of them in box j.

    ``edges`` is the boxes' per-axis ``(lowers, uppers)`` pair, a cube
    partition's ``edges``.  Every strategy is one list pass per axis over
    the bounds of each node's box: a midpoint is ``(lo + hi) / 2.0``, and
    an equispaced or seeded node is ``lo + (hi - lo) * u``, with u the
    ``(i - 0.5) / count`` of a box's i-th node, or a ``random()`` draw,
    which makes it ``random.uniform(lo, hi)`` bit for bit.

    A seeded node that leaves its box or hits a vetoed point is drawn
    again.  Only the open upper face, closed at 1.0, and the veto can
    reject a try: the product ``fl(hi - lo) * r`` is nonnegative and
    rounding is monotone, so adding it to ``lo`` never gives less than
    ``lo``.  The first try of every node is drawn and tested in one pass,
    and when any try is refused the one-node loop places every node
    again from those same draws, then fresh ones, as it would alone.
    """
    lowers, uppers = edges
    dim = len(lowers)
    # With one node per box (the refinement and perturbation runs) the
    # edge lists are the per-node lists; expanding them through one
    # repeat() per box took about half of the seeded placement's time.
    if counts.count(1) == len(counts):
        los, his = lowers, uppers
    else:
        los, his = [[list(chain.from_iterable(map(repeat, ends, counts))) for ends in side]
                    for side in (lowers, uppers)]
    if strategy == STRATEGY_MIDPOINT:
        return list(zip(*[[(lo + hi) / 2.0 for lo, hi in zip(ls, hs)]
                          for ls, hs in zip(los, his)]))
    if strategy == STRATEGY_EQUISPACED:
        us = [[(i - 0.5) / count for count in counts for i in range(1, count + 1)]] * dim
    else:
        # every node's first try at once, drawn in node order and axis order
        # as the loop below would draw them, so axis i reads every dim-th draw
        draws = list(islice(iter(rng.random, 1.0), sum(counts) * dim))  # random() < 1.0
        us = [islice(draws, axis, None, dim) for axis in range(dim)]
    axes = [list(map(add, ls, map(mul, map(sub, hs, ls), u))) for ls, hs, u in zip(los, his, us)]
    nodes = list(zip(*axes))
    if strategy == STRATEGY_EQUISPACED or (
            all(all(map(lt, coords, hs)) for coords, hs in zip(axes, his))
            and avoid.isdisjoint(nodes)):
        return nodes

    # a refused try: place every node one at a time, from the same draws
    draw, nodes = chain(draws, iter(rng.random, 1.0)).__next__, []
    for n, (bottoms, tops) in enumerate(zip(zip(*los), zip(*his))):
        while True:
            # the draw may round to the open face, closed at 1.0; spikes are vetoed
            node = tuple([lo + (hi - lo) * draw() for lo, hi in zip(bottoms, tops)])
            if node not in avoid and all(c < hi or c == hi == 1.0 for c, hi in zip(node, tops)):
                nodes.append(node)
                break
            if _every_point_vetoed(bottoms, tops, avoid):
                cell = next(j for j, end in enumerate(accumulate(counts)) if end > n)
                raise QmcBoundsError(f"every point of cell {cell} is vetoed, so no node "
                                     f"can be placed in it")
    return nodes


def _every_point_vetoed(bottoms, tops, avoid: frozenset) -> bool:
    """Whether ``avoid`` holds every float point of the box, whose
    seeded tries then never fit.

    An axis holds at least (hi - lo) / ulp(hi) floats, as no two of them
    below hi are more than ulp(hi) apart, so a box with more than
    len(avoid) of them on one axis is never all vetoed.  Below that
    bound lo is near hi, and the floats of each axis are listed one
    ``nextafter`` at a time, up to hi, which only 1.0 includes.
    """
    axes = []
    for lo, hi in zip(bottoms, tops):
        if hi - lo > len(avoid) * math.ulp(hi):
            return False
        floats = [lo]
        while (c := math.nextafter(floats[-1], 2.0)) < hi or c == hi == 1.0:
            floats.append(c)
        axes.append(floats)
    return (math.prod(map(len, axes)) <= len(avoid)
            and all(point in avoid for point in product(*axes)))


def _place_in_finite_cell(cell: FiniteCell, count: int, strategy: str,
                          rng: random.Random) -> list[int]:
    atoms = cell.atoms
    if strategy == STRATEGY_MIDPOINT:
        return [atoms[(len(atoms) - 1) // 2]] * count
    if strategy == STRATEGY_EQUISPACED:
        return [atoms[i % len(atoms)] for i in range(count)]
    return [rng.choice(atoms) for _ in range(count)]


def construct_uniform(partition: Partition, n_points: int,
                      strategy: str = STRATEGY_MIDPOINT, seed: int = 0,
                      avoid_points: Iterable = ()) -> UniformPointSet:
    """Build a uniform point set with the requested placement strategy.

    ``avoid_points`` lists exact coordinates the seeded-random strategy
    must never emit (spike overrides, typically); the deterministic
    strategies place nodes without drawing and ignore it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    counts = allocation(partition, n_points)
    rng = random.Random(seed)
    space = partition.space
    if isinstance(space, FiniteSpace):
        nodes: list = []
        for cell, count in zip(partition.cells, counts):
            nodes.extend(_place_in_finite_cell(cell, count, strategy, rng))
    else:
        avoid = frozenset(space.as_point(p) for p in avoid_points)
        nodes = _place_in_boxes(partition.edges, counts, strategy, rng, avoid)
    return UniformPointSet(tuple(nodes), _built_on=space)


def _as_nodes(pointset) -> tuple:
    if isinstance(pointset, UniformPointSet):
        return pointset.nodes
    return tuple(pointset)


def is_uniform(pointset, partition: Partition, *, normal: bool = False) -> UniformityReport:
    """Count nodes per cell and compare with the exact products N * measure.

    Nodes must lie in the space (error otherwise); a node in no cell is
    counted nowhere and shows up as a shortfall.  ``normal`` is passed on
    to every ``partition.cell_index_of``: it says that the nodes already
    are in the space's normal form, so none is checked.
    """
    nodes = _as_nodes(pointset)
    n = len(nodes)
    counts = [0] * partition.k
    lookup = partition.cell_index_of
    for node in nodes:
        j = lookup(node, normal=normal)
        if j is not None:
            counts[j] += 1
    expected = [n * m for m in partition.measures]
    nearest = list(map(round, expected))
    off = ()
    if counts != nearest or max(map(abs, map(sub, expected, nearest))) > ALLOCATION_TOL:
        off = tuple(j for j, (got, want, near) in enumerate(zip(counts, expected, nearest))
                    if abs(want - near) > ALLOCATION_TOL or got != near)
    return UniformityReport(n > 0 and not off, tuple(counts), tuple(expected), n, off)


@dataclass(frozen=True)
class ConfigurationStream:
    """Re-iterable stream over every uniform configuration of a finite space.

    Each configuration is a tuple over cells; the entry for cell j is a
    nondecreasing tuple of ``counts[j]`` of its atom indices ``cells[j]``
    (a multiset).  Iteration order is lexicographic by cell index, then
    by atom indices, and every call to iter() starts a fresh pass.  No
    multiset exists before the stream is iterated.
    """

    total_count: int
    cells: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        return product(*map(combinations_with_replacement, self.cells, self.counts))

    def __len__(self) -> int:
        return self.total_count


def enumerate_uniform(partition: Partition, n_points: int,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> ConfigurationStream:
    """All uniform configurations of the partition's finite space, as
    per-cell multisets of atom indices.

    The count is the product over cells of multichoose(|cell|, count);
    anything above ``cap`` raises before any work is done.
    """
    if not isinstance(partition.space, FiniteSpace):
        raise OutOfDomainError("exhaustive enumeration is defined for finite spaces only")
    counts = allocation(partition, n_points)
    total = 1
    for cell, count in zip(partition.cells, counts):
        total *= math.comb(len(cell.atoms) + count - 1, count)
    if total > cap:
        raise EnumerationTooLargeError(
            f"{total} configurations exceed the cap of {cap}"
        )
    return ConfigurationStream(total, tuple(cell.atoms for cell in partition.cells), counts)


def save_pointset(path, pointset, partition: Partition) -> None:
    """Write the text form: a header with N and the partition hash, then
    one node per line (atom label, or coordinates separated by spaces).
    A label that ``load_pointset``'s stripped lines would not read back
    as itself (empty, padded with whitespace, or holding a line break)
    is refused."""
    nodes = _as_nodes(pointset)
    space = partition.space
    lines = [f"# qmcbounds-pointset N={len(nodes)} partition={partition_hash(partition)}"]
    for node in nodes:
        if isinstance(space, FiniteSpace):
            atom = space.as_point(node)
            label = space.labels[atom]
            if not label or label != label.strip() or "\n" in label or "\r" in label:
                raise InstanceFormatError(f"atom {atom}'s label {label!r} would not read back: "
                                          "it is empty, padded or holds a line break")
            lines.append(label)
        else:
            lines.append(" ".join(repr(c) for c in space.as_point(node)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_pointset(path, partition: Partition) -> tuple:
    """Read the text form back as points of the partition's space, after
    checking that the header's hash is the partition's."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    if not raw or not raw[0][1].startswith("# qmcbounds-pointset"):
        raise InstanceFormatError(f"{path}: missing point-set header")
    header = raw[0][1]
    fields = dict(
        part.split("=", 1) for part in header[1:].split() if "=" in part
    )
    try:
        n_declared = int(fields["N"])
        hash_declared = fields["partition"]
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: malformed header {header!r}") from exc
    if partition_hash(partition) != hash_declared:
        raise InstanceFormatError(
            f"{path}: point set was written for a different partition"
        )
    space = partition.space
    nodes = []
    for lineno, line in raw[1:]:
        try:
            nodes.append(space.as_point(
                line if isinstance(space, FiniteSpace) else line.split()))
        except OutOfDomainError as exc:
            raise InstanceFormatError(f"{path}: line {lineno}: {exc}") from exc
    if len(nodes) != n_declared:
        raise InstanceFormatError(
            f"{path}: header declares {n_declared} nodes, file has {len(nodes)}"
        )
    return tuple(nodes)

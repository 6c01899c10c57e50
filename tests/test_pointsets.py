"""Allocation, construction, uniformity checks, enumeration, text format."""

import bisect
import collections
import dataclasses
import itertools
import math
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    BoxCell,
    EnumerationTooLargeError,
    FiniteCell,
    FunctionModel,
    InstanceFormatError,
    NonIntegerAllocationError,
    OutOfDomainError,
    Partition,
    PiecewiseConstant,
    QmcBoundsError,
    Quadratic,
    Sinusoid,
    allocation,
    bound_report,
    box,
    construct_uniform,
    enumerate_uniform,
    equal_partition_1d,
    interval,
    is_uniform,
    load_pointset,
    make_cube_space,
    make_finite_space,
    make_partition,
    save_pointset,
)
from qmcbounds import pointsets
from qmcbounds.pointsets import STRATEGIES, STRATEGY_RANDOM
from qmcbounds.spaces import cell_edges
from oracles import (
    brute_force_uniform_configs,
    hammersley_2d,
    per_cell_counts,
    per_cell_placement,
    per_cell_uniformity,
    sequential_seeded_placement,
    van_der_corput,
)


def two_cell_finite():
    space = make_finite_space([(str(i), 0.25) for i in range(1, 5)])
    return space, make_partition(space, [FiniteCell((0, 1)), FiniteCell((2, 3))])


def test_allocation_equal_quarters():
    # 4 equal cells, N=8: (2, 2, 2, 2)
    assert allocation(equal_partition_1d(4), 8) == (2, 2, 2, 2)


def test_allocation_infeasible_suggests_next_size():
    # 4 equal cells, N=6: 1.5 nodes per cell; smallest feasible is 8
    with pytest.raises(NonIntegerAllocationError) as err:
        allocation(equal_partition_1d(4), 6)
    assert err.value.suggested_n == 8
    assert err.value.product == 1.5


def test_allocation_finite_uneven():
    # weights (0.25, 0.75), N=4: (1, 3)
    space = make_finite_space([("a", 0.25), ("b", 0.75)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    assert allocation(p, 4) == (1, 3)


def test_allocation_thirds():
    p = make_partition(
        make_cube_space(1),
        [interval(0, 1 / 3), interval(1 / 3, 2 / 3), interval(2 / 3, 1)],
    )
    assert allocation(p, 9) == (3, 3, 3)
    with pytest.raises(NonIntegerAllocationError) as err:
        allocation(p, 4)
    assert err.value.suggested_n == 6


@pytest.mark.parametrize("cuts", [(0.123456789123,), (0.1234567, 0.5, 0.777777777)])
def test_allocation_suggests_only_sizes_it_accepts(cuts):
    # past 2**53 every float product is whole, so a per-cell test alone
    # passes sizes whose rounded counts do not sum to N
    edges = (0.0,) + cuts + (1.0,)
    p = make_partition(make_cube_space(1),
                       [interval(a, b) for a, b in zip(edges, edges[1:])])
    with pytest.raises(NonIntegerAllocationError) as err:
        allocation(p, 7)
    suggested = err.value.suggested_n
    if suggested is not None:
        assert sum(allocation(p, suggested)) == suggested


def test_allocation_without_a_feasible_size_says_so(monkeypatch):
    # none of the common-denominator sizes of a cut at 0.123456789123
    # passes; the message says so rather than "smallest feasible size is
    # None", and no scan over further sizes runs first
    p = make_partition(make_cube_space(1),
                       [interval(0.0, 0.123456789123), interval(0.123456789123, 1.0)])
    tried = []
    counts = pointsets._counts

    def counting(measures, n_points):
        tried.append(n_points)
        return counts(measures, n_points)

    monkeypatch.setattr(pointsets, "_counts", counting)
    with pytest.raises(NonIntegerAllocationError) as err:
        allocation(p, 7)
    assert err.value.suggested_n is None
    assert "no feasible size within ALLOCATION_TOL=1e-09 was found" in str(err.value)
    assert "None" not in str(err.value)
    assert len(tried) <= 4


@st.composite
def allocation_cases(draw):
    """(measures, N): cells of a partition in units of 1/D, the same
    moved by about the allocation tolerance, or arbitrary floats; N a
    multiple of D, any small N, or a huge one."""
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("units", "nudged", "floats")))
    if kind == "floats":
        measures = draw(st.lists(st.floats(1e-12, 1.0), min_size=k, max_size=k))
        denominator = 1
    else:
        units = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
        denominator = sum(units)
        measures = [u / denominator for u in units]
        if kind == "nudged":
            nudge = st.sampled_from((0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-16))
            measures = [m + draw(nudge) / denominator for m in measures]
    n_points = draw(st.one_of(st.integers(1, 8).map(lambda c: c * denominator),
                              st.integers(1, 256), st.integers(2**50, 2**70)))
    return measures, n_points


@settings(max_examples=500, deadline=None)
@given(case=allocation_cases())
def test_counts_match_the_per_cell_loop(case):
    measures, n_points = case
    got = pointsets._counts(measures, n_points)
    assert got == per_cell_counts(measures, n_points, pointsets.ALLOCATION_TOL)
    assert got is None or all(type(c) is int for c in got)


def test_allocation_is_kept_per_partition(monkeypatch):
    p = equal_partition_1d(4)
    tried = []
    counts = pointsets._counts

    def counting(measures, n_points):
        tried.append(n_points)
        return counts(measures, n_points)

    monkeypatch.setattr(pointsets, "_counts", counting)
    first = allocation(p, 8)
    assert allocation(p, 8) is first
    assert tried == [8]
    assert allocation(p, 12) == (3, 3, 3, 3)
    assert tried == [8, 12]
    # a new partition of the same cells works its counts out again
    assert allocation(equal_partition_1d(4), 8) == first
    assert tried == [8, 12, 8]


def test_allocation_cache_is_not_part_of_the_partition():
    p = equal_partition_1d(4)
    fresh = equal_partition_1d(4)
    text = repr(p)
    allocation(p, 8)
    assert p.allocations == {8: (2, 2, 2, 2)} and fresh.allocations == {}
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == text
    # nor are the edge lists and the slab index: without them, and with
    # no allocations, the partition still compares, hashes and prints
    # the same
    bare = dataclasses.replace(p, edges=None, slabs=None)
    assert (bare.edges, bare.slabs, bare.allocations) == (None, None, {})
    assert bare == p and hash(bare) == hash(p) and repr(bare) == text


def test_allocation_failure_raises_on_every_call():
    p = equal_partition_1d(3)
    for _ in range(3):
        with pytest.raises(NonIntegerAllocationError) as err:
            allocation(p, 4)
        assert err.value.suggested_n == 6
    assert allocation(p, 6) == (2, 2, 2)
    with pytest.raises(NonIntegerAllocationError):
        allocation(p, 4)


def test_construct_midpoint_quarters():
    # 4 equal cells, N=4: nodes (0.125, 0.375, 0.625, 0.875)
    p = equal_partition_1d(4)
    ps = construct_uniform(p, 4, "cell-midpoint")
    assert ps.nodes == ((0.125,), (0.375,), (0.625,), (0.875,))
    assert p.allocations[4] == (1, 1, 1, 1)


def test_construct_equispaced_two_cells():
    # 2 equal cells, N=4: (0.125, 0.375 | 0.625, 0.875), verified uniform
    p = equal_partition_1d(2)
    ps = construct_uniform(p, 4, "per-cell-equispaced")
    assert ps.nodes == ((0.125,), (0.375,), (0.625,), (0.875,))
    assert is_uniform(ps, p)


def test_construct_finite_strategies():
    space, p = two_cell_finite()
    mid = construct_uniform(p, 4, "cell-midpoint")
    assert mid.nodes == (0, 0, 2, 2)
    eq = construct_uniform(p, 4, "per-cell-equispaced")
    assert eq.nodes == (0, 1, 2, 3)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("k,n_points", [(1, 1), (2, 4), (4, 4), (4, 16), (8, 8)])
def test_construct_is_always_uniform_cube(strategy, k, n_points):
    p = equal_partition_1d(k)
    for seed in range(5):
        ps = construct_uniform(p, n_points, strategy, seed=seed)
        report = is_uniform(ps, p)
        assert report.ok, report


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_construct_is_always_uniform_finite(strategy):
    space, p = two_cell_finite()
    for n_points in (2, 4, 8):
        ps = construct_uniform(p, n_points, strategy, seed=1)
        assert is_uniform(ps, p)


def test_construct_seeded_random_deterministic():
    p = equal_partition_1d(4)
    a = construct_uniform(p, 8, STRATEGY_RANDOM, seed=42)
    b = construct_uniform(p, 8, STRATEGY_RANDOM, seed=42)
    c = construct_uniform(p, 8, STRATEGY_RANDOM, seed=43)
    assert a.nodes == b.nodes
    assert a.nodes != c.nodes


def test_construct_avoids_listed_points():
    p = equal_partition_1d(1)
    rng = random.Random(7)
    forbidden = tuple((rng.uniform(0, 1),) for _ in range(50))
    ps = construct_uniform(p, 64, STRATEGY_RANDOM, seed=7, avoid_points=forbidden)
    assert not set(ps.nodes) & set(forbidden)


def _as_hex(nodes):
    return [[c.hex() for c in node] for node in nodes]


def _guillotine(counts, dimension):
    """Boxes with measures counts[j] / sum(counts), in the order of counts,
    cut from the cube by halving the list and the box, axis by axis."""
    def cut(lower, upper, part, depth):
        if len(part) == 1:
            return [BoxCell(lower, upper)]
        axis = depth % dimension
        half = len(part) // 2
        at = lower[axis] + (upper[axis] - lower[axis]) * (sum(part[:half]) / sum(part))
        left_upper = upper[:axis] + (at,) + upper[axis + 1:]
        right_lower = lower[:axis] + (at,) + lower[axis + 1:]
        return (cut(lower, left_upper, part[:half], depth + 1)
                + cut(right_lower, upper, part[half:], depth + 1))

    return make_partition(make_cube_space(dimension),
                          cut((0.0,) * dimension, (1.0,) * dimension, counts, 0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(1, 3), min_size=1, max_size=7),
       st.integers(0, 2 ** 64))
def test_seeded_placement_matches_the_one_try_loop(dimension, counts, seed):
    p = _guillotine(counts, dimension)
    n_points = sum(counts)
    assert allocation(p, n_points) == tuple(counts)
    ps = construct_uniform(p, n_points, STRATEGY_RANDOM, seed=seed)
    assert _as_hex(ps.nodes) == _as_hex(
        sequential_seeded_placement(p.cells, counts, seed))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_seeded_placement_redraws_avoided_first_tries(dimension):
    counts = [2, 1, 3, 1, 2]
    p = _guillotine(counts, dimension)
    n_points = sum(counts)
    first_tries = construct_uniform(p, n_points, STRATEGY_RANDOM, seed=5).nodes
    for picked in ([0], [n_points - 1], [3], [0, 4, n_points - 1], range(n_points)):
        avoid = [first_tries[i] for i in picked]
        nodes = construct_uniform(p, n_points, STRATEGY_RANDOM, seed=5,
                                  avoid_points=avoid).nodes
        assert _as_hex(nodes) == _as_hex(
            sequential_seeded_placement(p.cells, counts, 5, avoid))
        assert not set(nodes) & set(avoid)
        assert nodes[:picked[0]] == first_tries[:picked[0]]
        assert is_uniform(nodes, p)


@pytest.mark.parametrize("partition, n_points", [
    (equal_partition_1d(7), 7),
    (equal_partition_1d(7), 21),
    (_guillotine([1] * 5, 1), 5),
    (_guillotine([2, 1, 3, 1, 2], 1), 9),
    (_guillotine([1] * 6, 2), 6),
    (_guillotine([2, 1, 3, 1, 2], 2), 18),
], ids=["1d-one", "1d-three", "1d-cut-one", "1d-cut-several", "2d-one", "2d-several"])
def test_seeded_placement_without_vetoes_matches_a_veto_that_misses(partition, n_points):
    # an empty veto skips the veto test, and a 1-D layout takes its widths
    # from the measures; neither moves a bit of what a veto missing every
    # node gives, which pays for the test
    counts = allocation(partition, n_points)
    misses = [(0.0625,) * partition.space.dimension, (1.0,) * partition.space.dimension]
    for seed in range(51):
        free = construct_uniform(partition, n_points, STRATEGY_RANDOM, seed=seed,
                                 avoid_points=())
        vetoed = construct_uniform(partition, n_points, STRATEGY_RANDOM, seed=seed,
                                   avoid_points=misses)
        assert not set(vetoed.nodes) & set(misses)
        assert _as_hex(free.nodes) == _as_hex(vetoed.nodes)
        assert _as_hex(free.nodes) == _as_hex(
            sequential_seeded_placement(partition.cells, counts, seed))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_placement_in_cells_one_ulp_wide(seed):
    # lo + ulp * r rounds up onto the open face about half the time
    lo = 0.3
    ulp = math.nextafter(lo, 1.0)
    cells = [BoxCell((0.0,), (lo,)), BoxCell((lo,), (ulp,)), BoxCell((ulp,), (1.0,)),
             BoxCell((0.0, lo), (1.0, ulp))]
    counts = [2, 5, 1, 0]
    nodes = pointsets._place_in_boxes(cell_edges(cells[:3]), counts[:3], STRATEGY_RANDOM,
                                      random.Random(seed), frozenset())
    assert _as_hex(nodes) == _as_hex(
        sequential_seeded_placement(cells[:3], counts[:3], seed))
    assert nodes[2:7] == [(lo,)] * 5
    # the same squeeze on axis 1 of a 2-D box, between two ordinary cells
    flat = [BoxCell((0.0, 0.0), (0.5, lo)), cells[3], BoxCell((0.0, ulp), (1.0, 1.0))]
    nodes = pointsets._place_in_boxes(cell_edges(flat), [3, 4, 3], STRATEGY_RANDOM,
                                      random.Random(seed), frozenset())
    assert _as_hex(nodes) == _as_hex(sequential_seeded_placement(flat, [3, 4, 3], seed))
    assert all(node[1] == lo for node in nodes[3:7])


def test_seeded_placement_keeps_nodes_on_the_closed_face():
    # in [1 - 2**-53, 1] about half the tries round to exactly 1.0, which
    # the closed face keeps; no try is rejected
    below = math.nextafter(1.0, 0.0)
    cells = [BoxCell((0.0,), (below,)), BoxCell((below,), (1.0,))]
    nodes = pointsets._place_in_boxes(cell_edges(cells), [1, 16], STRATEGY_RANDOM,
                                      random.Random(3), frozenset())
    reference = sequential_seeded_placement(cells, [1, 16], 3)
    assert _as_hex(nodes) == _as_hex(reference)
    assert (1.0,) in nodes and (below,) in nodes
    rng = random.Random(3)
    assert [n[0] for n in nodes] == [below * rng.random()] + [
        below + (1.0 - below) * rng.random() for _ in range(16)]


# Boxes one float step below 1.0 on every axis, after an ordinary box,
# hold two floats per axis: the one below 1.0 and the closed face.
_BELOW = math.nextafter(1.0, 0.0)
_SQUEEZED = {
    1: [BoxCell((0.0,), (_BELOW,)), BoxCell((_BELOW,), (1.0,))],
    2: [BoxCell((0.0, 0.0), (1.0, 0.5)), BoxCell((_BELOW, _BELOW), (1.0, 1.0))],
}


@pytest.mark.parametrize("dimension", [1, 2])
def test_seeded_placement_refuses_a_box_whose_every_point_is_vetoed(dimension):
    # the redraw loop would draw forever: no try can fit
    cells = _SQUEEZED[dimension]
    every = frozenset(itertools.product([_BELOW, 1.0], repeat=dimension))
    with pytest.raises(QmcBoundsError, match="every point of cell 1 is vetoed"):
        pointsets._place_in_boxes(cell_edges(cells), [1, 2], STRATEGY_RANDOM,
                                  random.Random(3), every)


@pytest.mark.parametrize("dimension", [1, 2])
def test_seeded_placement_finds_the_one_point_a_veto_leaves(dimension):
    cells = _SQUEEZED[dimension]
    every = sorted(itertools.product([_BELOW, 1.0], repeat=dimension))
    for left in every:
        avoid = frozenset(every) - {left}
        nodes = pointsets._place_in_boxes(cell_edges(cells), [1, 2], STRATEGY_RANDOM,
                                          random.Random(3), avoid)
        assert nodes[1:] == [left, left]
        assert _as_hex(nodes) == _as_hex(sequential_seeded_placement(cells, [1, 2], 3, avoid))


@st.composite
def product_grid_axes(draw):
    """The (lo, hi) spans of 1-3 axes, each cut at the partial sums of
    integer weights over their total, and a node multiplier: a grid cell
    holds the product of its spans' weights times the multiplier, 1-4
    nodes in all.  Totals such as 3 or 5 give edges that are not dyadic."""
    budget, axes, totals = 4, [], []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(1, budget), min_size=1, max_size=5))
        budget //= max(weights)
        cuts = list(itertools.accumulate(weights, initial=0))
        axes.append([(a / cuts[-1], b / cuts[-1]) for a, b in zip(cuts, cuts[1:])])
        totals.append(cuts[-1])
    return axes, draw(st.integers(1, budget)) * math.prod(totals)


def _grid_cells(axes):
    return [BoxCell(*zip(*spans)) for spans in itertools.product(*axes)]


def _per_cell_nodes(cells, counts, strategy, seed, avoid):
    if strategy == STRATEGY_RANDOM:
        return sequential_seeded_placement(cells, counts, seed, avoid)
    return per_cell_placement(cells, counts, strategy)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 48), st.integers(1, 4)), product_grid_axes()),
       st.sampled_from(STRATEGIES), st.integers(0, 2 ** 64),
       st.lists(st.integers(0, 2 ** 16), max_size=4))
def test_placement_matches_the_per_cell_loops(layout, strategy, seed, vetoed):
    # equal_partition_1d(k) with 1-4 nodes per cell, or a product grid
    if isinstance(layout[0], int):
        k, per_cell = layout
        partition, n_points, axes = equal_partition_1d(k), k * per_cell, None
    else:
        axes, n_points = layout
        partition = make_partition(make_cube_space(len(axes)), _grid_cells(axes))
    counts = allocation(partition, n_points)
    assert 1 <= min(counts) and max(counts) <= 4
    first_tries = construct_uniform(partition, n_points, strategy, seed=seed).nodes
    avoid = [first_tries[i % n_points] for i in vetoed]
    nodes = construct_uniform(partition, n_points, strategy, seed=seed, avoid_points=avoid).nodes
    assert _as_hex(nodes) == _as_hex(
        _per_cell_nodes(partition.cells, counts, strategy, seed, avoid))
    if axes is None:
        return
    # the top cell of every axis cut in two squeezed to one ulp below 1.0,
    # where about half of the seeded tries round onto the closed face; no
    # veto, which could take both values a 1-D squeezed cell can hold
    below = math.nextafter(1.0, 0.0)
    axes = [spans[:-2] + [(spans[-2][0], below), (below, 1.0)] if len(spans) > 1 else spans
            for spans in axes]
    cells = _grid_cells(axes)
    nodes = pointsets._place_in_boxes(cell_edges(cells), counts, strategy,
                                      random.Random(seed), frozenset())
    assert _as_hex(nodes) == _as_hex(_per_cell_nodes(cells, counts, strategy, seed, ()))


def test_is_uniform_trivial_partition():
    # any nonempty point set is uniform for the one-cell partition
    p = equal_partition_1d(1)
    assert is_uniform([(0.1,), (0.9,), (0.3,)], p)


def test_is_uniform_counts_mismatch():
    p = equal_partition_1d(4)
    report = is_uniform([(0.1,), (0.2,), (0.3,), (0.8,)], p)
    assert not report.ok
    assert report.counts == (2, 1, 0, 1)
    assert report.expected == (1.0, 1.0, 1.0, 1.0)


def test_is_uniform_lists_the_cells_that_are_off():
    p = equal_partition_1d(4)
    assert is_uniform([(0.1,), (0.2,), (0.3,), (0.8,)], p).off == (0, 2)
    assert is_uniform([(0.1,), (0.3,), (0.6,), (0.8,)], p).off == ()
    assert is_uniform([], p).off == ()
    assert not is_uniform([], p)


def _uniformity_partition(spec):
    """("line", k) is equal_partition_1d(k); ("grid", cuts) is the
    product of the intervals that each axis's inner cuts make."""
    if spec[0] == "line":
        return equal_partition_1d(spec[1])
    axes = [list(zip((0.0,) + cuts, cuts + (1.0,))) for cuts in spec[1]]
    cells = [box(*spans) for spans in itertools.product(*axes)]
    return make_partition(make_cube_space(len(axes)), cells)


CUTS = st.lists(st.sampled_from([1 / 8, 0.25, 0.3, 1 / 3, 0.5, 2 / 3, 0.7, 0.75, 0.9]),
                unique=True, max_size=3).map(lambda cuts: tuple(sorted(cuts)))


@st.composite
def uniformity_cases(draw):
    """(partition spec, nodes): a uniform set of the partition when its
    size is feasible, else random nodes, then nodes moved, dropped or
    added, often onto cell edges."""
    if draw(st.booleans()):
        spec = ("line", draw(st.integers(1, 16)))
        ticks = [[j / spec[1] for j in range(spec[1])] + [1.0]]
    else:
        spec = ("grid", tuple(draw(CUTS) for _ in range(draw(st.integers(1, 2)))))
        ticks = [[0.0, *cuts, 1.0] for cuts in spec[1]]
    p = _uniformity_partition(spec)
    point = st.tuples(*(st.one_of(st.floats(0.0, 1.0), st.sampled_from(t)) for t in ticks))
    n_points = draw(st.integers(0, 24))
    try:
        nodes = list(construct_uniform(p, n_points, STRATEGY_RANDOM,
                                       seed=draw(st.integers(0, 99))).nodes)
    except (NonIntegerAllocationError, ValueError):  # ValueError: no nodes
        nodes = draw(st.lists(point, min_size=n_points, max_size=n_points))
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(("move", "drop", "add")))
        if change == "add" or not nodes:
            nodes.append(draw(point))
        elif change == "drop":
            nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        else:
            nodes[draw(st.integers(0, len(nodes) - 1))] = draw(point)
    return spec, nodes


@settings(max_examples=300, deadline=None)
@given(case=uniformity_cases())
@example(case=(("line", 3), []))  # the empty set
@example(case=(("line", 3), [(0.1,), (0.5,), (0.9,), (0.2,)]))  # 4/3 nodes per cell
# N * measure is 0.5 and 1.5: the counts equal the nearest integers,
# which miss the products by a half
@example(case=(("grid", ((0.25,),)), [(0.5,), (0.6,)]))
@example(case=(("grid", ((1 / 3, 2 / 3), (0.5,))), [(0.1, 0.1)] * 10))
def test_is_uniform_matches_the_per_cell_loop(case):
    spec, nodes = case
    p = _uniformity_partition(spec)
    report = is_uniform(nodes, p)
    ok, counts, expected, off = per_cell_uniformity(
        [(c.lower, c.upper) for c in p.cells], p.measures, nodes, pointsets.ALLOCATION_TOL)
    assert report.ok is ok
    assert report.counts == counts
    assert type(report.expected) is tuple
    assert list(map(float.hex, report.expected)) == list(map(float.hex, expected))
    assert report.off == off
    assert report.n_points == len(nodes)


def test_is_uniform_rejects_out_of_space():
    p = equal_partition_1d(2)
    with pytest.raises(OutOfDomainError):
        is_uniform([(0.1,), (1.2,)], p)


def test_is_uniform_permutation_invariant():
    p = equal_partition_1d(4)
    nodes = [(0.875,), (0.125,), (0.625,), (0.375,)]
    assert is_uniform(nodes, p)
    assert is_uniform(list(reversed(nodes)), p)


def test_uniform_for_refinement_implies_uniform_for_parent():
    # counts aggregate across split cells when the parent allocation is integral
    parent = equal_partition_1d(2)
    refined = make_partition(
        parent.space, [interval(0, 0.25), interval(0.25, 0.5), interval(0.5, 1)]
    )
    for seed in range(5):
        ps = construct_uniform(refined, 8, STRATEGY_RANDOM, seed=seed)
        assert is_uniform(ps, refined)
        assert is_uniform(ps, parent)


def test_enumerate_two_atoms_single_cell():
    # {a: .5, b: .5}, one cell, N=2: multisets {aa, ab, bb}
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = make_partition(space, [FiniteCell(range(space.n_atoms))])
    stream = enumerate_uniform(p, 2)
    assert stream.total_count == 3
    assert list(stream) == [((0, 0),), ((0, 1),), ((1, 1),)]
    # re-iterable: a second pass yields the same configurations
    assert list(stream) == [((0, 0),), ((0, 1),), ((1, 1),)]


def test_enumerate_two_cells_product():
    # cells {1,2} and {3,4}, one node each: 2 x 2 configurations
    space, p = two_cell_finite()
    stream = enumerate_uniform(p, 2)
    assert stream.total_count == 4
    assert list(stream) == [
        ((0,), (2,)), ((0,), (3,)), ((1,), (2,)), ((1,), (3,)),
    ]


def test_enumerate_singleton_cells():
    # every cell a singleton: exactly one configuration
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    stream = enumerate_uniform(p, 2)
    assert stream.total_count == 1
    assert list(stream) == [((0,), (1,))]


def test_enumerate_counts_match_multichoose():
    space = make_finite_space([(f"a{i}", 0.125) for i in range(8)])
    p = make_partition(space, [FiniteCell((0, 1, 2)), FiniteCell((3, 4)),
                               FiniteCell((5, 6, 7))])
    counts = allocation(p, 8)  # (3, 2, 3)
    stream = enumerate_uniform(p, 8)
    expected = 1
    for cell, c in zip(p.cells, counts):
        expected *= math.comb(len(cell.atoms) + c - 1, c)
    assert stream.total_count == expected
    assert sum(1 for _ in stream) == expected


def test_enumerate_matches_brute_force():
    """Cross-check against ordered-tuple brute force on small instances."""
    cases = [
        ([("a", 0.5), ("b", 0.5)], [(0, 1)], 2),
        ([("a", 0.5), ("b", 0.5)], [(0, 1)], 4),
        ([("a", 0.25), ("b", 0.25), ("c", 0.5)], [(0, 1), (2,)], 4),
        ([(str(i), 0.25) for i in range(4)], [(0, 1), (2, 3)], 4),
    ]
    for atoms, cells, n_points in cases:
        space = make_finite_space(atoms)
        p = make_partition(space, [FiniteCell(c) for c in cells])
        counts = allocation(p, n_points)
        stream = enumerate_uniform(p, n_points)
        got = set(stream)
        want = brute_force_uniform_configs(space.n_atoms, [set(c) for c in cells], counts)
        assert got == want
        assert stream.total_count == len(want)


def test_enumerate_builds_no_multiset_before_iteration():
    # one cell of 8 atoms, N = 16: 245,157 multisets, none of them built
    # until the stream is iterated
    space = make_finite_space([(f"a{i}", 0.125) for i in range(8)])
    p = make_partition(space, [FiniteCell(range(space.n_atoms))])
    tracemalloc.start()
    try:
        stream = enumerate_uniform(p, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.total_count == 245_157
    assert peak < 64 * 1024
    assert next(iter(stream)) == ((0,) * 16,)


def test_enumerate_respects_cap():
    space = make_finite_space([(f"a{i}", 0.125) for i in range(8)])
    p = make_partition(space, [FiniteCell(range(space.n_atoms))])
    with pytest.raises(EnumerationTooLargeError):
        enumerate_uniform(p, 16, cap=100)


def test_enumerate_rejects_cube_space():
    p = equal_partition_1d(2)
    with pytest.raises(OutOfDomainError):
        enumerate_uniform(p, 2)


def test_pointset_text_roundtrip_cube(tmp_path):
    p = equal_partition_1d(4)
    ps = construct_uniform(p, 8, STRATEGY_RANDOM, seed=3)
    path = tmp_path / "nodes.txt"
    save_pointset(path, ps, p)
    back = load_pointset(path, p)
    assert back == ps.nodes


def test_pointset_text_roundtrip_finite(tmp_path):
    space, p = two_cell_finite()
    ps = construct_uniform(p, 4, "per-cell-equispaced")
    path = tmp_path / "nodes.txt"
    save_pointset(path, ps, p)
    assert load_pointset(path, p) == ps.nodes
    text = path.read_text()
    assert text.splitlines()[0].startswith("# qmcbounds-pointset N=4 partition=")


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.text(), min_size=2, max_size=2, unique=True))
def test_pointset_labels_round_trip_or_are_refused(labels):
    """load_pointset strips each line, so save_pointset refuses, naming
    it, a label that would not read back as itself."""
    space = make_finite_space([(label, 0.5) for label in labels])
    p = make_partition(space, [FiniteCell((0, 1))])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nodes.txt")
        try:
            save_pointset(path, (1, 0), p)
        except InstanceFormatError as exc:
            assert any(repr(label) in str(exc) for label in labels)
            return
        assert load_pointset(path, p) == (1, 0)


def test_pointset_load_rejects_wrong_partition(tmp_path):
    p4 = equal_partition_1d(4)
    p2 = equal_partition_1d(2)
    ps = construct_uniform(p4, 4)
    path = tmp_path / "nodes.txt"
    save_pointset(path, ps, p4)
    with pytest.raises(InstanceFormatError):
        load_pointset(path, p2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       k=st.sampled_from([1, 2, 4, 8]),
       mult=st.sampled_from([1, 2, 3]))
def test_construct_uniform_property(seed, k, mult):
    """Every constructed set passes the uniformity check."""
    p = equal_partition_1d(k)
    n_points = k * mult
    ps = construct_uniform(p, n_points, STRATEGY_RANDOM, seed=seed)
    report = is_uniform(ps, p)
    assert report.ok
    assert report.counts == p.allocations[n_points]


def _counted(partition):
    """The partition with its cells, and the lists inside its edges and
    slab index, rebuilt as sequences that count item reads and iterations."""
    seen = collections.Counter()

    class Counted:
        def __getitem__(self, i):
            seen["reads"] += 1
            return super().__getitem__(i)

        def __iter__(self):
            seen["iterations"] += 1
            return super().__iter__()

    counted_list = type("CountedList", (Counted, list), {})

    def rebuild(node):
        if isinstance(node, tuple):  # (lowers, uppers) or (edges, children)
            return tuple(map(rebuild, node))
        return counted_list(map(rebuild, node)) if isinstance(node, (list, range)) else node

    cells = type("CountedTuple", (Counted, tuple), {})(partition.cells)
    return Partition(partition.space, cells, partition.measures,
                     rebuild(partition.edges), rebuild(partition.slabs)), seen


def test_counted_sequences_see_the_reads_of_bisect():
    counted, seen = _counted(equal_partition_1d(1024))
    bisect.bisect_right(counted.slabs[0], 0.3)
    assert seen == {"reads": 10}  # log2(1024); the (edges, children) pair is uncounted


@pytest.mark.parametrize("n_axis, n_points", [(None, 4096), (64, 8192)],
                         ids=["line-4096", "grid-64x64"])
def test_is_uniform_reads_logarithmically_many_items(n_axis, n_points):
    # counts what the lookup reads, so an inline scan of the cells or of
    # an edge list would show
    if n_axis is None:
        p = equal_partition_1d(n_points)
    else:
        p = make_partition(make_cube_space(2), [
            box((i / n_axis, (i + 1) / n_axis), (j / n_axis, (j + 1) / n_axis))
            for i in range(n_axis) for j in range(n_axis)])
    nodes = construct_uniform(p, n_points, STRATEGY_RANDOM, seed=9).nodes
    counted, seen = _counted(p)
    assert is_uniform(nodes, counted)
    per_node = 2 * math.ceil(math.log2(p.k)) + 4
    assert n_points * math.log2(p.k) <= seen["reads"] <= n_points * per_node
    assert seen["iterations"] == 0


def _dyadic_grid(p, q):
    """The 2**p x 2**q grid of equal boxes of the unit square."""
    return make_partition(make_cube_space(2), [
        box((i / 2**p, (i + 1) / 2**p), (j / 2**q, (j + 1) / 2**q))
        for i in range(2**p) for j in range(2**q)])


def _moved(nodes, i, axis, width):
    """nodes with node i moved by width on the axis, to the next interval
    up or, from the last one, down."""
    node = list(nodes[i])
    node[axis] += width if node[axis] + width < 1.0 else -width
    return [*nodes[:i], tuple(node), *nodes[i + 1:]]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 10), data=st.data())
def test_digital_nets_are_uniform(m, data):
    # every node sits on lower faces of the dyadic cells, where the
    # lookup tests only upper faces
    p, j = data.draw(st.integers(0, m)), data.draw(st.integers(0, m))
    i = data.draw(st.integers(0, 2**m - 1))
    net, grid = hammersley_2d(m), _dyadic_grid(p, m - p)
    line, intervals = [(x,) for x in van_der_corput(m)], equal_partition_1d(2**j)
    assert is_uniform(net, grid) and is_uniform(line, intervals)
    for partition, nodes in [(grid, net), (intervals, line)]:
        d = partition.space.dimension
        thirds = make_partition(partition.space, [
            box((0.0, 1 / 3), *[(0.0, 1.0)] * (d - 1)),
            box((1 / 3, 1.0), *[(0.0, 1.0)] * (d - 1))])
        for base in (Affine(0.25, (1.0, -0.5)[:d]),
                     Quadratic(0.1, (-0.7, 0.3)[:d], (0.9, -0.6)[:d]),
                     Sinusoid(1.0, 3.0, 0.5, axis=d - 1, dimension=d),
                     PiecewiseConstant(thirds, (2.0, -1.0))):
            report = bound_report(FunctionModel(base), partition, nodes)
            assert report.error <= report.bounds.corollary2
    if j > 0:
        assert not is_uniform(_moved(line, i, 0, 2.0**-j), intervals)
    if m > 0:  # across the columns of the grid, or its rows when it has one column
        axis, width = (0, 2.0**-p) if p > 0 else (1, 2.0**-m)
        assert not is_uniform(_moved(net, i, axis, width), grid)

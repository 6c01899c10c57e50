"""Spaces, cells, partitions."""

import itertools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcbounds import (
    BoxCell,
    CoverError,
    EmptyCellError,
    FiniteCell,
    NonPositiveWeightError,
    OutOfDomainError,
    OverlapError,
    WeightSumError,
    box,
    equal_partition_1d,
    interval,
    make_cube_space,
    make_finite_space,
    make_partition,
    partition_hash,
)
from qmcbounds import spaces
from oracles import first_overlapping_pair, generic_cube_point, per_box_volume, scan_cell_index


def test_make_finite_space_basic():
    space = make_finite_space([("a", 0.25), ("b", 0.75)])
    assert space.labels == ("a", "b")
    assert space.weights == (0.25, 0.75)
    assert space.n_atoms == 2
    assert space.as_point("b") == 1


def test_as_point_reads_a_string_as_a_label_and_an_int_as_an_index():
    # never converted with str(), so the int 1 is not the label "1"
    space = make_finite_space([("1", 0.5), ("0", 0.5)])
    assert space.as_point("1") == 0
    assert space.as_point(1) == 1


def test_make_finite_space_rejects_bad_sum():
    # {a: 0.3, b: 0.3} sums to 0.6
    with pytest.raises(WeightSumError):
        make_finite_space([("a", 0.3), ("b", 0.3)])


def test_make_finite_space_rejects_zero_weight():
    with pytest.raises(NonPositiveWeightError):
        make_finite_space([("a", 0.0), ("b", 1.0)])


def test_make_finite_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        make_finite_space([("a", 0.5), ("a", 0.5)])


def test_finite_as_point_accepts_labels_and_indices():
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    assert space.as_point("a") == 0
    assert space.as_point(1) == 1
    with pytest.raises(OutOfDomainError):
        space.as_point("zz")
    with pytest.raises(OutOfDomainError):
        space.as_point(2)


def test_cube_as_point_normalizes_scalars():
    space = make_cube_space(1)
    assert space.as_point(0.5) == (0.5,)
    with pytest.raises(OutOfDomainError):
        space.as_point(1.5)
    with pytest.raises(OutOfDomainError):
        space.as_point((0.5, 0.5))  # wrong dimension


def test_cube_as_point_rejects_nan():
    with pytest.raises(OutOfDomainError):
        make_cube_space(1).as_point(math.nan)
    with pytest.raises(OutOfDomainError):
        make_cube_space(2).as_point((0.5, math.nan))


@pytest.mark.parametrize("value", [True, object(), ("abc",)],
                         ids=["bool", "object", "text"])
def test_cube_as_point_rejects_non_numbers(value):
    with pytest.raises(OutOfDomainError):
        make_cube_space(1).as_point(value)


@pytest.mark.parametrize("value", ["01", "1", b"01", bytearray(b"\x00\x01")],
                         ids=["str", "digit", "bytes", "bytearray"])
def test_cube_as_point_rejects_bare_text(value):
    # a string iterates as characters, which float() would read as coordinates
    for d in (1, 2):
        with pytest.raises(OutOfDomainError, match="not a cube point"):
            make_cube_space(d).as_point(value)


@pytest.mark.parametrize("value", [10**400, (10**400,), [0.5, -10**400]],
                         ids=["scalar", "tuple", "list"])
def test_cube_as_point_rejects_integers_too_large_for_a_float(value):
    d = 1 if isinstance(value, int) else len(value)
    with pytest.raises(OutOfDomainError, match="outside"):
        make_cube_space(d).as_point(value)


def test_cube_as_point_returns_a_normal_tuple_itself():
    point = (0.25, 1.0)
    assert make_cube_space(2).as_point(point) is point
    for other in [(0.25, 1), [0.25, 1.0], (0.25, np.float64(1.0))]:
        normal = make_cube_space(2).as_point(other)
        assert normal == point and type(normal) is tuple
        assert all(type(c) is float for c in normal)


def test_cube_as_point_accepts_numpy_scalars_and_numeric_text():
    # point files are read as text coordinates, one token per axis
    assert make_cube_space(1).as_point(np.float64(0.25)) == (0.25,)
    point = make_cube_space(2).as_point(("0.5", np.float64(1.0)))
    assert point == (0.5, 1.0)
    assert all(type(c) is float for c in point)


# coordinates on both sides of every check the normalisation makes
COORDINATES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, math.nan, math.inf, -math.inf,
                     math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), -1.0, 2.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 3),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1.0).map(np.float64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def cube_point_inputs(draw):
    """(dimension, value): a tuple or list of coordinates, often of the
    right length and often normal but for one coordinate, or a bare
    coordinate."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([d, d, d, d - 1, d + 1]))
    if draw(st.booleans()):
        coords = draw(st.lists(COORDINATES, min_size=n, max_size=n))
    else:
        coords = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        if coords:
            coords[draw(st.integers(0, n - 1))] = draw(COORDINATES)
    kind = draw(st.sampled_from([tuple, tuple, list, "scalar"]))
    if kind == "scalar":
        return d, coords[0] if coords else 0.5
    return d, kind(coords)


@settings(max_examples=1000, deadline=None)
@given(case=cube_point_inputs())
@example(case=(1, (0.5,)))
@example(case=(2, (-0.0, 1.0)))
@example(case=(2, (0.5, math.nan)))
@example(case=(2, (0.5, 1)))
@example(case=(2, (True, 0.5)))
@example(case=(1, (math.nextafter(1.0, 2.0),)))
@example(case=(2, (0.5, math.nextafter(1.0, 2.0))))
@example(case=(3, (0.5, 0.5)))
def test_cube_as_point_matches_the_generic_loop(case):
    d, value = case
    try:
        expected = generic_cube_point(d, value)
    except OutOfDomainError as err:
        with pytest.raises(OutOfDomainError) as got:
            make_cube_space(d).as_point(value)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        return
    result = make_cube_space(d).as_point(value)
    assert (result is value) == (expected is value)
    assert type(result) is tuple
    assert [(type(c), repr(c)) for c in result] == [(type(c), repr(c)) for c in expected]


def test_box_contains_refuses_a_point_of_another_dimension():
    p = make_partition(make_cube_space(2), [box((0.0, 1.0), (0.0, 0.5)),
                                            box((0.0, 1.0), (0.5, 1.0))])
    assert p.cell_index_of((0.7, 0.2)) == 0
    for point in ((0.7,), (0.7, 0.2, 5.0), ()):
        with pytest.raises(OutOfDomainError):
            p.cell_index_of(point)


def test_make_partition_cube_quarters():
    # [0,1] into 4 equal cells, measures all 0.25
    p = equal_partition_1d(4)
    assert p.k == 4
    assert p.measures == (0.25, 0.25, 0.25, 0.25)


def test_make_partition_rejects_overlap():
    space = make_cube_space(1)
    with pytest.raises(OverlapError):
        make_partition(space, [interval(0, 0.6), interval(0.5, 1)])


def test_make_partition_rejects_gap():
    space = make_cube_space(1)
    with pytest.raises(CoverError):
        make_partition(space, [interval(0, 0.4), interval(0.5, 1)])


def test_make_partition_rejects_empty_cell():
    space = make_cube_space(1)
    with pytest.raises(EmptyCellError):
        make_partition(space, [interval(0, 0.5), interval(0.5, 0.5), interval(0.5, 1)])


def test_make_partition_rejects_a_volume_that_underflows():
    # every extent is positive, but their product 1e-400 rounds to 0.0
    cell = box((0.0, 1e-200), (0.0, 1e-200))
    with pytest.raises(EmptyCellError, match=re.escape("cell 0 has measure 0.0")):
        make_partition(make_cube_space(2), [cell])


def test_make_partition_finite_measures():
    # atoms 1..4 equal weight, cells {1,2} and {3,4}: measures (0.5, 0.5)
    space = make_finite_space([(str(i), 0.25) for i in range(1, 5)])
    p = make_partition(space, [FiniteCell((0, 1)), FiniteCell((2, 3))])
    assert p.measures == (0.5, 0.5)


def test_make_partition_finite_rejects_shared_atom():
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    with pytest.raises(OverlapError):
        make_partition(space, [FiniteCell((0,)), FiniteCell((0, 1))])


def test_make_partition_finite_rejects_missing_atom():
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    with pytest.raises(CoverError):
        make_partition(space, [FiniteCell((0,))])


def test_half_open_membership():
    p = equal_partition_1d(2)
    assert p.cell_index_of(0.0) == 0
    assert p.cell_index_of(0.5) == 1  # boundary belongs to the right cell
    assert p.cell_index_of(1.0) == 1  # top face is closed
    with pytest.raises(OutOfDomainError):
        p.cell_index_of(1.5)


def test_box_membership_2d():
    p = make_partition(make_cube_space(2), [
        box((lo, hi), (a, b)) for lo, hi in ((0.0, 0.5), (0.5, 1.0))
        for a, b in ((0.0, 0.5), (0.5, 1.0))])
    assert p.cell_index_of((0.0, 0.5)) == 1
    assert p.cell_index_of((0.25, 1.0)) == 1  # upper face at 1 is closed
    assert p.cell_index_of((0.5, 0.75)) == 3
    assert p.cell_index_of((0.25, 0.25)) == 0


def test_measures_always_sum_to_one():
    for k in (1, 2, 3, 7, 16):
        p = equal_partition_1d(k)
        assert abs(math.fsum(p.measures) - 1.0) <= 1e-12


def test_partition_hash_stable_and_layout_sensitive():
    p1 = equal_partition_1d(2)
    p2 = equal_partition_1d(2)
    p3 = equal_partition_1d(4)
    assert partition_hash(p1) == partition_hash(p2)
    assert partition_hash(p1) != partition_hash(p3)
    assert len(partition_hash(p1)) == 16


def test_overlap_message_names_pair_in_ascending_order():
    # cells 2 and 0 overlap on [0.3, 0.4); cell 2 comes first along axis 0
    space = make_cube_space(1)
    cells = [interval(0.3, 0.6), interval(0.6, 1), interval(0, 0.4)]
    with pytest.raises(OverlapError, match=r"^cells 0 and 2 overlap with positive volume$"):
        make_partition(space, cells)


def _grid(n):
    cells = [box((i / n, (i + 1) / n), (j / n, (j + 1) / n))
             for i in range(n) for j in range(n)]
    return make_partition(make_cube_space(2), cells)


def _line(k):
    """make_partition over the k intervals of equal_partition_1d(k)."""
    edges = [i / k for i in range(k)] + [1.0]
    cells = [interval(lo, hi) for lo, hi in zip(edges, edges[1:])]
    return make_partition(make_cube_space(1), cells)


def _leaf_entries(index):
    """Cells listed on the last axis of a slab index, with repeats."""
    edges, children = index
    if children and isinstance(children[0], int):
        return len(children)
    return sum(_leaf_entries(child) for child in children)


def test_partition_validation_is_near_linear(monkeypatch):
    # The sweep's work is a sort per slab plus one pass over each slab's
    # list, and every cell of a slab reaches a last-axis slab below it,
    # so the last-axis entries of the index it builds bound that work.
    built = []
    sweep = spaces._sweep

    def recording(cells):
        built.append(sweep(cells))
        return built[-1]

    monkeypatch.setattr(spaces, "_sweep", recording)
    for build, arg in ((_line, 1024), (_grid, 32)):
        p = build(arg)
        assert len(built) == 1
        assert _leaf_entries(built.pop()) <= 2 * p.k


@pytest.mark.parametrize("build, arg", [(_line, 64), (_grid, 8)], ids=["1d", "2d"])
def test_one_sweep_validates_and_indexes(monkeypatch, build, arg):
    calls = 0
    sweep = spaces._sweep

    def counting(cells):
        nonlocal calls
        calls += 1
        return sweep(cells)

    monkeypatch.setattr(spaces, "_sweep", counting)
    p = build(arg)
    for _ in range(3):
        for j, cell in enumerate(p.cells):
            assert p.cell_index_of(cell.lower) == j
    assert calls == 1


def test_equal_partition_matches_make_partition(monkeypatch):
    rng = random.Random(7)
    for k in [*range(1, 71), 1024]:
        built, checked = equal_partition_1d(k), _line(k)
        assert built.space == checked.space
        assert built.cells == checked.cells
        assert [m.hex() for m in built.measures] == [m.hex() for m in checked.measures]
        # the stored index is the one the sweep builds
        edges, children = built.slabs
        assert (edges, list(children)) == checked.slabs
        edges = edges + [1.0]
        for t in [0.0, *edges, 1.0, *(rng.random() for _ in range(50))]:
            assert built.cell_index_of(t) == checked.cell_index_of(t)
    # nothing is validated cell by cell or swept
    for name in ("_validate_cell", "_sweep", "make_partition"):
        monkeypatch.setattr(spaces, name, None)
    assert equal_partition_1d(1024).cell_index_of(0.5) == 512


def test_grid_lookup_scans_one_column():
    n = 32
    cells = [box((i / n, (i + 1) / n), (j / n, (j + 1) / n))
             for i in range(n) for j in range(n)]
    p = make_partition(make_cube_space(2), cells)
    for i in range(n):
        for j in range(n):
            assert p.cell_index_of(((i + 0.5) / n, (j + 0.5) / n)) == i * n + j


def _plain_index(index):
    """A slab index with its children as lists, for comparison."""
    edges, children = index
    return list(edges), [c if isinstance(c, int) else _plain_index(c) for c in children]


def assert_stored_geometry(p):
    """A cube partition holds its cells' edge lists and the slab index
    the sweep builds from them."""
    assert p.edges == spaces.cell_edges(p.cells)
    assert _plain_index(p.slabs) == _plain_index(spaces._sweep(p.edges))


@st.composite
def nested_splits(draw):
    """A random nested box split of [0, 1]^d, cells in shuffled order."""
    d = draw(st.integers(min_value=1, max_value=3))
    boxes = [((0.0,) * d, (1.0,) * d)]
    fractions = st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 0.75])
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        lower, upper = boxes.pop(draw(st.integers(0, len(boxes) - 1)))
        axis = draw(st.integers(0, d - 1))
        cut = lower[axis] + (upper[axis] - lower[axis]) * draw(fractions)
        if not lower[axis] < cut < upper[axis]:
            boxes.append((lower, upper))
            continue
        boxes.append((lower, upper[:axis] + (cut,) + upper[axis + 1:]))
        boxes.append((lower[:axis] + (cut,) + lower[axis + 1:], upper))
    return d, draw(st.permutations(boxes))


@settings(max_examples=100, deadline=None)
@given(family=nested_splits(), data=st.data())
def test_sweep_index_matches_linear_scan(family, data):
    d, boxes = family
    p = make_partition(make_cube_space(d), [BoxCell(lo, hi) for lo, hi in boxes])
    assert_stored_geometry(p)
    edges = [sorted({c for lo, hi in boxes for c in (lo[a], hi[a])}) for a in range(d)]
    unit = st.floats(min_value=0.0, max_value=1.0)
    for _ in range(30):
        random_point = tuple(data.draw(unit) for _ in range(d))
        edge_point = tuple(data.draw(st.sampled_from(edges[a])) for a in range(d))
        for point in (random_point, edge_point, (1.0,) * d):
            expected = scan_cell_index(boxes, point)
            assert expected is not None
            assert p.cell_index_of(point) == expected


@settings(max_examples=100, deadline=None)
@given(family=nested_splits())
def test_cube_measures_match_a_per_box_loop_bit_for_bit(family):
    d, boxes = family
    p = make_partition(make_cube_space(d), [BoxCell(lo, hi) for lo, hi in boxes])
    assert ([m.hex() for m in p.measures]
            == [per_box_volume(lo, hi).hex() for lo, hi in boxes])


@pytest.mark.parametrize("build, arg", [
    (_line, 1), (_line, 64), (_grid, 1), (_grid, 8),
    (equal_partition_1d, 1), (equal_partition_1d, 7), (equal_partition_1d, 1024),
], ids=["line1", "line64", "grid1", "grid8", "equal1", "equal7", "equal1024"])
def test_cube_partitions_hold_edges_and_slab_index(build, arg):
    assert_stored_geometry(build(arg))


def test_finite_partitions_hold_an_atom_index_and_no_edges():
    space = make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)])
    p = make_partition(space, [FiniteCell((2,)), FiniteCell((0, 1))])
    assert p.edges is None and p.slabs == (1, 1, 0)
    assert [p.cell_index_of(a) for a in "abc"] == [1, 1, 0]


# Narrower than the cover tolerance, so make_partition accepts the gaps.
GAP = 2.0 ** -44


@pytest.mark.parametrize("boxes, gap_points", [
    ([((0.0,), (0.5,)), ((0.5 + GAP,), (1.0,))],
     [(0.5,), (0.5 + GAP / 2,)]),
    ([((0.0, 0.0), (0.5 - GAP, 1.0)),
      ((0.5, 0.0), (1.0, 0.5)),
      ((0.5, 0.5 + GAP), (1.0, 1.0))],
     [(0.5 - GAP, 0.9), (0.5 - GAP / 2, 0.0), (0.7, 0.5), (0.7, 0.5 + GAP / 2),
      (1.0, 0.5)]),
], ids=["1d", "2d"])
def test_lookup_in_a_partition_with_gaps(boxes, gap_points):
    assert spaces.MASS_TOL > 2 * GAP
    d = len(boxes[0][0])
    p = make_partition(make_cube_space(d), [BoxCell(lo, hi) for lo, hi in boxes])
    for point in gap_points:
        assert scan_cell_index(boxes, point) is None
        assert p.cell_index_of(point) is None
    ticks = sorted({i / 16 for i in range(17)} | {c for lo, hi in boxes for c in lo + hi})
    grid = [(t,) for t in ticks] if d == 1 else [(s, t) for s in ticks for t in ticks]
    for point in grid:
        assert p.cell_index_of(point) == scan_cell_index(boxes, point)


def _ticks(values):
    """Each value with the floats next to it on both sides."""
    return sorted({t for v in values
                   for t in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))})


def assert_lookup_agrees(p, boxes, point):
    """cell_index_of answers as a scan does inside the cube, and refuses a
    point outside it as the space does."""
    if all(0.0 <= c <= 1.0 for c in point):
        assert p.cell_index_of(point) == scan_cell_index(boxes, point)
    else:
        with pytest.raises(OutOfDomainError, match="outside"):
            p.cell_index_of(point)


def _product_grid(cuts, data):
    """make_partition over the product of per-axis cuts, cells in a drawn
    order, and the cells as (lower, upper) pairs in that order."""
    boxes = [((), ())]
    for axis_cuts in cuts:
        boxes = [(lo + (a,), hi + (b,)) for lo, hi in boxes
                 for a, b in zip(axis_cuts, axis_cuts[1:])]
    boxes = data.draw(st.permutations(boxes))
    return make_partition(make_cube_space(len(cuts)), [BoxCell(lo, hi) for lo, hi in boxes]), boxes


# Above this many cells a layout's edges are sampled, since each scan reads every cell.
EVERY_EDGE_CELLS = 256


@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.one_of(st.integers(1, 64), st.integers(65, 2 ** 12), st.just(2 ** 12)),
       data=st.data())
def test_one_axis_lookup_agrees_with_a_scan_at_every_edge(k, data):
    p = equal_partition_1d(k)
    boxes = [(c.lower, c.upper) for c in p.cells]
    edges = [*p.edges[0][0], 1.0]
    if k > EVERY_EDGE_CELLS:
        edges = [0.0, 1.0, *data.draw(st.lists(st.sampled_from(edges), max_size=48))]
    for t in _ticks(edges):
        assert_lookup_agrees(p, boxes, (t,))
        if 0.0 <= t <= 1.0:  # a bare coordinate is the same point
            assert p.cell_index_of(t) == p.cell_index_of((t,))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=st.one_of(st.tuples(st.integers(1, 64)),
                       st.tuples(st.integers(1, 64), st.integers(1, 64)),
                       st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))),
       data=st.data())
def test_grid_lookup_agrees_with_a_scan_at_every_edge(shape, data):
    # one and two axes take the straight-line paths, three the loop
    cuts = [[i / n for i in range(n)] + [1.0] for n in shape]
    p, boxes = _product_grid(cuts, data)
    ticks = [_ticks(axis_cuts) for axis_cuts in cuts]
    if len(boxes) > EVERY_EDGE_CELLS:
        ticks = [[*t[:3], *t[-3:], *data.draw(st.lists(st.sampled_from(t), max_size=24))]
                 for t in ticks]
    # every tick of each axis, with drawn ticks of the other axes
    for axis, axis_ticks in enumerate(ticks):
        for t in axis_ticks:
            point = [data.draw(st.sampled_from(other)) for other in ticks]
            point[axis] = t
            assert_lookup_agrees(p, boxes, tuple(point))


@pytest.mark.parametrize("shape", [(1,), (5,), (1, 1), (3, 2), (2, 2, 2)],
                         ids=["1", "5", "1x1", "3x2", "2x2x2"])
def test_lookup_at_the_corners_of_the_cube(shape):
    d = len(shape)
    p = make_partition(make_cube_space(d), [
        BoxCell([c / n for c, n in zip(corner, shape)],
                [(c + 1) / n for c, n in zip(corner, shape)])
        for corner in itertools.product(*map(range, shape))])
    boxes = [(c.lower, c.upper) for c in p.cells]
    for point in itertools.product([0.0, -0.0, 1.0], repeat=d):
        expected = scan_cell_index(boxes, point)
        assert expected is not None
        assert p.cell_index_of(point) == expected
    assert p.cell_index_of((-0.0,) * d) == p.cell_index_of((0.0,) * d) == 0
    assert p.cell_index_of((1.0,) * d) == p.k - 1


@pytest.mark.parametrize("boxes", [
    [((0.0,), (0.5,)), ((0.5 + GAP,), (1.0,))],
    [((GAP,), (0.5,)), ((0.5,), (1.0,))],
    [((0.0, 0.0), (0.5 - GAP, 1.0)), ((0.5, 0.0), (1.0, 0.5)), ((0.5, 0.5 + GAP), (1.0, 1.0))],
    [((GAP, 0.0), (0.5, 1.0)), ((0.5, GAP), (1.0, 0.5)), ((0.5, 0.5), (1.0, 1.0))],
], ids=["1d", "1d-at-0", "2d", "2d-at-0"])
def test_lookup_in_a_gap_at_every_edge(boxes):
    d = len(boxes[0][0])
    p = make_partition(make_cube_space(d), [BoxCell(lo, hi) for lo, hi in boxes])
    ticks = [_ticks({c[a] for lo, hi in boxes for c in (lo, hi)} | {0.0, 0.25, 0.75, 1.0})
             for a in range(d)]
    misses = 0
    for point in itertools.product(*ticks):
        assert_lookup_agrees(p, boxes, point)
        misses += all(0.0 <= c <= 1.0 for c in point) and p.cell_index_of(point) is None
    for lower, upper in boxes:  # a point just inside a gap
        for axis, (lo, hi) in enumerate(zip(lower, upper)):
            for t in (lo - GAP / 2, hi + GAP / 2):
                point = (*lower[:axis], t, *lower[axis + 1:])
                if 0.0 <= t <= 1.0 and scan_cell_index(boxes, point) is None:
                    assert p.cell_index_of(point) is None
                    misses += 1
    assert misses > 2


def test_three_axis_lookup_refuses_points_outside_every_cell():
    # each axis cut at 0.5 and short of both 0 and 0.5 by GAP: 8 cells
    spans = [(GAP, 0.5), (0.5 + GAP, 1.0)]
    boxes = [tuple(zip(*c)) for c in itertools.product(spans, repeat=3)]
    p = make_partition(make_cube_space(3), [BoxCell(lo, hi) for lo, hi in boxes])
    below_first_edge = [(0.0, 0.7, 0.7), (0.7, GAP / 2, 0.7), (0.7, 0.7, 0.0)]
    in_gap = [(0.5, 0.7, 0.7), (0.7, 0.5 + GAP / 2, 0.7), (0.2, 0.2, 0.5)]
    for point in below_first_edge + in_gap:
        assert scan_cell_index(boxes, point) is None
        assert p.cell_index_of(point) is None
    on_faces_at_1 = {(1.0, 1.0, 1.0): 7, (1.0, 0.2, 0.7): 5, (0.2, 1.0, 0.2): 2,
                     (0.7, 0.7, 1.0): 7, (0.5 + GAP, 0.5 + GAP, 1.0): 7}
    for point, j in on_faces_at_1.items():
        assert scan_cell_index(boxes, point) == j
        assert p.cell_index_of(point) == j


def test_equal_partition_edges_increase_and_measures_sum_to_exactly_one():
    # the checks equal_partition_1d leaves out, on the partitions it builds
    for k in [*range(1, 4097), 2 ** 20]:
        p = equal_partition_1d(k)
        (lowers,), (uppers,) = p.edges
        assert lowers[0] == 0.0 and uppers[-1] == 1.0 and lowers[1:] == uppers[:-1]
        assert all(map(operator.lt, lowers, uppers))
        assert math.fsum(p.measures) == 1.0


@pytest.mark.parametrize("build, points", [
    (lambda: equal_partition_1d(8), [(0.5, 0.5), (), [0.1, 0.2]]),
    (lambda: _grid(4), [(0.5,), (0.5, 0.5, 0.5), 0.5]),
    (lambda: make_partition(make_cube_space(3), [box((0, 1), (0, 1), (0, 1))]),
     [(0.5, 0.5), (0.5,) * 4]),
], ids=["1d", "2d", "3d"])
def test_lookup_refuses_a_point_of_another_dimension(build, points):
    p = build()
    for point in points:
        with pytest.raises(OutOfDomainError) as raised:
            p.space.as_point(point)
        with pytest.raises(OutOfDomainError, match=re.escape(str(raised.value))):
            p.cell_index_of(point)


@settings(max_examples=100, deadline=None)
@given(family=nested_splits(), data=st.data())
def test_sweep_rejects_exactly_the_pairwise_overlaps(family, data):
    d, boxes = family
    j = data.draw(st.integers(0, len(boxes) - 1))
    axis = data.draw(st.integers(0, d - 1))
    lower, upper = (list(c) for c in boxes[j])
    lower[axis] = data.draw(st.floats(min_value=0.0, max_value=lower[axis]))
    upper[axis] = data.draw(st.floats(min_value=upper[axis], max_value=1.0))
    boxes[j] = (tuple(lower), tuple(upper))
    pair = first_overlapping_pair(boxes)
    cells = [BoxCell(lo, hi) for lo, hi in boxes]
    if pair is None:
        try:
            make_partition(make_cube_space(d), cells)
        except CoverError:
            pass
        return
    with pytest.raises(OverlapError) as caught:
        make_partition(make_cube_space(d), cells)
    named = tuple(map(int, re.match(r"cells (\d+) and (\d+) ", str(caught.value)).groups()))
    assert named[0] < named[1]
    assert first_overlapping_pair([boxes[i] for i in named]) == (0, 1)

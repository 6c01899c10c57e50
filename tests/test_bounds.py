"""Cell extrema, oscillation bounds, span distance."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    BoxCell,
    FiniteCell,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    OutOfDomainError,
    PiecewiseConstant,
    Quadratic,
    Sinusoid,
    bound_set,
    equal_partition_1d,
    interval,
    make_finite_space,
    make_cube_space,
    make_partition,
    worst_uniform_error,
)
from qmcbounds.bounds import cell_table, certification_slack
from oracles import (
    dense_range_1d,
    exact_affine_bounds,
    exact_piecewise_bounds,
    exact_quadratic_bounds,
    per_cell_bounds,
    per_cell_integral,
    per_cell_worst_uniform_error,
)

X = FunctionModel(Affine(0.0, (1.0,)))
X2 = FunctionModel(Quadratic(0.0, (0.0,), (1.0,)))
SIN = FunctionModel(Sinusoid(amplitude=1.0, frequency=1.0))


def finite_example():
    # atoms 1..4 equal weight, cells {1,2} {3,4}, f = (0, 1, 2, 4)
    space = make_finite_space([(str(i), 0.25) for i in range(1, 5)])
    p = make_partition(space, [FiniteCell((0, 1)), FiniteCell((2, 3))])
    f = FunctionModel(FiniteTable((0.0, 1.0, 2.0, 4.0), space.labels))
    return space, p, f


def test_cell_extrema_negative_constant():
    # f == -1 on the cell: the positive part vanishes, upper = lower = -1
    f = FunctionModel(Affine(-1.0, (0.0,)))
    e = f.essential_range(interval(0, 1))
    assert (e.hi, e.lo) == (-1.0, -1.0)
    assert e.hi - e.lo == 0.0


def test_cell_extrema_sign_change():
    # f(x) = x - 0.5 on [0,1]: upper 0.5, lower -0.5
    f = FunctionModel(Affine(-0.5, (1.0,)))
    e = f.essential_range(interval(0, 1))
    assert (e.hi, e.lo) == (0.5, -0.5)


def test_cell_extrema_sign_definite_branches():
    # strictly negative: both values from the negative part
    f_neg = FunctionModel(Affine(-2.0, (1.0,)))  # range (-2, -1)
    e = f_neg.essential_range(interval(0, 1))
    assert (e.hi, e.lo) == (-1.0, -2.0)
    # strictly positive: both values from the positive part
    f_pos = FunctionModel(Affine(1.0, (1.0,)))  # range (1, 2)
    e = f_pos.essential_range(interval(0, 1))
    assert (e.hi, e.lo) == (2.0, 1.0)
    # nonnegative touching zero
    e = X.essential_range(interval(0, 1))
    assert (e.hi, e.lo) == (1.0, 0.0)


def test_cell_extrema_spike_invisible():
    # x^2 with spike 100 at 0.5 still has extrema (1, 0) over [0,1]
    f = FunctionModel(Quadratic(0.0, (0.0,), (1.0,)), spikes=(((0.5,), 100.0),))
    e = f.essential_range(interval(0, 1))
    assert (e.hi, e.lo) == (1.0, 0.0)


def test_s_value_x_quarters():
    # f(x)=x over 4 equal cells: every oscillation 0.25
    assert bound_set(X, equal_partition_1d(4)).corollary1 == 0.25


def test_s_value_x2_two_cells():
    # oscillations 0.25 and 0.75: s = 0.75, grid oracle agrees
    p = equal_partition_1d(2)
    assert bound_set(X2, p).corollary1 == 0.75
    osc = []
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        lo, hi = dense_range_1d(lambda t: t * t, a, b)
        osc.append(hi - lo)
    assert abs(max(osc) - 0.75) < 1e-7


def test_s_value_constant_zero():
    f = FunctionModel(Affine(3.0, (0.0,)))
    assert bound_set(f, equal_partition_1d(8)).corollary1 == 0.0


def test_distance_to_span_values():
    assert bound_set(X, equal_partition_1d(4)).distance == 0.125
    assert bound_set(X2, equal_partition_1d(2)).distance == 0.375
    f = FunctionModel(Affine(2.0, (0.0,)))
    assert bound_set(f, equal_partition_1d(4)).distance == 0.0


def test_bound_set_x_quarters():
    # (theorem1, corollary1, corollary2) = (0.25, 0.25, 0.25)
    b = bound_set(X, equal_partition_1d(4))
    assert (b.theorem1, b.corollary1, b.corollary2) == (0.25, 0.25, 0.25)
    assert b.distance == 0.125
    assert b.exact


def test_bound_set_x2_two_cells():
    # S = 0.75; weighted sum 0.5*0.25 + 0.5*0.75 = 0.5
    b = bound_set(X2, equal_partition_1d(2))
    assert (b.theorem1, b.corollary1, b.corollary2) == (0.75, 0.75, 0.5)


def test_bound_set_finite_example():
    # oscillations (1, 2) with measures (.5, .5): (2, 2, 1.5)
    space, p, f = finite_example()
    b = bound_set(f, p)
    assert (b.theorem1, b.corollary1, b.corollary2) == (2.0, 2.0, 1.5)
    assert b.exact


def test_bound_set_grid_mode_marks_inexact():
    f = FunctionModel(X2.base, range_mode=GridRangeMode(resolution=32, levels=1))
    b = bound_set(f, equal_partition_1d(2))
    assert not b.exact
    # still close to the exact values
    assert abs(b.corollary1 - 0.75) < 0.02


def test_bound_chain_and_identity():
    """corollary2 <= corollary1 == theorem1, all nonnegative."""
    partitions = [equal_partition_1d(k) for k in (1, 2, 4, 8)]
    for f in (X, X2, SIN):
        for p in partitions:
            b = bound_set(f, p)
            assert 0.0 <= b.corollary2 <= b.corollary1 + 1e-12
            assert b.theorem1 == b.corollary1  # exact: 2 * (s/2) == s
            assert b.theorem1 == 2.0 * b.distance


@pytest.mark.parametrize("oscillation", [0.75, 3e-310, 5e-324])
def test_theorem1_equals_corollary1_bit_for_bit(oscillation):
    # halving then doubling a subnormal drops its last bit; 2 * (s/2)
    # would report 0 for an oscillation of 5e-324
    f = FunctionModel(Affine(0.0, (oscillation,)))
    b = bound_set(f, equal_partition_1d(1))
    assert b.theorem1 == b.corollary1 == oscillation


def test_bounds_scale_and_shift():
    # f, -3 f and f + 11 for f = x and f = x^2
    p = equal_partition_1d(4)
    for f, scaled, shifted in (
        (X, Affine(0.0, (-3.0,)), Affine(11.0, (1.0,))),
        (X2, Quadratic(0.0, (0.0,), (-3.0,)), Quadratic(11.0, (0.0,), (1.0,))),
    ):
        b = bound_set(f, p)
        b_scaled = bound_set(FunctionModel(scaled), p)
        assert abs(b_scaled.corollary1 - 3.0 * b.corollary1) < 1e-12
        assert abs(b_scaled.corollary2 - 3.0 * b.corollary2) < 1e-12
        b_shifted = bound_set(FunctionModel(shifted), p)
        assert abs(b_shifted.corollary1 - b.corollary1) < 1e-12
        assert abs(b_shifted.corollary2 - b.corollary2) < 1e-12


def test_refinement_never_increases_bounds():
    for f in (X, X2, SIN):
        prev = bound_set(f, equal_partition_1d(1))
        for m in range(1, 7):
            cur = bound_set(f, equal_partition_1d(2 ** m))
            assert cur.corollary1 <= prev.corollary1 + 1e-12
            assert cur.corollary2 <= prev.corollary2 + 1e-12
            assert cur.theorem1 <= prev.theorem1 + 1e-12
            prev = cur


def test_piecewise_constant_has_zero_bounds_on_own_partition():
    p = equal_partition_1d(4)
    f = FunctionModel(PiecewiseConstant(p, (1.0, -2.0, 0.5, 3.0)))
    b = bound_set(f, p)
    assert (b.theorem1, b.corollary1, b.corollary2) == (0.0, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=4, max_size=4,
    ),
    spike_value=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    spike_at=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_bound_set_null_invariance_piecewise(values, spike_value, spike_at):
    """Spiking a piecewise-constant function moves no bound by any bit."""
    p = equal_partition_1d(4)
    base = PiecewiseConstant(p, tuple(values))
    clean = bound_set(FunctionModel(base), p)
    spiked = bound_set(FunctionModel(base, (((spike_at,), spike_value),)), p)
    assert clean == spiked


# -0.0 and 0.0 a third of the draws each: an fsum of one -0.0 term is 0.0
COEFFICIENTS = st.one_of(st.just(-0.0), st.just(0.0),
                         st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def continuous_bases(draw, dimension):
    def coefficients():
        return tuple(draw(COEFFICIENTS) for _ in range(dimension))

    kind = draw(st.sampled_from(["affine", "quadratic", "sinusoid"]))
    if kind == "affine":
        return Affine(draw(COEFFICIENTS), coefficients())
    if kind == "quadratic":
        return Quadratic(draw(COEFFICIENTS), coefficients(), coefficients())
    return Sinusoid(amplitude=draw(COEFFICIENTS),
                    frequency=draw(st.one_of(st.just(0.0), st.floats(0.01, 9.0))),
                    phase=draw(COEFFICIENTS), offset=draw(COEFFICIENTS),
                    axis=draw(st.integers(0, dimension - 1)), dimension=dimension)


@st.composite
def partitions_1d(draw):
    """An equal cut, which keeps its edge lists, or an unequal one."""
    if draw(st.booleans()):
        return equal_partition_1d(draw(st.integers(1, 40)))
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         max_size=12, unique=True))
    edges = [0.0, *sorted(cuts), 1.0]
    return make_partition(make_cube_space(1),
                          [interval(a, b) for a, b in zip(edges, edges[1:])])


def _hex(values):
    return [v.hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_list_passes_match_the_per_cell_path(data):
    partition = data.draw(partitions_1d())
    f = FunctionModel(data.draw(continuous_bases(1)))
    cells = partition.cells
    expected = [per_cell_integral(f.base, c.lower, c.upper) for c in cells]
    lowers = [c.lower[0] for c in cells]
    uppers = [c.upper[0] for c in cells]
    assert _hex(f.base.integrals([lowers], [uppers])) == _hex(expected)
    assert _hex(f.cell_integrals(partition)) == _hex(expected)
    assert _hex(f.cell_integral(c, partition.space) for c in cells) == _hex(expected)
    assert (worst_uniform_error(f, partition).hex()
            == per_cell_worst_uniform_error(f, partition).hex())
    b = bound_set(f, partition)
    assert _hex((b.theorem1, b.corollary1, b.corollary2)) == _hex(per_cell_bounds(f, partition))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 3))
def test_box_integrals_match_the_per_cell_path(data, dimension):
    base = data.draw(continuous_bases(dimension))
    boxes = data.draw(st.lists(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
                 min_size=dimension, max_size=dimension),
        min_size=1, max_size=8))
    lowers = [[box[i][0] for box in boxes] for i in range(dimension)]
    uppers = [[box[i][1] for box in boxes] for i in range(dimension)]
    expected = [per_cell_integral(base, [lo for lo, _ in box], [hi for _, hi in box])
                for box in boxes]
    assert _hex(base.integrals(lowers, uppers)) == _hex(expected)


def test_an_edge_partition_takes_no_cell_integral(monkeypatch):
    def refused(self, cell, space):
        raise AssertionError("cell_integral called")

    monkeypatch.setattr(FunctionModel, "cell_integral", refused)
    p = equal_partition_1d(64)
    for f in (X, X2, SIN):
        table = cell_table(f, p)
        integrals = f.cell_integrals(p)
        assert len(integrals) == len(table.lo) == len(table.hi) == 64


# Coefficients of every magnitude from 1e-300 to 1e300, and the small
# ones above.
MAGNITUDES = st.one_of(COEFFICIENTS, st.builds(lambda m, e: m * 10.0 ** e,
                                               st.floats(-9.99, 9.99), st.integers(-300, 299)))


def _draw_grid(draw):
    """(edges, partition): a 1-D or 2-D product grid, each axis cut
    equally or at drawn points (none below 2^-20, so that no product of
    two widths underflows to an empty cell)."""
    edges = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            n = draw(st.integers(1, 12))
            edges.append([i / n for i in range(n + 1)])
        else:
            cuts = draw(st.lists(st.floats(2.0**-20, 1.0, exclude_max=True),
                                 max_size=6, unique=True))
            edges.append([0.0, *sorted(cuts), 1.0])
    spans = [list(zip(e, e[1:])) for e in edges]
    cells = [BoxCell(*zip(*box)) for box in itertools.product(*spans)]
    return edges, make_partition(make_cube_space(len(edges)), cells)


@st.composite
def affine_grids(draw):
    """(f, partition, edges): an Affine model on a 1-D or 2-D product
    grid."""
    edges, partition = _draw_grid(draw)
    f = FunctionModel(Affine(draw(MAGNITUDES), tuple(draw(MAGNITUDES) for _ in edges)))
    return f, partition, edges


@settings(max_examples=300, deadline=None)
@given(affine_grids())
def test_affine_bounds_lie_within_the_slack_of_their_exact_values(case):
    # the slack is that of node counts whose shares are the cell
    # measures, so it holds the rounding margin alone, up to the rounding
    # of the measures' sum
    f, partition, edges = case
    table = cell_table(f, partition)
    scale = max(Fraction(m).denominator for m in table.measure)
    counts = [int(Fraction(m) * scale) for m in table.measure]
    slack = Fraction(certification_slack(table, f.integral(partition.space), counts))
    exact = exact_affine_bounds(f.base.intercept, f.base.slopes, edges)
    b = bound_set(f, partition)
    for got, want in ((worst_uniform_error(f, partition), exact.closed_form),
                      (b.corollary1, exact.corollary1),
                      (b.theorem1, exact.corollary1),
                      (b.corollary2, exact.corollary2),
                      (b.distance, exact.corollary1 / 2)):
        assert abs(Fraction(got) - want) <= slack


# Quadratic coefficients from 1e-3 to 1e6 in magnitude, or zero.
SCALES = st.one_of(st.just(0.0), st.builds(lambda m, e: m * 10.0 ** e,
                                           st.floats(1.0, 9.99) | st.floats(-9.99, -1.0),
                                           st.integers(-3, 5)))


@st.composite
def quadratic_grids(draw):
    """(f, partition, edges): a Quadratic model on a 1-D or 2-D product
    grid.  Each axis's linear term is drawn on its own, or nearly cancels
    the quadratic one, -q (1 + e), or puts the vertex near an edge t,
    -2 q t (1 + e), with e a few ulps of 1."""
    edges, partition = _draw_grid(draw)
    quadratic = tuple(draw(SCALES) for _ in edges)
    linear = []
    for q, axis in zip(quadratic, edges):
        e = draw(st.integers(-4, 4)) * 2.0**-52
        linear.append(draw(st.one_of(SCALES, st.just(-q * (1 + e)),
                                     st.sampled_from(axis).map(lambda t: -2 * q * t * (1 + e)))))
    f = FunctionModel(Quadratic(draw(SCALES), tuple(linear), quadratic))
    return f, partition, edges


@settings(max_examples=300, deadline=None)
@given(quadratic_grids())
def test_quadratic_bounds_lie_within_the_slack_of_their_exact_values(case):
    # as for Affine: the slack of node counts whose shares are the cell
    # measures holds the rounding margin alone
    f, partition, edges = case
    table = cell_table(f, partition)
    scale = max(Fraction(m).denominator for m in table.measure)
    counts = [int(Fraction(m) * scale) for m in table.measure]
    slack = Fraction(certification_slack(table, f.integral(partition.space), counts))
    exact = exact_quadratic_bounds(f.base.intercept, f.base.linear, f.base.quadratic, edges)
    b = bound_set(f, partition)
    for got, want in ((worst_uniform_error(f, partition), exact.closed_form),
                      (b.corollary1, exact.corollary1),
                      (b.theorem1, exact.corollary1),
                      (b.corollary2, exact.corollary2),
                      (b.distance, exact.corollary1 / 2)):
        assert abs(Fraction(got) - want) <= slack


# Gaps a piece's upper faces leave, small enough that a layout of 7 x 7
# pieces, each with a gap on both axes, still covers within MASS_TOL.
GAPS = st.sampled_from((0.0, 0.0, 2.0**-53, 2.0**-50, 2e-15))


@st.composite
def piecewise_grids(draw):
    """(f, partition, edges): a PiecewiseConstant model over a 1-D or
    2-D product grid.  Its layout is a product grid of the same
    dimension, cut at some of the grid's own edges and at drawn points,
    each piece shrunk on each axis by a gap under MASS_TOL, or none."""
    edges, partition = _draw_grid(draw)
    cuts = [sorted({0.0, 1.0, *draw(st.lists(st.sampled_from(axis) | st.floats(
        2.0**-20, 1.0, exclude_max=True), max_size=6))}) for axis in edges]
    cells = []
    for box in itertools.product(*[list(zip(c, c[1:])) for c in cuts]):
        gaps = [draw(GAPS) for _ in box]
        cells.append(BoxCell(*zip(*[(l, u - g if g < (u - l) / 2 else u)
                                    for (l, u), g in zip(box, gaps)])))
    layout = make_partition(make_cube_space(len(edges)), cells)
    values = tuple(draw(MAGNITUDES) for _ in cells)
    return FunctionModel(PiecewiseConstant(layout, values)), partition, edges


@settings(max_examples=300, deadline=None)
@given(piecewise_grids())
def test_piecewise_bounds_lie_within_the_slack_of_their_exact_values(case):
    # as for Affine: the slack of node counts whose shares are the cell
    # measures holds the rounding margin alone; a cell inside a gap of
    # the layout meets no piece, and is refused
    f, partition, edges = case
    pieces = [(cell.lower, cell.upper) for cell in f.base.partition.cells]
    try:
        exact = exact_piecewise_bounds(pieces, f.base.values, edges)
    except OutOfDomainError:
        with pytest.raises(OutOfDomainError, match="meets no piece with positive measure"):
            bound_set(f, partition)
        return
    table = cell_table(f, partition)
    scale = max(Fraction(m).denominator for m in table.measure)
    counts = [int(Fraction(m) * scale) for m in table.measure]
    slack = Fraction(certification_slack(table, f.integral(partition.space), counts))
    b = bound_set(f, partition)
    for got, want in ((worst_uniform_error(f, partition), exact.closed_form),
                      (b.corollary1, exact.corollary1),
                      (b.theorem1, exact.corollary1),
                      (b.corollary2, exact.corollary2),
                      (b.distance, exact.corollary1 / 2)):
        assert abs(Fraction(got) - want) <= slack


_THREE_ATOM_HALVES = make_partition(make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)]),
                                    [FiniteCell((0, 1)), FiniteCell((2,))])


@pytest.mark.parametrize("f, message", [
    (FunctionModel(FiniteTable((1.0, 2.0, 3.0, 100.0))), "a 4-value table read on a 3-atom space"),
    (FunctionModel(PiecewiseConstant(make_partition(
        make_finite_space([(f"p{i}", 0.25) for i in range(4)]),
        [FiniteCell((i,)) for i in range(4)]), (1.0, 6.0, 3.0, 100.0))),
     "a piece layout on 4 atoms read on a 3-atom space"),
], ids=["table", "pieces"])
def test_bound_set_refuses_a_model_with_another_atom_count(f, message):
    # the range table read the first three values, and certified (1.0, 0.5)
    # for the table and (5.0, 2.5) for the piece layout
    with pytest.raises(OutOfDomainError, match=f"^{message}$"):
        bound_set(f, _THREE_ATOM_HALVES)

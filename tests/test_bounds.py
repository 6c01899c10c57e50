"""Cell extrema, oscillation bounds, span distance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    FiniteCell,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    PiecewiseConstant,
    Quadratic,
    Sinusoid,
    bound_set,
    equal_partition_1d,
    interval,
    make_finite_space,
    make_partition,
)
from oracles import dense_range_1d

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
    assert e.width == 0.0


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

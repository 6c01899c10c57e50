"""Function models: evaluation, essential ranges, integrals, spikes."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    CubeSpace,
    FiniteCell,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    InstanceFormatError,
    OutOfDomainError,
    PiecewiseConstant,
    QmcBoundsError,
    Quadratic,
    Sinusoid,
    box,
    equal_partition_1d,
    instance_from_json,
    interval,
    make_cube_space,
    make_finite_space,
)
from oracles import dense_range_1d, full_grid_range, quad_integral

X = FunctionModel(Affine(0.0, (1.0,)))
X2 = FunctionModel(Quadratic(0.0, (0.0,), (1.0,)))
SIN = FunctionModel(Sinusoid(amplitude=1.0, frequency=1.0))


def test_evaluate_affine():
    f = FunctionModel(Affine(1.0, (2.0, -1.0)))
    assert f.evaluate((0.5, 0.25)) == 1.0 + 1.0 - 0.25


def test_evaluate_scalar_point_in_1d():
    assert X.evaluate(0.25) == 0.25


def test_evaluate_spike_precedence():
    # spike at 0.5 overrides the base value
    f = FunctionModel(Affine(0.0, (1.0,)), spikes=(((0.5,), 7.0),))
    assert f.evaluate(0.5) == 7.0
    assert f.evaluate(0.25) == 0.25


def test_evaluate_finite_table_by_label_and_index():
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    f = FunctionModel(FiniteTable((0.0, 1.0), space.labels))
    assert f.evaluate("b") == 1.0
    assert f.evaluate(0) == 0.0


def test_evaluate_out_of_domain():
    with pytest.raises(OutOfDomainError):
        X.evaluate(1.25)
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    f = FunctionModel(FiniteTable((0.0, 1.0), space.labels))
    with pytest.raises(OutOfDomainError):
        f.evaluate(5)


def test_spikes_rejected_on_finite_space():
    with pytest.raises(QmcBoundsError):
        FunctionModel(FiniteTable((0.0, 1.0)), spikes=(((0.5,), 3.0),))


@pytest.mark.parametrize("point", [(1.5,), (0.2, 0.3), -0.1])
def test_spikes_that_can_never_fire_rejected(point):
    # outside [0, 1] or with the wrong number of coordinates, no
    # evaluation point can ever match the spike
    with pytest.raises(OutOfDomainError):
        FunctionModel(Affine(0.0, (1.0,)), spikes=((point, 3.0),))


def test_essential_range_affine_cell():
    # f(x)=x over [0, 0.25): essential range (0, 0.25)
    rng = X.essential_range(interval(0, 0.25))
    assert (rng.lo, rng.hi) == (0.0, 0.25)
    assert rng.exact and rng.eps == 0.0


def test_essential_range_ignores_spikes():
    # constant 3 with a spike of 100: essential range stays (3, 3)
    f = FunctionModel(Affine(3.0, (0.0,)), spikes=(((0.5,), 100.0),))
    rng = f.essential_range(interval(0, 1))
    assert (rng.lo, rng.hi) == (3.0, 3.0)


def test_essential_range_x2_on_upper_half():
    # dense-grid oracle confirms the frozen closed form (0.25, 1.0)
    oracle_lo, oracle_hi = dense_range_1d(lambda t: t * t, 0.5, 1.0)
    assert abs(oracle_lo - 0.25) < 1e-8 and abs(oracle_hi - 1.0) < 1e-12
    rng = X2.essential_range(interval(0.5, 1))
    assert (rng.lo, rng.hi) == (0.25, 1.0)


def test_essential_range_quadratic_interior_vertex():
    # f(x) = (x - 0.5)^2 = x^2 - x + 0.25 has its minimum inside [0, 1)
    f = FunctionModel(Quadratic(0.25, (-1.0,), (1.0,)))
    oracle = dense_range_1d(lambda t: (t - 0.5) ** 2, 0.0, 1.0)
    rng = f.essential_range(interval(0, 1))
    assert rng.lo == 0.0 and rng.hi == 0.25
    assert abs(oracle[0] - rng.lo) < 1e-8 and abs(oracle[1] - rng.hi) < 1e-8


def test_essential_range_sinusoid_interior_peak():
    # sin(2 pi x) on [0, 0.5) peaks at x = 0.25, so the range is (0, 1)
    rng = SIN.essential_range(interval(0, 0.5))
    oracle = dense_range_1d(lambda t: math.sin(2 * math.pi * t), 0.0, 0.5)
    assert abs(rng.hi - 1.0) < 1e-15 and abs(rng.lo - 0.0) < 1e-15
    assert abs(oracle[1] - rng.hi) < 1e-7


def test_essential_range_sinusoid_random_cells_match_grid():
    f = FunctionModel(Sinusoid(amplitude=-1.5, frequency=3.0, phase=0.7, offset=0.2))
    for a, b in ((0.0, 0.125), (0.3, 0.45), (0.7, 1.0)):
        rng = f.essential_range(interval(a, b))
        lo, hi = dense_range_1d(
            lambda t: 0.2 - 1.5 * math.sin(2 * math.pi * 3 * t + 0.7), a, b
        )
        assert abs(rng.lo - lo) < 1e-7
        assert abs(rng.hi - hi) < 1e-7


def test_essential_range_piecewise_constant_overlap():
    # pieces ([0,.5) -> 1, [.5,1] -> 4); query [0.25, 0.75) sees both
    p = equal_partition_1d(2)
    f = FunctionModel(PiecewiseConstant(p, (1.0, 4.0)))
    rng = f.essential_range(interval(0.25, 0.75))
    assert (rng.lo, rng.hi) == (1.0, 4.0)
    rng2 = f.essential_range(interval(0.5, 0.75))
    assert (rng2.lo, rng2.hi) == (4.0, 4.0)


def test_essential_range_finite_table():
    f = FunctionModel(FiniteTable((0.0, 1.0, 2.0, 4.0)))
    rng = f.essential_range(FiniteCell((2, 3)))
    assert (rng.lo, rng.hi) == (2.0, 4.0)


def test_grid_mode_sandwiches_exact_range():
    mode = GridRangeMode(resolution=16, levels=2)
    for f_exact, fn in ((X2, lambda t: t * t), (SIN, None)):
        f_grid = FunctionModel(f_exact.base, range_mode=mode)
        for a, b in ((0.0, 0.5), (0.5, 1.0), (0.3, 0.4)):
            exact = f_exact.essential_range(interval(a, b))
            approx = f_grid.essential_range(interval(a, b))
            assert not approx.exact and approx.eps > 0.0
            # sampled values never overshoot, and miss by at most eps
            assert exact.lo <= approx.lo <= exact.lo + approx.eps
            assert exact.hi - approx.eps <= approx.hi <= exact.hi


def _random_coefficient(rng):
    draw = rng.random()
    if draw < 0.1:
        return 0.0
    if draw < 0.2:
        return -0.0
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 8.0)


def _random_continuous_family(rng, d):
    coef = _random_coefficient
    family = rng.choice(("affine", "quadratic", "sinusoid"))
    if family == "affine":
        return Affine(coef(rng), tuple(coef(rng) for _ in range(d)))
    if family == "quadratic":
        return Quadratic(coef(rng), tuple(coef(rng) for _ in range(d)),
                         tuple(coef(rng) for _ in range(d)))
    return Sinusoid(amplitude=coef(rng), frequency=abs(coef(rng)), phase=coef(rng),
                    offset=coef(rng), axis=rng.randrange(d), dimension=d)


def _random_box(rng, d):
    bounds = []
    for _ in range(d):
        lo = rng.choice((0.0, -0.0, 0.25, rng.random()))
        hi = rng.choice((1.0, lo + (1.0 - lo) * rng.random()))
        bounds.append((lo, hi) if hi > lo else (0.0, 1.0))
    return box(*bounds)


def test_grid_range_matches_the_full_grid_sampler_bit_for_bit():
    # lo, hi and eps of the per-axis rule against evaluating every grid
    # point, signed zeros included
    rng = random.Random(20260)
    for _ in range(1000):
        d = rng.randint(1, 3)
        base = _random_continuous_family(rng, d)
        cell = _random_box(rng, d)
        mode = GridRangeMode(resolution=rng.randint(1, 3), levels=rng.randint(0, 2))
        got = FunctionModel(base, range_mode=mode).essential_range(cell)
        want = full_grid_range(base, cell, mode.intervals_per_axis)
        assert (got.lo.hex(), got.hi.hex(), got.eps.hex()) == tuple(v.hex() for v in want), (
            base, cell, mode)


def test_grid_mode_reaches_the_default_resolution_in_3d(monkeypatch):
    # 257 samples per axis make 257**3 (about 17M) grid points per cell;
    # the extremes come from per-axis work, never from pointwise values
    def no_pointwise_evaluation(self, point):
        raise AssertionError("grid mode evaluated a grid point")

    monkeypatch.setattr(Quadratic, "evaluate", no_pointwise_evaluation)
    base = Quadratic(0.1, (-1.0, 0.5, 0.0), (1.5, -1.0, 0.25))
    mode = GridRangeMode()
    assert mode.intervals_per_axis == 256
    # interior vertices at 1/3 (between samples) and 0.25 (a sample)
    cell = box((0.0, 1.0), (0.125, 0.875), (0.25, 0.5))
    exact = FunctionModel(base).essential_range(cell)
    approx = FunctionModel(base, range_mode=mode).essential_range(cell)
    assert not approx.exact and approx.eps > 0.0
    assert exact.lo <= approx.lo <= exact.lo + approx.eps
    assert exact.hi - approx.eps <= approx.hi <= exact.hi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build,field", [
    pytest.param(lambda v: Affine(v, (1.0,)), "intercept", id="affine-intercept"),
    pytest.param(lambda v: Affine(0.0, (1.0, v)), "slopes[1]", id="affine-slope"),
    pytest.param(lambda v: Quadratic(0.0, (v,), (1.0,)), "linear[0]", id="quadratic-linear"),
    pytest.param(lambda v: Quadratic(0.0, (0.0,), (v,)), "quadratic[0]",
                 id="quadratic-quadratic"),
    pytest.param(lambda v: Sinusoid(amplitude=v, frequency=1.0), "amplitude",
                 id="sinusoid-amplitude"),
    pytest.param(lambda v: Sinusoid(amplitude=1.0, frequency=v), "frequency",
                 id="sinusoid-frequency"),
    pytest.param(lambda v: Sinusoid(amplitude=1.0, frequency=1.0, phase=v), "phase",
                 id="sinusoid-phase"),
    pytest.param(lambda v: Sinusoid(amplitude=1.0, frequency=1.0, offset=v), "offset",
                 id="sinusoid-offset"),
    pytest.param(lambda v: PiecewiseConstant(equal_partition_1d(2), (1.0, v)), "values[1]",
                 id="piecewise-constant"),
    pytest.param(lambda v: FunctionModel(Affine(0.0, (1.0,)), spikes=(((0.5,), v),)),
                 "spike_values[0]", id="spike"),
])
def test_non_finite_numbers_rejected_at_construction(build, field, bad):
    # FiniteTable: tests/test_oracle.py::test_scoring_rejects_non_finite_values
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} is"):
        build(bad)


def test_loader_names_a_non_finite_spike_value():
    # Python's json reads Infinity; the model stops it, and the loader
    # passes its message on (table values: tests/test_cli.py)
    obj = {
        "space": {"kind": "cube", "dimension": 1},
        "partition": {"cells": [{"box": [[0.0, 1.0]]}]},
        "function": {"family": "affine", "params": {"intercept": 0.0, "slopes": [1.0]},
                     "spikes": [[[0.5], math.inf]]},
    }
    with pytest.raises(InstanceFormatError, match=r"spike_values\[0\] is inf"):
        instance_from_json(obj)


def test_grid_mode_leaves_jump_families_exact():
    p = equal_partition_1d(2)
    f = FunctionModel(PiecewiseConstant(p, (1.0, 4.0)), range_mode=GridRangeMode(8, 0))
    assert f.essential_range(interval(0, 1)).exact


def test_integral_finite_table():
    # {a: .5, b: .5}, f=(0, 1): integral 0.5
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    f = FunctionModel(FiniteTable((0.0, 1.0), space.labels))
    assert f.integral(space) == 0.5


def test_integral_affine():
    space = make_cube_space(1)
    assert X.integral(space) == 0.5
    oracle = quad_integral(lambda t: t, 0, 1)
    assert abs(X.integral(space) - oracle) < 1e-12


def test_integral_ignores_spikes():
    space = make_cube_space(1)
    f = FunctionModel(Affine(0.0, (1.0,)), spikes=(((0.5,), 1000.0),))
    assert f.integral(space) == 0.5


def test_integral_quadratic_and_sinusoid_match_quadrature():
    space = make_cube_space(1)
    assert abs(X2.integral(space) - 1.0 / 3.0) < 1e-15
    assert abs(SIN.integral(space) - 0.0) < 1e-15
    f = FunctionModel(Sinusoid(amplitude=2.0, frequency=1.5, phase=0.3, offset=-1.0))
    oracle = quad_integral(
        lambda t: -1.0 + 2.0 * math.sin(2 * math.pi * 1.5 * t + 0.3), 0, 1
    )
    assert abs(f.integral(space) - oracle) < 1e-10


def test_integral_affine_2d():
    space = make_cube_space(2)
    f = FunctionModel(Affine(1.0, (2.0, 4.0)))
    # 1 + 2*E[x] + 4*E[y] = 1 + 1 + 2
    assert f.integral(space) == 4.0


def test_piecewise_constant_normalises_each_point_once(monkeypatch):
    p = equal_partition_1d(4)
    f = FunctionModel(PiecewiseConstant(p, (1.0, 2.0, 3.0, 4.0)))
    calls = 0
    as_point = CubeSpace.as_point

    def counting(self, value):
        nonlocal calls
        calls += 1
        return as_point(self, value)

    monkeypatch.setattr(CubeSpace, "as_point", counting)
    assert f.evaluate(0.6) == 3.0
    assert calls == 1


def test_cell_integral_pieces():
    p = equal_partition_1d(2)
    f = FunctionModel(PiecewiseConstant(p, (1.0, 4.0)))
    space = make_cube_space(1)
    assert f.cell_integral(interval(0.25, 0.75), space) == 1.0 * 0.25 + 4.0 * 0.25
    assert f.integral(space) == 2.5


def test_cell_integral_matches_quadrature():
    space = make_cube_space(1)
    for f, fn in (
        (X2, lambda t: t * t),
        (SIN, lambda t: math.sin(2 * math.pi * t)),
    ):
        for a, b in ((0.0, 0.25), (0.4, 0.9)):
            assert abs(f.cell_integral(interval(a, b), space) - quad_integral(fn, a, b)) < 1e-10


def test_integral_linearity():
    # g = 2.5 f - 0.75
    space = make_cube_space(1)
    for f, g in (
        (X, FunctionModel(Affine(-0.75, (2.5,)))),
        (X2, FunctionModel(Quadratic(-0.75, (0.0,), (2.5,)))),
        (SIN, FunctionModel(Sinusoid(amplitude=2.5, frequency=1.0, offset=-0.75))),
    ):
        assert abs(g.integral(space) - (2.5 * f.integral(space) - 0.75)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    spikes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        max_size=8,
    )
)
def test_ranges_and_integrals_spike_invariant(spikes):
    """Any finite spike set leaves ranges and integrals bit-identical."""
    spike_tuple = tuple(((p,), v) for p, v in spikes)
    base = Quadratic(0.1, (0.5,), (-1.0,))
    clean = FunctionModel(base)
    spiked = FunctionModel(base, spike_tuple)
    space = make_cube_space(1)
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        r0 = clean.essential_range(interval(a, b))
        r1 = spiked.essential_range(interval(a, b))
        assert (r0.lo, r0.hi) == (r1.lo, r1.hi)
    assert clean.integral(space) == spiked.integral(space)

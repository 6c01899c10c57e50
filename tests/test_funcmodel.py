"""Function models: evaluation, essential ranges, integrals, spikes."""

import dataclasses
import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    BoxCell,
    CubeSpace,
    EssentialRange,
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
    make_partition,
    qmc_estimate,
)
from qmcbounds.funcmodel import (
    GRID_INTERVAL_LIMIT,
    SINE_ARGUMENT_LIMIT,
    VALUE_LIMIT,
    axis_samples,
)
from oracles import (
    all_pieces_range,
    dense_range_1d,
    fieldwise_range,
    fieldwise_value,
    full_grid_range,
    linspace_grid_range,
    linspace_samples,
    per_piece_integral,
    quad_integral,
    scan_atom_cell,
    sine_extremes,
)

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


TWO_LABELS = make_finite_space([("a", 0.25), ("b", 0.75)])


@pytest.mark.parametrize("read_atom", [
    TWO_LABELS.as_point,
    FunctionModel(FiniteTable((0.0, 1.0), TWO_LABELS.labels)).evaluate,
], ids=["space", "table"])
def test_a_space_and_a_table_read_atoms_by_one_rule(read_atom):
    # the table's value at each atom is the atom's index
    assert read_atom(1) == read_atom("b") == 1
    for bad in (True, 1.0, -1, 2, "c"):
        with pytest.raises(OutOfDomainError):
            read_atom(bad)


def test_an_unlabeled_table_refuses_every_label():
    f = FunctionModel(FiniteTable((0.0, 1.0)))
    for label in ("a", "0", ""):
        with pytest.raises(OutOfDomainError, match="unknown atom label"):
            f.evaluate(label)


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


def test_polynomial_ranges_are_min_and_max_of_the_candidates_bit_for_bit():
    # the reference: per axis, min() and max() over the values at the
    # lower edge, the upper edge and an inside vertex, in that order;
    # signed zeros make the order matter
    def reference(intercept, quadratic, linear, cell):
        lo = hi = intercept
        for q, b, l, u in zip(quadratic, linear, cell.lower, cell.upper):
            candidates = [q * l * l + b * l, q * u * u + b * u]
            if q != 0.0 and l <= -b / (2.0 * q) <= u:
                v = -b / (2.0 * q)
                candidates.append(q * v * v + b * v)
            lo += min(candidates)
            hi += max(candidates)
        return lo, hi

    rng = random.Random(5)
    coefficient = [0.0, -0.0, 1.0, -1.0, 0.5]
    for _ in range(3000):
        d = rng.randint(1, 3)
        lower = [rng.choice([0.0, 0.25, 0.5, rng.random()]) for _ in range(d)]
        upper = [rng.choice([u for u in (0.25, 0.5, 1.0) if u > l]) for l in lower]
        cell = box(*zip(lower, upper))
        intercept = rng.choice(coefficient + [rng.uniform(-1, 1)])
        quadratic = tuple(rng.choice(coefficient + [rng.uniform(-2, 2)]) for _ in range(d))
        linear = tuple(rng.choice(coefficient + [rng.uniform(-2, 2)]) for _ in range(d))
        got = Quadratic(intercept, linear, quadratic).range_on(cell)
        want = reference(intercept, quadratic, linear, cell)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        got = Affine(intercept, linear).range_on(cell)
        lo = hi = intercept
        for a, l, u in zip(linear, lower, upper):
            lo += min(a * l, a * u)
            hi += max(a * l, a * u)
        assert [x.hex() for x in got] == [lo.hex(), hi.hex()]


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


def test_sinusoid_range_is_constant_work_at_any_frequency():
    # visiting every one of the 2e12 critical points never finished
    for amplitude, offset in ((1.0, 0.0), (2.0, 0.5), (-2.0, 0.5)):
        f = Sinusoid(amplitude=amplitude, frequency=1e12, offset=offset)
        assert f.range_on(interval(0, 1)) == (offset - abs(amplitude),
                                                offset + abs(amplitude))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 50.0),
       st.floats(-7.0, 7.0), st.sampled_from([1.0, -0.5]), st.sampled_from([0.0, 0.25]))
def test_sinusoid_range_matches_every_critical_point(a, b, frequency, phase,
                                                     amplitude, offset):
    a, b = min(a, b), max(a, b)
    f = Sinusoid(amplitude=amplitude, frequency=frequency, phase=phase, offset=offset)
    assert f.range_on(interval(a, b)) == sine_extremes(f, a, b)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 14.2), st.floats(0.0, 40.0),
       st.floats(-7.0, 7.0), st.sampled_from([1.0, -0.5]), st.sampled_from([0.0, 0.25]))
def test_sinusoid_range_matches_every_critical_point_up_to_the_argument_limit(
        a, log_frequency, periods, phase, amplitude, offset):
    # frequencies up to 1.6e14, where the argument (2 pi frequency, 1e15)
    # is near its limit of 2**50, on cells of up to 40 periods, so the
    # oracle visits at most about 80 critical points; the rounded
    # quotient must stay off by less than one for the closed form to agree
    frequency = 10.0 ** log_frequency
    b = min(1.0, a + periods / frequency)
    f = Sinusoid(amplitude=amplitude, frequency=frequency, phase=phase, offset=offset)
    assert f.range_on(interval(a, b)) == sine_extremes(f, a, b)


def test_essential_range_piecewise_constant_overlap():
    # pieces ([0,.5) -> 1, [.5,1] -> 4); query [0.25, 0.75) sees both
    p = equal_partition_1d(2)
    f = FunctionModel(PiecewiseConstant(p, (1.0, 4.0)))
    rng = f.essential_range(interval(0.25, 0.75))
    assert (rng.lo, rng.hi) == (1.0, 4.0)
    rng2 = f.essential_range(interval(0.5, 0.75))
    assert (rng2.lo, rng2.hi) == (4.0, 4.0)


@pytest.mark.parametrize("cell", [box((0, 0.4), (0, 1)), BoxCell((), ()), FiniteCell((0,))],
                         ids=["2d-box", "0d-box", "atoms"])
def test_essential_range_piecewise_constant_refuses_a_cell_of_another_kind(cell):
    # the 2-D box read [1.0, 1.0] from its first axis alone, and the 0-D
    # box [1.0, 4.0]: zip stopped at the shorter corner
    f = FunctionModel(PiecewiseConstant(equal_partition_1d(2), (1.0, 4.0)))
    with pytest.raises(OutOfDomainError, match="expected a 1-dimensional box cell"):
        f.essential_range(cell)


def test_essential_range_finite_table():
    f = FunctionModel(FiniteTable((0.0, 1.0, 2.0, 4.0)))
    rng = f.essential_range(FiniteCell((2, 3)))
    assert (rng.lo, rng.hi) == (2.0, 4.0)


def test_essential_range_keeps_its_frozen_dataclass_contract():
    r = EssentialRange(0.25, 1.5, True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.lo = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.eps
    assert not hasattr(r, "__dict__")
    assert (r.lo, r.hi, r.exact, r.eps, r.hi - r.lo) == (0.25, 1.5, True, 0.0, 1.25)
    keyword = EssentialRange(hi=1.5, lo=0.25, eps=0.0, exact=True)
    assert r == keyword and hash(r) == hash(keyword)
    assert r != EssentialRange(0.25, 1.5, False) and r != (0.25, 1.5, True, 0.0)
    assert repr(r) == "EssentialRange(lo=0.25, hi=1.5, exact=True, eps=0.0)"
    assert [f.name for f in dataclasses.fields(EssentialRange)] == ["lo", "hi", "exact", "eps"]
    assert dataclasses.fields(r)[3].default == 0.0
    sampled = dataclasses.replace(r, exact=False, eps=0.125)
    assert sampled == EssentialRange(0.25, 1.5, False, 0.125) and r.exact
    with pytest.raises(ValueError):
        dataclasses.replace(r, lo=2.0)
    loaded = pickle.loads(pickle.dumps(sampled))
    assert loaded == sampled and repr(loaded) == repr(sampled)
    negative = EssentialRange(-1.0, -1.0, True)
    assert loaded.hi - loaded.lo == 1.25 and negative.hi - negative.lo == 0.0
    with pytest.raises(TypeError):
        EssentialRange(0.0, 1.0)


@pytest.mark.parametrize("lo, hi, eps", [
    (math.nan, 1.0, 0.0), (0.0, math.nan, 0.0), (2.0, 1.0, 0.0),
    (0.0, 1.0, -1.0), (0.0, 1.0, math.nan),
])
def test_essential_range_refuses_nan_ends_and_a_negative_or_nan_eps(lo, hi, eps):
    named = f"got lo {lo!r}, hi {hi!r} and eps {eps!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        EssentialRange(lo, hi, False, eps)


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


def test_grid_mode_never_calls_a_models_built_evaluate(monkeypatch):
    # each model builds its own evaluate, which shadows the class's field
    # default, so this refuses the instance's
    base = Quadratic(0.1, (-1.0, 0.5, 0.0), (1.5, -1.0, 0.25))

    def refused(point):
        raise AssertionError("grid mode evaluated a grid point")

    monkeypatch.setitem(base.__dict__, "evaluate", refused)
    cell = box((0.0, 1.0), (0.125, 0.875), (0.25, 0.5))
    assert not FunctionModel(base, range_mode=GridRangeMode()).essential_range(cell).exact


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


_COEFFICIENTS = st.one_of(st.sampled_from((0.0, -0.0)),
                          st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False))
SUBNORMAL = 5e-324


@st.composite
def _grid_axis(draw):
    """One axis of a cell: running to 1.0, inside [0, 1], or of a
    subnormal width, which rounds the grid step to zero."""
    kind = draw(st.sampled_from(("to-one", "inside", "subnormal")))
    if kind == "subnormal":
        lo = draw(st.integers(0, 4)) * SUBNORMAL
        return lo, lo + draw(st.integers(1, 3)) * SUBNORMAL
    lo = draw(st.one_of(st.just(-0.0), st.floats(0.0, 1.0, exclude_max=True)))
    if kind == "to-one":
        return lo, 1.0
    return lo, draw(st.floats(lo, 1.0, exclude_min=True))


@st.composite
def _grid_cases(draw):
    d = draw(st.integers(1, 3))
    coefs = st.tuples(*[_COEFFICIENTS] * d)
    family = draw(st.sampled_from(("affine", "quadratic", "sinusoid")))
    if family == "affine":
        base = Affine(draw(_COEFFICIENTS), draw(coefs))
    elif family == "quadratic":
        base = Quadratic(draw(_COEFFICIENTS), draw(coefs), draw(coefs))
    else:
        base = Sinusoid(amplitude=draw(_COEFFICIENTS), frequency=abs(draw(_COEFFICIENTS)),
                        phase=draw(_COEFFICIENTS), offset=draw(_COEFFICIENTS),
                        axis=draw(st.integers(0, d - 1)), dimension=d)
    cell = box(*[draw(_grid_axis()) for _ in range(d)])
    return base, cell, GridRangeMode(draw(st.integers(1, 8)), draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(_grid_cases())
# a subnormal-width cell: the step 3 * 2**-1074 / 8 rounds to zero, so
# linspace scales i / n by the width
@example((Quadratic(0.5, (-1e-300,), (2.0,)), box((0.0, 3 * SUBNORMAL)), GridRangeMode(8, 0)))
@example((Sinusoid(amplitude=1.0, frequency=3.0, phase=0.5, axis=1, dimension=2),
          box((0.25, 1.0), (0.125, 1.0)), GridRangeMode(4, 1)))
def test_grid_range_matches_the_linspace_sampler_bit_for_bit(case):
    base, cell, mode = case
    n = mode.intervals_per_axis
    for lo, hi in zip(cell.lower, cell.upper):
        assert [t.hex() for t in axis_samples(lo, hi, n)] == [
            t.hex() for t in linspace_samples(lo, hi, n)]
    got = FunctionModel(base, range_mode=mode).essential_range(cell)
    want = linspace_grid_range(base, cell, n)
    assert (got.lo.hex(), got.hi.hex(), got.eps.hex()) == tuple(v.hex() for v in want)


def test_axis_samples_take_the_zero_step_branch_of_linspace():
    # i * step + lo would put every sample but the last at 0.0
    samples = axis_samples(0.0, 3 * SUBNORMAL, 8)
    assert samples == linspace_samples(0.0, 3 * SUBNORMAL, 8)
    assert len(set(samples)) == 4


def test_grid_mode_refuses_more_intervals_than_the_limit():
    # "levels": 2000 in an instance file made numpy.linspace raise
    assert GridRangeMode(GRID_INTERVAL_LIMIT, 0).intervals_per_axis == GRID_INTERVAL_LIMIT
    assert GridRangeMode(1, 16).intervals_per_axis == GRID_INTERVAL_LIMIT
    for resolution, levels in ((GRID_INTERVAL_LIMIT + 1, 0), (1, 17), (64, 2000),
                               (GRID_INTERVAL_LIMIT // 2 + 1, 1), (1, 10**18)):
        with pytest.raises(ValueError, match=f"at most {GRID_INTERVAL_LIMIT}"):
            GridRangeMode(resolution, levels)


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


@pytest.mark.parametrize("build,fields,limit", [
    pytest.param(lambda v: Affine(v, (v,)), "intercept and slopes", VALUE_LIMIT,
                 id="affine"),
    pytest.param(lambda v: Affine(0.0, (v, v, -v)), "intercept and slopes", VALUE_LIMIT,
                 id="affine-partial-sum"),
    pytest.param(lambda v: Quadratic(v, (0.0,), (v,)), "intercept, linear and quadratic",
                 VALUE_LIMIT, id="quadratic"),
    pytest.param(lambda v: Sinusoid(amplitude=v, frequency=1.0, offset=v),
                 "offset and amplitude", VALUE_LIMIT, id="sinusoid-values"),
    pytest.param(lambda v: Sinusoid(amplitude=1.0, frequency=v), "frequency and phase",
                 SINE_ARGUMENT_LIMIT, id="sinusoid-argument"),
    pytest.param(lambda v: Sinusoid(amplitude=v, frequency=1.0), "amplitude and frequency",
                 VALUE_LIMIT, id="sinusoid-slope"),
])
def test_values_that_can_overflow_rejected_at_construction(build, fields, limit):
    # each field is finite, but values over the cube, or their sums (the
    # sine's argument: 2 pi frequency), pass the limit; 0.6 * limit twice
    # is above it
    with pytest.raises(ValueError, match=rf"^{re.escape(fields)}: .* above the limit"):
        build(0.6 * limit)
    build(0.3 * limit / 8)  # well inside the limit


def test_sine_argument_limit_admits_frequencies_up_to_about_1_8e14():
    Sinusoid(amplitude=1.0, frequency=1.7e14, phase=1.0)
    with pytest.raises(ValueError, match=r"^frequency and phase: .* above the limit"):
        Sinusoid(amplitude=1.0, frequency=1.8e14)


def test_every_grid_range_has_a_finite_eps():
    # amplitude * 2 pi * frequency was inf here, so eps was inf, and NaN
    # (inf * 0.0) where a subnormal cell width gives a zero spacing
    with pytest.raises(ValueError, match=r"^amplitude and frequency: the slope .* above"):
        Sinusoid(amplitude=1e300, frequency=1e14)
    mode = GridRangeMode(8, 0)
    # VALUE_LIMIT * 2 pi alone overflows; at frequency 0 the slope is 0.0
    for base in (Sinusoid(amplitude=VALUE_LIMIT, frequency=0.0),
                 Sinusoid(amplitude=1e300, frequency=1e6)):
        f = FunctionModel(base, range_mode=mode)
        assert f.essential_range(box((0.0, 3 * SUBNORMAL))).eps == 0.0
        eps = f.essential_range(box((0.0, 1.0))).eps
        assert eps == base.lipschitz_bound() / 16.0 and math.isfinite(eps)


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


TWO_ATOMS = make_finite_space([("a", 0.5), ("b", 0.5)])


@pytest.mark.parametrize("f, cell, space", [
    (FunctionModel(FiniteTable((1.0, 2.0))), interval(0, 1), make_cube_space(1)),
    (X, FiniteCell((0, 1)), TWO_ATOMS),
    (X, FiniteCell((0, 1)), make_cube_space(1)),
    (X, box((0, 1), (0, 1)), make_cube_space(2)),
    (FunctionModel(PiecewiseConstant(equal_partition_1d(2), (1.0, 4.0))),
     box((0, 1), (0, 1)), make_cube_space(2)),
], ids=["table-on-cube", "affine-on-atoms", "atoms-in-cube", "2d-box-1d-affine",
        "2d-box-1d-pieces"])
def test_cell_integral_refuses_a_cell_or_space_of_another_kind(f, cell, space):
    # each raised AttributeError or TypeError, or integrated the 2-D box
    # over its first axis alone
    with pytest.raises(OutOfDomainError):
        f.cell_integral(cell, space)


def test_a_table_refuses_atoms_it_has_no_value_for():
    # each raised IndexError, or read values[-1] for the atom -1
    f = FunctionModel(FiniteTable((1.0,)))
    for integrate in (lambda: f.integral(TWO_ATOMS),
                      lambda: f.cell_integral(FiniteCell((0,)), TWO_ATOMS)):
        with pytest.raises(OutOfDomainError, match="1-value table .* 2-atom space"):
            integrate()
    for atoms in ((0, 1), (-1,)):
        with pytest.raises(OutOfDomainError, match="outside the 1-value table"):
            f.essential_range(FiniteCell(atoms))


@pytest.mark.parametrize("atoms", [(-1,), (5,), (0, 2)])
def test_cell_integral_refuses_atoms_outside_the_space(atoms):
    # (-1,) read the last atom's value, 1.0, and (5,) raised IndexError
    f = FunctionModel(FiniteTable((1.0, 2.0)))
    with pytest.raises(OutOfDomainError, match=re.escape(
            f"cell atoms {atoms!r} reach outside the 2-atom space")):
        f.cell_integral(FiniteCell(atoms), TWO_ATOMS)


@st.composite
def _finite_layouts(draw):
    """Plain data for a piecewise constant on a random finite space:
    (weights, pieces as atom tuples, values, query atoms).  The pieces
    interleave and come in any order, signed zeros are common values, and
    the query may name the atoms -1 and n, which the space lacks."""
    n = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    pieces = draw(st.permutations(
        [tuple(a for a in range(n) if owners[a] == j) for j in sorted(set(owners))]))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6),
                           min_size=len(pieces), max_size=len(pieces)))
    query = draw(st.lists(st.integers(-1, n), min_size=1, max_size=n + 1))
    total = sum(counts)
    return tuple(c / total for c in counts), tuple(pieces), tuple(values), tuple(query)


@settings(max_examples=300, deadline=None)
@given(_finite_layouts())
# the range of a one-piece layout over atoms (0, 99) of a 2-atom space
# came back [3.0, 3.0]: the missing atom was matched by no piece
@example(((0.5, 0.5), ((0, 1),), (3.0,), (0, 99)))
def test_finite_piece_lookups_match_scans(layout):
    weights, pieces, values, query = layout
    n = len(weights)
    # labels that are digits, but not the atoms' own indices
    space = make_finite_space([(str(n - 1 - a), w) for a, w in enumerate(weights)])
    partition = make_partition(space, [FiniteCell(piece) for piece in pieces])
    for a, label in enumerate(space.labels):
        want = scan_atom_cell(pieces, a)
        assert partition.cell_index_of(a) == partition.cell_index_of(label) == want
    f = FunctionModel(PiecewiseConstant(partition, values))
    cell = FiniteCell(query)
    if not all(0 <= a < n for a in query):
        with pytest.raises(OutOfDomainError, match=re.escape(
                f"cell atoms {cell.atoms!r} reach outside the {n}-atom space")):
            f.essential_range(cell)
        return
    rng = f.essential_range(cell)
    assert (rng.lo.hex(), rng.hi.hex()) == tuple(
        v.hex() for v in all_pieces_range(pieces, values, cell.atoms))


def test_integral_refuses_a_cube_of_another_dimension():
    with pytest.raises(OutOfDomainError):
        X.integral(make_cube_space(2))


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


@pytest.mark.parametrize("spiked", [False, True], ids=["plain", "spiked"])
@pytest.mark.parametrize("base", [
    Affine(0.5, (1.0, -2.0)),
    Quadratic(0.1, (-0.7, 0.3), (0.9, -0.6)),
    Sinusoid(amplitude=1.5, frequency=2.0, phase=0.3, axis=1, dimension=2),
], ids=["affine", "quadratic", "sinusoid"])
def test_continuous_families_normalise_each_point_once(monkeypatch, base, spiked):
    f = FunctionModel(base, (((0.25, 0.75), 9.0),) if spiked else ())
    calls = 0
    as_point = CubeSpace.as_point

    def counting(self, value):
        nonlocal calls
        calls += 1
        return as_point(self, value)

    monkeypatch.setattr(CubeSpace, "as_point", counting)
    points = [(0.25, 0.75), [0.5, 0.5], ("0.125", 1)]
    values = [f.evaluate(p) for p in points]
    assert calls == len(points)
    assert values[0] == (9.0 if spiked else base.evaluate((0.25, 0.75)))
    assert values[1:] == [base.evaluate((0.5, 0.5)), base.evaluate((0.125, 1.0))]
    calls = 0
    qmc_estimate(f, points)
    assert calls == len(points)


@pytest.mark.parametrize("point", ["01", b"01"], ids=["str", "bytes"])
def test_evaluate_rejects_bare_text(point):
    f = FunctionModel(Affine(0.5, (1.0, -2.0)))
    with pytest.raises(OutOfDomainError):
        f.evaluate(point)


def test_cell_integral_pieces():
    p = equal_partition_1d(2)
    f = FunctionModel(PiecewiseConstant(p, (1.0, 4.0)))
    space = make_cube_space(1)
    assert f.cell_integral(interval(0.25, 0.75), space) == 1.0 * 0.25 + 4.0 * 0.25
    assert f.integral(space) == 2.5


CUBE_HALVES_2D = make_partition(make_cube_space(2), [box((0.0, 0.5), (0.0, 1.0)),
                                                    box((0.5, 1.0), (0.0, 1.0))])


@pytest.mark.parametrize("f, partition", [
    # these read [0.0417, 0.2917], [0.125, 0.375] (zip stopped at the
    # shorter side) and an IndexError, where cell_integral refused the cells
    (FunctionModel(Quadratic(0.0, (0.0,), (1.0,))), CUBE_HALVES_2D),
    (FunctionModel(Affine(0.5, (1.0, -2.0))), equal_partition_1d(2)),
    (FunctionModel(Sinusoid(1.0, 1.0, axis=1, dimension=2)), equal_partition_1d(2)),
    (FunctionModel(PiecewiseConstant(equal_partition_1d(2), (1.0, 4.0))), CUBE_HALVES_2D),
    (FunctionModel(FiniteTable((1.0, 2.0))), equal_partition_1d(2)),
    (FunctionModel(PiecewiseConstant(
        make_partition(make_finite_space([("a", 0.5), ("b", 0.5)]), [FiniteCell((0, 1))]),
        (1.0,))), equal_partition_1d(2)),
    (FunctionModel(Affine(0.5, (1.0,))),
     make_partition(make_finite_space([("a", 0.5), ("b", 0.5)]), [FiniteCell((0, 1))])),
], ids=["1d-over-2d", "2d-over-1d", "axis-1-over-1d", "pieces-over-2d", "table-over-cube",
        "finite-pieces-over-cube", "cube-over-finite"])
def test_cell_integrals_refuse_a_partition_cell_integral_refuses(f, partition):
    with pytest.raises(OutOfDomainError) as refused:
        f.cell_integral(partition.cells[0], partition.space)
    with pytest.raises(OutOfDomainError, match=re.escape(str(refused.value))):
        f.cell_integrals(partition)


@st.composite
def piece_layouts(draw):
    """A 1-D or 2-D product grid of pieces with values, and a query
    partition of the same cube cut at other float edges."""
    dimension = draw(st.integers(1, 2))

    def grid():
        axes = []
        for _ in range(dimension):
            # no cut within 2**-20 of a face, so no cell's measure underflows
            cuts = draw(st.lists(st.floats(2.0 ** -20, 1.0 - 2.0 ** -20),
                                 max_size=4, unique=True))
            edges = [0.0, *sorted(cuts), 1.0]
            axes.append(list(zip(edges, edges[1:])))
        return make_partition(make_cube_space(dimension),
                              [BoxCell(*zip(*spans)) for spans in itertools.product(*axes)])

    pieces = grid()
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=pieces.k, max_size=pieces.k))
    return PiecewiseConstant(pieces, tuple(values)), grid()


@settings(max_examples=200, deadline=None)
@given(piece_layouts())
def test_piecewise_integrals_match_a_scan_of_the_pieces(layout):
    base, query = layout
    f = FunctionModel(base)
    expected = [per_piece_integral(base.partition.cells, base.values, c.lower, c.upper)
                for c in query.cells]
    assert [v.hex() for v in f.cell_integrals(query)] == [v.hex() for v in expected]
    assert [f.cell_integral(c, query.space).hex() for c in query.cells] == [
        v.hex() for v in expected]


def test_piece_layout_with_a_gap_refuses_points_and_cells_in_it():
    # a gap of 2**-44 between the pieces passes the cover tolerance
    gap = 2.0 ** -44
    pieces = make_partition(make_cube_space(1), [interval(0.0, 0.5), interval(0.5 + gap, 1.0)])
    f = FunctionModel(PiecewiseConstant(pieces, (1.0, 4.0)))
    assert (f.evaluate(0.5 - gap), f.evaluate(0.5 + gap), f.evaluate(1.0)) == (1.0, 4.0, 4.0)
    for point in (0.5, 0.5 + gap / 2):
        with pytest.raises(OutOfDomainError, match="lies in no cell of the piece layout"):
            f.evaluate(point)
    with pytest.raises(OutOfDomainError, match="meets no piece with positive measure"):
        f.essential_range(interval(0.5, 0.5 + gap))
    rng = f.essential_range(interval(0.5 - gap, 0.5 + 2 * gap))
    assert (rng.lo, rng.hi) == (1.0, 4.0)


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


# Fields as the constructors may get them: signed zeros, integer-valued
# floats (as load_instances yields them), ints and arbitrary floats.
_FIELDS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -2.0)), st.integers(-3, 3),
                    st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False))
_COORDS = st.one_of(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def _built_cases(draw):
    """A continuous family in d = 1..3, a point and a box cell."""
    d = draw(st.integers(1, 3))
    per_axis = st.tuples(*[_FIELDS] * d)
    family = draw(st.sampled_from(("affine", "quadratic", "sinusoid")))
    if family == "affine":
        base = Affine(draw(_FIELDS), draw(per_axis))
    elif family == "quadratic":
        base = Quadratic(draw(_FIELDS), draw(per_axis), draw(per_axis))
    else:
        base = Sinusoid(amplitude=draw(_FIELDS),
                        frequency=draw(st.one_of(st.integers(0, 3), st.floats(0.0, 64.0))),
                        phase=draw(_FIELDS), offset=draw(_FIELDS),
                        axis=draw(st.integers(0, d - 1)), dimension=d)
    point = draw(st.tuples(*[_COORDS] * d))
    cell = box(*[sorted(draw(st.tuples(_COORDS, _COORDS))) for _ in range(d)])
    return base, point, cell


@settings(max_examples=500, deadline=None)
@given(_built_cases())
# -0.0 + fsum([-0.0]) is 0.0, and so is a zero intercept plus a -0.0 term
@example((Affine(-0.0, (-1.0,)), (0.0,), box((0.0, 0.5))))
@example((Quadratic(-0.0, (-1.0, 0.0), (0.0, -0.0)), (0.0, 1.0), box((0.0, 0.5), (-0.0, 1.0))))
# a vertex on the cell's lower end, and int peaks offset +- amplitude
@example((Quadratic(0.0, (-1.0,), (2.0,)), (0.25,), box((0.25, 0.5))))
@example((Sinusoid(amplitude=1, frequency=1, offset=2), (0.25,), box((0.0, 1.0))))
def test_built_arithmetic_matches_the_fieldwise_closed_forms_bit_for_bit(case):
    base, point, cell = case
    assert base.evaluate(point).hex() == fieldwise_value(base, point).hex()
    want = tuple(v.hex() for v in fieldwise_range(base, cell))
    assert tuple(v.hex() for v in base.range_on(cell)) == want
    got = FunctionModel(base).essential_range(cell)
    assert type(got.lo) is float and type(got.hi) is float
    assert (got.lo.hex(), got.hi.hex()) == want


# Fields up to an eighth of VALUE_LIMIT, so that the five of a two-axis
# Quadratic stay within it.
_TWO_AXIS_FIELDS = st.one_of(_FIELDS, st.floats(-VALUE_LIMIT / 8, VALUE_LIMIT / 8))
_TWO_AXES = st.tuples(_TWO_AXIS_FIELDS, _TWO_AXIS_FIELDS)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from((Affine, Quadratic)), _TWO_AXIS_FIELDS, _TWO_AXES, _TWO_AXES,
       st.tuples(_COORDS, _COORDS))
# two -0.0 terms add to -0.0, where fsum gives 0.0
@example(Affine, -0.0, (-1.0, -1.0), (0.0, 0.0), (0.0, 0.0))
@example(Quadratic, -0.0, (-1.0, -1.0), (-1.0, -0.0), (0.0, 0.0))
@example(Quadratic, 1, (0, -2), (0, 3), (1.0, 1.0))
def test_two_axis_values_match_the_fieldwise_fsum_bit_for_bit(family, c, first, second, point):
    base = Affine(c, first) if family is Affine else Quadratic(c, first, second)
    want = fieldwise_value(base, point).hex()
    assert base.evaluate(point).hex() == want
    assert FunctionModel(base).evaluate(point).hex() == want


@settings(max_examples=1000)
@given(st.floats(-VALUE_LIMIT, VALUE_LIMIT), st.floats(-VALUE_LIMIT, VALUE_LIMIT))
@example(-0.0, -0.0)
@example(1.0, 2.0**-53)  # ties round to even, up or down
@example(1.0 + 2.0**-52, 2.0**-53)
@example(VALUE_LIMIT, VALUE_LIMIT)
@example(-VALUE_LIMIT, -VALUE_LIMIT)
def test_fsum_of_two_terms_is_one_addition_plus_zero(a, b):
    assert math.fsum([a, b]).hex() == ((a + b) + 0.0).hex()


@pytest.mark.parametrize("make, text", [
    (lambda: Affine(0.5, (1.0, -2.0)), "Affine(intercept=0.5, slopes=(1.0, -2.0))"),
    (lambda: Quadratic(0.1, (-0.7,), (0.9,)),
     "Quadratic(intercept=0.1, linear=(-0.7,), quadratic=(0.9,))"),
    (lambda: Sinusoid(amplitude=1.5, frequency=2.0, axis=1, dimension=2),
     "Sinusoid(amplitude=1.5, frequency=2.0, phase=0.0, offset=0.0, axis=1, dimension=2)"),
], ids=["affine", "quadratic", "sinusoid"])
def test_built_fields_stay_out_of_equality_hash_repr_and_pickles(make, text):
    a, b = make(), make()
    assert a.evaluate is not b.evaluate  # each model builds its own
    assert a == b and hash(a) == hash(b) and repr(a) == text
    assert FunctionModel(a) == FunctionModel(b)
    assert hash(FunctionModel(a)) == hash(FunctionModel(b))
    loaded = pickle.loads(pickle.dumps(FunctionModel(a)))
    point, cell = (0.25,) * a.dimension, box(*[(0.0, 0.5)] * a.dimension)
    assert loaded == FunctionModel(a) and repr(loaded.base) == text
    assert loaded.evaluate(point) == a.evaluate(point)
    assert loaded.base.range_on(cell) == a.range_on(cell)

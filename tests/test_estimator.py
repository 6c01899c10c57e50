"""Point-set averages, realized errors, bound reports."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    BoundViolationError,
    FiniteTable,
    FunctionModel,
    NotUniformError,
    PiecewiseConstant,
    Quadratic,
    allocation,
    bound_report,
    construct_uniform,
    equal_partition_1d,
    make_cube_space,
    make_finite_space,
    qmc_estimate,
)
from qmcbounds import estimator
from qmcbounds.bounds import cell_table, certification_slack
from qmcbounds.pointsets import STRATEGY_RANDOM

X = FunctionModel(Affine(0.0, (1.0,)))
X2 = FunctionModel(Quadratic(0.0, (0.0,), (1.0,)))


def test_qmc_estimate_two_nodes():
    # f(x)=x at nodes 0.25, 0.75: estimate 0.5
    assert qmc_estimate(X, [(0.25,), (0.75,)]) == 0.5


def test_qmc_estimate_finite():
    # f=(0,1) at nodes a,b: 0.5
    f = FunctionModel(FiniteTable((0.0, 1.0)))
    assert qmc_estimate(f, [0, 1]) == 0.5


def test_qmc_estimate_piecewise_identity():
    """A piecewise constant averaged over any uniform set equals its
    integral, the identity behind the distance-based bound."""
    p = equal_partition_1d(4)
    f = FunctionModel(PiecewiseConstant(p, (2.0, -1.0, 0.5, 3.0)))
    space = make_cube_space(1)
    for seed in range(20):
        ps = construct_uniform(p, 8, STRATEGY_RANDOM, seed=seed)
        assert abs(qmc_estimate(f, ps) - f.integral(space)) <= 1e-14


def test_qmc_estimate_whose_sum_overflows_evaluates_each_node_once(monkeypatch):
    # five values of 4e307 sum past the largest double; the average of
    # the values each divided by N is taken from the values already read
    calls = []
    real = FunctionModel.evaluate

    def counting(self, point, *args, **kwargs):
        calls.append(point)
        return real(self, point, *args, **kwargs)

    monkeypatch.setattr(FunctionModel, "evaluate", counting)
    nodes = [((2 * i + 1) / 10,) for i in range(5)]
    assert qmc_estimate(FunctionModel(Affine(4e307, (0.0,))), nodes) == 4e307
    assert calls == nodes


def test_integration_error_midpoints_zero_for_linear():
    # midpoints integrate f(x)=x exactly
    p = equal_partition_1d(4)
    ps = construct_uniform(p, 4, "cell-midpoint")
    assert abs(qmc_estimate(X, ps) - X.integral(p.space)) == 0.0


def test_integration_error_left_edges():
    # nodes (0, .25, .5, .75): estimate 0.375, integral 0.5, error 0.125
    nodes = [(0.0,), (0.25,), (0.5,), (0.75,)]
    assert abs(qmc_estimate(X, nodes) - X.integral(make_cube_space(1))) == 0.125


def test_integration_error_finite_config():
    # f=(0,1,2,4) equal weights, config {1,3}: |1 - 1.75| = 0.75
    space = make_finite_space([(str(i), 0.25) for i in range(1, 5)])
    f = FunctionModel(FiniteTable((0.0, 1.0, 2.0, 4.0), space.labels))
    assert abs(qmc_estimate(f, [0, 2]) - f.integral(space)) == 0.75


def test_bound_report_midpoints_x2():
    # estimate (0.0625 + 0.5625)/2 = 0.3125, error |0.3125 - 1/3|
    p = equal_partition_1d(2)
    ps = construct_uniform(p, 2, "cell-midpoint")
    report = bound_report(X2, p, ps, instance_id="demo")
    assert report.estimate == 0.3125
    assert abs(report.error - abs(0.3125 - 1.0 / 3.0)) < 1e-16
    assert report.error <= report.bounds.corollary2  # 0.5
    assert report.bounds.corollary2 == 0.5
    assert report.n_points == 2
    assert report.instance_id == "demo"


def test_bound_report_exact_for_midpoint_rule():
    p = equal_partition_1d(4)
    ps = construct_uniform(p, 4, "cell-midpoint")
    report = bound_report(X, p, ps)
    assert report.error == 0.0
    assert report.bounds.corollary2 == 0.25


def test_bound_report_rejects_non_uniform():
    p = equal_partition_1d(4)
    with pytest.raises(NotUniformError):
        bound_report(X, p, [(0.1,), (0.2,), (0.3,), (0.8,)])


def test_not_uniform_message_names_the_first_cell_that_is_off():
    p = equal_partition_1d(1024)
    nodes = list(construct_uniform(p, 1024).nodes)
    nodes[700] = nodes[5]  # cell 700 loses its node to cell 5
    with pytest.raises(NotUniformError) as caught:
        bound_report(X, p, nodes)
    message = str(caught.value)
    assert message == ("point set is not uniform for the partition: cell 5 holds "
                       "2 nodes, expected 1.0; 2 of 1024 cells are off")
    assert len(message) < 120


def test_estimate_linearity():
    p = equal_partition_1d(4)
    ps = construct_uniform(p, 8, STRATEGY_RANDOM, seed=9)
    # g = 3.5 f - 1.25
    for f, g in (
        (X, FunctionModel(Affine(-1.25, (3.5,)))),
        (X2, FunctionModel(Quadratic(-1.25, (0.0,), (3.5,)))),
    ):
        assert abs(qmc_estimate(g, ps) - (3.5 * qmc_estimate(f, ps) - 1.25)) < 1e-12


def test_estimate_permutation_invariant():
    """fsum is exactly rounded, so node order cannot change the estimate."""
    rng = random.Random(3)
    nodes = [(rng.uniform(0, 1),) for _ in range(501)]
    reference = qmc_estimate(X2, nodes)
    for _ in range(10):
        rng.shuffle(nodes)
        assert qmc_estimate(X2, nodes) == reference


def test_error_within_bounds_random_uniform_sets():
    p = equal_partition_1d(8)
    space = p.space
    from qmcbounds import bound_set
    for f in (X, X2):
        b = bound_set(f, p)
        for seed in range(50):
            ps = construct_uniform(p, 16, STRATEGY_RANDOM, seed=seed)
            err = abs(qmc_estimate(f, ps) - f.integral(space))
            assert err <= b.corollary2 + 1e-9


def test_spiked_errors_identical_when_nodes_avoid_spikes():
    p = equal_partition_1d(4)
    space = p.space
    rng = random.Random(11)
    spikes = tuple(((rng.uniform(0, 1),), 10.0 ** rng.uniform(3, 6)) for _ in range(5))
    f_clean = X2
    f_spiked = FunctionModel(X2.base, spikes)
    spike_points = [pt for pt, _ in spikes]
    for seed in range(100):
        ps = construct_uniform(p, 4, STRATEGY_RANDOM, seed=seed,
                               avoid_points=spike_points)
        e0 = abs(qmc_estimate(f_clean, ps) - f_clean.integral(space))
        e1 = abs(qmc_estimate(f_spiked, ps) - f_spiked.integral(space))
        assert e0 == e1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_report_error_never_exceeds_certificate(seed):
    p = equal_partition_1d(4)
    ps = construct_uniform(p, 8, STRATEGY_RANDOM, seed=seed)
    report = bound_report(X2, p, ps)
    assert report.error <= report.bounds.corollary2 + 1e-9


def test_bound_report_slack_scales_with_large_values():
    # A constant of this size is 4.8e-7 off its own midpoint average, one
    # rounding of the values; an absolute slack of 1e-9 against
    # corollary2 = 0.0 raised BoundViolationError
    f = FunctionModel(Affine(4108847960.7591014, (0.0,)))
    p = equal_partition_1d(5)
    report = bound_report(f, p, construct_uniform(p, 5))
    assert report.bounds.corollary2 == 0.0
    assert 0.0 < report.error < 1e-6


def test_bound_report_slack_scales_with_small_values(monkeypatch):
    # at magnitude 1e-12 the slack is of order 1e-27, so an estimate 1e-10
    # off, which an absolute slack of 1e-9 let through, is a violation
    f = FunctionModel(Affine(1e-12, (1e-12,)))
    p = equal_partition_1d(8)
    table = cell_table(f, p)
    assert certification_slack(table, f.integral(p.space), allocation(p, 8)) < 1e-25
    monkeypatch.setattr(estimator, "qmc_estimate", lambda f, nodes, *, normal=False: 1.5e-12 + 1e-10)
    with pytest.raises(BoundViolationError, match="exceeds the certified bound"):
        bound_report(f, p, construct_uniform(p, 8))


def test_estimate_when_the_sum_of_values_overflows():
    # the sum of the five values passes the largest double, the average
    # does not; each value divided by N first keeps the fsum finite
    f = FunctionModel(Affine(4e307, (0.0,)))
    p = equal_partition_1d(5)
    ps = construct_uniform(p, 5)
    assert qmc_estimate(f, ps) == 4e307
    report = bound_report(f, p, ps)
    assert (report.estimate, report.error, report.bounds.corollary2) == (4e307, 0.0, 0.0)
    pieces = FunctionModel(PiecewiseConstant(p, (1.7e308, 1.7e308, -1.7e308, 1.7e308, 0.0)))
    assert qmc_estimate(pieces, ps) == math.fsum([v / 5 for v in pieces.base.values])

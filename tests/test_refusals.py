"""Refusals: each row is a call, the error class it must raise and a
fragment of the message."""

import os
import re

import pytest

from qmcbounds import (
    Affine,
    BoxCell,
    CoverError,
    EmptyCellError,
    FiniteCell,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    InstanceFormatError,
    NonIntegerAllocationError,
    OutOfDomainError,
    PiecewiseConstant,
    QmcBoundsError,
    Quadratic,
    Sinusoid,
    allocation,
    construct_uniform,
    equal_partition_1d,
    interval,
    make_cube_space,
    make_finite_space,
    make_partition,
    qmc_estimate,
    verify_bounds_exhaustive,
)
from qmcbounds.experiments import (
    convergence_table,
    named_function,
    naive_pointwise_s,
    perturb_table,
)
from qmcbounds.instances import function_from_json, function_to_json, range_mode_from_json
from qmcbounds.pointsets import STRATEGY_MIDPOINT
from qmcbounds.reports import write_atomic

X = FunctionModel(Affine(0.0, (1.0,)))
FINITE = make_finite_space([("a", 0.5), ("b", 0.5)])
HALVES_2D = make_partition(make_cube_space(2), [BoxCell((0.0, 0.0), (0.5, 1.0)),
                                                BoxCell((0.5, 0.0), (1.0, 1.0))])
# a partition of another two-atom space, and a layout on FINITE
SINGLETONS_B = make_partition(make_finite_space([("x", 0.25), ("y", 0.75)]),
                              [FiniteCell((0,)), FiniteCell((1,))])
FINITE_HALVES = make_partition(FINITE, [FiniteCell((0,)), FiniteCell((1,))])
THIRDS = make_partition(make_cube_space(1),
                        [interval(0.0, 1 / 3), interval(1 / 3, 2 / 3), interval(2 / 3, 1.0)])


class _Unlisted:
    """A base function of no family the JSON form knows."""

    dimension = 1


REFUSALS = [
    # experiments
    pytest.param(lambda: named_function("x3"), QmcBoundsError, "unknown function name 'x3'",
                 id="named_function-unknown"),
    pytest.param(lambda: convergence_table(FunctionModel(Affine(0.0, (1.0, 1.0))), 1,
                                           STRATEGY_MIDPOINT),
                 QmcBoundsError, "need a one-dimensional cube function", id="study-2d"),
    pytest.param(lambda: convergence_table(
        FunctionModel(Affine(0.0, (1.0,)), range_mode=GridRangeMode(8, 0)), 1,
        STRATEGY_MIDPOINT), QmcBoundsError, "need the exact range oracle", id="study-grid"),
    pytest.param(lambda: naive_pointwise_s(X, HALVES_2D), QmcBoundsError,
                 "naive baseline study is one-dimensional", id="naive-2d"),
    pytest.param(lambda: perturb_table(FunctionModel(Affine(0.0, (1.0,)), (((0.5,), 2.0),)),
                                       4, 1),
                 QmcBoundsError, "adds its own spikes", id="perturb-spiked"),
    # funcmodel
    pytest.param(lambda: GridRangeMode(0, 2), ValueError, "resolution >= 1 and levels >= 0",
                 id="grid-resolution"),
    pytest.param(lambda: Quadratic(0.0, (1.0,), (1.0, 2.0)), ValueError,
                 "tuples differ in length", id="quadratic-lengths"),
    pytest.param(lambda: Sinusoid(1.0, 1.0, axis=1), ValueError,
                 "axis 1 out of range for dimension 1", id="sinusoid-axis"),
    pytest.param(lambda: Sinusoid(1.0, -1.0), ValueError, "frequency must be nonnegative",
                 id="sinusoid-frequency"),
    pytest.param(lambda: PiecewiseConstant(equal_partition_1d(2), (1.0,)), ValueError,
                 "1 values for 2 cells", id="pieces-values"),
    pytest.param(lambda: PiecewiseConstant(make_partition(FINITE, [FiniteCell((0, 1))]),
                                           (1.0,)).range_on(interval(0.0, 1.0)),
                 OutOfDomainError, "expected a finite cell", id="finite-pieces-box"),
    pytest.param(lambda: FiniteTable((1.0, 2.0)).range_on(interval(0.0, 1.0)),
                 OutOfDomainError, "expected a finite cell", id="table-box"),
    pytest.param(lambda: FunctionModel(PiecewiseConstant(FINITE_HALVES, (1.0, 2.0))).integral(
        make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)])), OutOfDomainError,
        "a piece layout on 2 atoms read on a 3-atom space", id="pieces-atom-count"),
    pytest.param(lambda: FunctionModel(FiniteTable((1.0, 2.0))).cell_integral(
        interval(0.0, 1.0), FINITE), OutOfDomainError, "finite space needs finite cells",
        id="table-integral-box"),
    # instances
    pytest.param(lambda: function_to_json(FunctionModel(_Unlisted())), QmcBoundsError,
                 "family _Unlisted has no JSON form", id="to-json-unlisted"),
    pytest.param(lambda: range_mode_from_json({"mode": "sparse"}), InstanceFormatError,
                 "range_mode: unknown mode 'sparse'", id="range-mode-unknown"),
    pytest.param(lambda: function_from_json(
        {"family": "finite_table", "params": {"values": [1.0]}}, make_cube_space(1)),
        InstanceFormatError, "finite_table needs a finite space", id="table-on-cube"),
    # oracle
    pytest.param(lambda: verify_bounds_exhaustive(FINITE, SINGLETONS_B,
                                                  FunctionModel(FiniteTable((0.0, 1.0))), 4),
                 OutOfDomainError, "instance '': space is not partition.space",
                 id="instance-space-mismatch"),
    # pointsets
    pytest.param(lambda: allocation(THIRDS, 2 ** 60 + 1), NonIntegerAllocationError,
                 "rounded cell counts sum to 1152921504606846976, not 1152921504606846977",
                 id="allocation-sum"),
    pytest.param(lambda: construct_uniform(equal_partition_1d(2), 2, "lattice"), ValueError,
                 "unknown strategy 'lattice'", id="strategy-unknown"),
    # spaces
    pytest.param(lambda: make_finite_space([]), EmptyCellError, "at least one atom",
                 id="no-atoms"),
    pytest.param(lambda: make_cube_space(0), ValueError, "dimension must be >= 1, got 0",
                 id="cube-dimension"),
    pytest.param(lambda: BoxCell((0.0,), (1.0, 1.0)), ValueError,
                 "lower and upper must have the same length", id="box-lengths"),
    pytest.param(lambda: make_partition(FINITE, [interval(0.0, 1.0)]), OutOfDomainError,
                 "cell 0 is not a finite cell", id="finite-partition-box"),
    pytest.param(lambda: make_partition(FINITE, [FiniteCell(())]), EmptyCellError,
                 "cell 0 has no atoms", id="finite-partition-empty"),
    pytest.param(lambda: make_partition(make_cube_space(1), [FiniteCell((0,))]),
                 OutOfDomainError, "cell 0 is not a box cell", id="cube-partition-atoms"),
    pytest.param(lambda: make_partition(make_cube_space(2), [interval(0.0, 1.0)]),
                 OutOfDomainError, "cell 0 has dimension 1, space has 2",
                 id="cube-partition-dimension"),
    pytest.param(lambda: make_partition(make_cube_space(1), []), CoverError,
                 "at least one cell", id="no-cells"),
    pytest.param(lambda: equal_partition_1d(0), ValueError, "need k >= 1, got 0",
                 id="equal-partition-k"),
    # estimator
    pytest.param(lambda: qmc_estimate(X, []), ValueError, "empty point set", id="estimate-empty"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_refusal(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_write_atomic_leaves_no_temp_file_when_the_text_cannot_be_encoded(tmp_path):
    path = tmp_path / "report.csv"
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "a\ud800")  # a lone surrogate has no UTF-8 form
    assert os.listdir(tmp_path) == []

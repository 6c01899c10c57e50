"""Exhaustive verification, discrete minimax, instance generation."""

import math
import random

import pytest

from qmcbounds import (
    FiniteCell,
    FiniteTable,
    FunctionModel,
    QmcBoundsError,
    allocation,
    distance_to_span,
    enumerate_uniform,
    make_finite_space,
    make_partition,
    minimax_distance_finite,
    random_instance,
    single_cell_partition,
    small_exhaustive_suite,
    verify_bounds_exhaustive,
    verify_instance,
    worst_case_error,
)
from qmcbounds.oracle import MAX_ATOMS, MAX_CELLS
from oracles import brute_minimax_single_cell


def finite_example():
    space = make_finite_space([(str(i), 0.25) for i in range(1, 5)])
    p = make_partition(space, [FiniteCell((0, 1)), FiniteCell((2, 3))])
    f = FunctionModel(FiniteTable((0.0, 1.0, 2.0, 4.0), space.labels))
    return space, p, f


def test_worst_case_error_example():
    # errors over the 4 configs are {0.75, 0.25, 0.25, 0.75}; the first
    # argmax in lexicographic order is ({1},{3})
    space, p, f = finite_example()
    worst, config = worst_case_error(space, p, f, 2)
    assert worst == 0.75
    assert config == ((0,), (2,))


def test_verify_enumerates_once(monkeypatch):
    from qmcbounds import oracle

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_uniform(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_uniform", counting)
    space, p, f = finite_example()
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert verdict.worst_error == 0.75
    assert len(calls) == 1


def test_worst_case_error_constant():
    space, p, _ = finite_example()
    f = FunctionModel(FiniteTable((2.0,) * 4, space.labels))
    worst, config = worst_case_error(space, p, f, 2)
    assert worst == 0.0
    assert config == ((0,), (2,))  # first configuration wins ties


def test_worst_case_error_singletons():
    # singleton cells leave a single configuration with zero error
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    f = FunctionModel(FiniteTable((3.0, -1.0), space.labels))
    worst, _ = worst_case_error(space, p, f, 2)
    assert worst <= 1e-15


def test_verify_example_tightness():
    # worst 0.75 against corollary2 = 1.5: tightness 0.5
    space, p, f = finite_example()
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert verdict.passed
    assert verdict.worst_error == 0.75
    assert verdict.tightness == 0.5
    assert verdict.total_configurations == 4


def test_verify_constant_tightness_one():
    # 0/0 is reported as tightness 1.0
    space, p, _ = finite_example()
    f = FunctionModel(FiniteTable((5.0,) * 4, space.labels))
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert verdict.passed
    assert verdict.worst_error == 0.0
    assert verdict.tightness == 1.0


def test_verify_singleton_cells_zero_budget_noise():
    # singleton cells zero out corollary2 while the estimate and the
    # integral are summed in different orders; ulp-level noise against
    # the zero budget must read as tightness 1.0, not inf
    space = make_finite_space([("a", 0.75), ("b", 0.25)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    f = FunctionModel(FiniteTable((0.8126963153763909, -0.1418404633106658),
                                  space.labels))
    verdict = verify_bounds_exhaustive(space, p, f, 4)
    assert verdict.bounds.corollary2 == 0.0
    assert verdict.worst_error <= 1e-15
    assert verdict.passed
    assert verdict.tightness == 1.0
    assert math.isfinite(verdict.tightness)


def test_verify_trivial_partition_two_atoms():
    # {a: .5, b: .5}, one cell, N=2: worst 0.5, corollary2 = 1
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = single_cell_partition(space)
    f = FunctionModel(FiniteTable((0.0, 1.0), space.labels))
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert verdict.worst_error == 0.5
    assert verdict.bounds.corollary2 == 1.0
    assert verdict.tightness == 0.5
    assert verdict.passed


def test_minimax_single_cell_family():
    # {a, b, c} equal, family {{a, b}}, f = (0, 1, 5): distance 0.5,
    # cross-checked by coefficient grid search
    space = make_finite_space([("a", 1 / 3), ("b", 1 / 3), ("c", 1 / 3)])
    f = FunctionModel(FiniteTable((0.0, 1.0, 5.0), space.labels))
    cert = minimax_distance_finite(space, [FiniteCell((0, 1))], f)
    assert abs(cert.value - 0.5) < 1e-9
    oracle = brute_minimax_single_cell((0.0, 1.0, 5.0), {0, 1})
    assert abs(oracle - 0.5) < 1e-5
    # certificate is self-consistent
    residuals = [abs(v - lv) for v, lv in zip((0.0, 1.0, 5.0), cert.atom_values)]
    assert abs(max(residuals) - cert.value) < 1e-12


def test_minimax_constant_function_zero():
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    f = FunctionModel(FiniteTable((2.0, 2.0), space.labels))
    cert = minimax_distance_finite(space, [FiniteCell((0,))], f)
    assert cert.value <= 1e-12


def test_minimax_matches_closed_form_on_partitions():
    for trial in range(25):
        instance = random_instance(1000 + trial)
        cert = minimax_distance_finite(
            instance.space, list(instance.partition.cells), instance.function
        )
        closed = distance_to_span(instance.function, instance.partition)
        assert abs(cert.value - closed) <= 1e-9


def test_minimax_degenerate_whole_space_cell():
    # a family cell equal to X folds the constant into the coefficient
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    f = FunctionModel(FiniteTable((1.0, 3.0), space.labels))
    cert = minimax_distance_finite(space, [FiniteCell((0, 1))], f)
    assert cert.degenerate
    assert cert.constant == 0.0
    assert abs(cert.value - 1.0) < 1e-9  # best constant 2, residual 1


def test_minimax_overlapping_family_certificate():
    # overlapping, non-covering families still yield consistent certificates
    space = make_finite_space([(f"a{i}", 0.2) for i in range(5)])
    values = (0.0, 2.0, -1.0, 4.0, 0.5)
    f = FunctionModel(FiniteTable(values, space.labels))
    family = [FiniteCell((0, 1, 2)), FiniteCell((1, 2, 3))]
    cert = minimax_distance_finite(space, family, f)
    achieved = max(abs(v - lv) for v, lv in zip(values, cert.atom_values))
    assert abs(achieved - cert.value) < 1e-12
    # the value is a genuine minimax: no sampled competitor beats it
    rng = random.Random(1)
    for _ in range(300):
        c0 = rng.uniform(-5, 5)
        cs = [rng.uniform(-5, 5) for _ in family]
        worst = max(
            abs(v - (c0 + sum(c for cell, c in zip(family, cs) if i in cell.atoms)))
            for i, v in enumerate(values)
        )
        assert worst >= cert.value - 1e-9


def test_random_instance_deterministic_and_valid():
    a = random_instance(7)
    b = random_instance(7)
    assert a == b
    for seed in range(40):
        inst = random_instance(seed)
        assert 2 <= inst.space.n_atoms <= MAX_ATOMS
        assert 1 <= inst.partition.k <= MAX_CELLS
        assert inst.n_points in (2, 4, 8, 16)
        # weights are positive multiples of 1/16
        for w in inst.space.weights:
            assert abs(w * 16 - round(w * 16)) < 1e-12
            assert w > 0
        # declared N is feasible, and so is 16
        allocation(inst.partition, inst.n_points)
        allocation(inst.partition, 16)


def test_random_instance_verifies():
    for seed in (0, 1, 2, 3, 4):
        verdict = verify_instance(random_instance(seed))
        assert verdict.passed


def test_suite_shape():
    suite = small_exhaustive_suite()
    # grid: atoms 2..6 x (N=2: k<=2; N=4: k<=min(3, atoms)) = 24 combos
    grid = [i for i in suite if i.instance_id.startswith("grid-")]
    assert len(grid) == 24 * 20
    assert len(suite) == 24 * 20 + 100
    ids = [i.instance_id for i in suite]
    assert len(set(ids)) == len(ids)


def test_verify_instance_needs_n():
    inst = random_instance(3)
    stripped = type(inst)(inst.instance_id, inst.space, inst.partition,
                          inst.function, None)
    with pytest.raises(QmcBoundsError):
        verify_instance(stripped)

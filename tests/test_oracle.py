"""Exhaustive verification, discrete minimax, instance generation."""

import math
import random
import sys
import tracemalloc
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcbounds import (
    FiniteCell,
    FiniteTable,
    FunctionModel,
    QmcBoundsError,
    Sinusoid,
    allocation,
    bound_set,
    enumerate_uniform,
    equal_partition_1d,
    make_finite_space,
    make_partition,
    minimax_distance_finite,
    random_instance,
    small_exhaustive_suite,
    verify_bounds_exhaustive,
    verify_instance,
    worst_case_error,
    worst_uniform_error,
)
from qmcbounds import oracle
from qmcbounds.experiments import convergence_table, named_function
from qmcbounds.oracle import MAX_ATOMS, MAX_CELLS, VERIFY_SLACK
from qmcbounds.pointsets import DEFAULT_ENUMERATION_CAP
from oracles import (
    brute_minimax_single_cell,
    grid_worst_placement,
    scan_worst_configuration,
)


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
    p = make_partition(space, [FiniteCell(range(space.n_atoms))])
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
        closed = bound_set(instance.function, instance.partition).distance
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


# --- the vectorised scorer --------------------------------------------------

# Property cases stay this small so the reference loop keeps up.
MAX_CASE_CONFIGURATIONS = 3000

TIED_VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0)

# Sums of these tie in exact arithmetic but round apart in the last ulp,
# depending on the order of the additions.
ROUNDING_VALUES = (0.0, 1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-53, 0.1, 0.2, 0.3, -0.1)

VALUE_KINDS = ("uniform", "tied", "rounding", "constant", "mixed")


def _configuration_count(atoms_per_cell, counts):
    return math.prod(math.comb(a + c - 1, c) for a, c in zip(atoms_per_cell, counts))


@st.composite
def scoring_cases(draw, kinds=VALUE_KINDS, min_cells=1, max_points=16):
    """(space, partition, f, N, chunk): 1-3 cells, N <= 16, with values
    uniform in [-1, 1], heavily tied, tied up to rounding, constant, or
    of magnitudes mixed from 1e-300 to 1e300, scored in chunks from 1
    configuration up."""
    k = draw(st.integers(min_cells, 3))
    n_points = draw(st.integers(k, max_points))
    cuts = sorted(draw(st.lists(st.integers(1, max(n_points - 1, 1)), min_size=k - 1,
                                max_size=k - 1, unique=True)))
    edges = [0, *cuts, n_points]
    counts = [edges[j + 1] - edges[j] for j in range(k)]
    atoms_per_cell = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    while _configuration_count(atoms_per_cell, counts) > MAX_CASE_CONFIGURATIONS:
        atoms_per_cell[atoms_per_cell.index(max(atoms_per_cell))] -= 1
    n_atoms = sum(atoms_per_cell)
    order = draw(st.permutations(range(n_atoms)))
    weights = [0.0] * n_atoms
    cells = []
    start = 0
    for count, size in zip(counts, atoms_per_cell):
        members = order[start:start + size]
        start += size
        units = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
        for atom, unit in zip(members, units):
            weights[atom] = count / n_points * unit / sum(units)
        cells.append(FiniteCell(tuple(members)))
    kind = draw(st.sampled_from(kinds))
    if kind == "uniform":
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_atoms, max_size=n_atoms))
    elif kind in ("tied", "rounding"):
        pool = TIED_VALUES if kind == "tied" else ROUNDING_VALUES
        values = draw(st.lists(st.sampled_from(pool), min_size=n_atoms, max_size=n_atoms))
    elif kind == "constant":
        values = [draw(st.floats(-1e6, 1e6))] * n_atoms
    else:
        magnitudes = st.builds(lambda m, e: m * 10.0 ** e,
                               st.floats(-9.99, 9.99), st.integers(-300, 299))
        values = draw(st.lists(magnitudes, min_size=n_atoms, max_size=n_atoms))
    space = make_finite_space([(f"a{i}", w) for i, w in enumerate(weights)])
    partition = make_partition(space, cells)
    f = FunctionModel(FiniteTable(tuple(values), space.labels))
    chunk = draw(st.sampled_from((1, 2, 7, 64, oracle.SCORE_CHUNK)))
    return space, partition, f, n_points, chunk


def assert_scores_like_the_reference_loop(case):
    space, partition, f, n_points, chunk = case
    stream = enumerate_uniform(space, partition, n_points)
    want_worst, want_argmax = scan_worst_configuration(stream, space, f, n_points)
    with mock.patch.object(oracle, "SCORE_CHUNK", chunk):
        worst, argmax = worst_case_error(space, partition, f, n_points)
    assert worst.hex() == want_worst.hex()
    assert argmax == want_argmax


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases())
def test_scorer_matches_the_reference_loop_bit_for_bit(case):
    assert_scores_like_the_reference_loop(case)


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases(kinds=("rounding",), min_cells=2, max_points=9))
def test_scorer_keeps_near_ties_that_rounding_separates(case):
    assert_scores_like_the_reference_loop(case)


def test_scorer_rescores_what_rounding_ranks_lower():
    # Cells {a}, {b}, {c, d} with one node each.  Adding the cell sums
    # rounds (a, b, c) = 2^-52 + 3*2^-53 + 1 one ulp above its exact
    # sum, and so above (a, b, d), whose exact score is the larger one:
    # only the margin below the approximate maximum keeps (a, b, d).
    space = make_finite_space([("a", 1 / 3), ("b", 1 / 3), ("c", 1 / 6), ("d", 1 / 6)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,)), FiniteCell((2, 3))])
    f = FunctionModel(FiniteTable((2.0**-52, 3 * 2.0**-53, 1.0, 3 * 2.0**-53), space.labels))
    stream = enumerate_uniform(space, p, 3)
    assert scan_worst_configuration(stream, space, f, 3) == (0.1666666666666666,
                                                             ((0,), (1,), (3,)))
    assert worst_case_error(space, p, f, 3) == (0.1666666666666666, ((0,), (1,), (3,)))


@pytest.mark.parametrize("values", [
    tuple(random.Random(5).uniform(-1.0, 1.0) for _ in range(16)),
    (0.5,) * 16,  # every configuration ties
])
def test_scoring_sums_each_multiset_once_in_bounded_memory(monkeypatch, values):
    # 4 cells of 4 equal atoms, N = 16: 35^4 configurations
    space = make_finite_space([(f"a{i}", 1 / 16) for i in range(16)])
    p = make_partition(space, [FiniteCell(tuple(range(4 * j, 4 * j + 4))) for j in range(4)])
    f = FunctionModel(FiniteTable(values, space.labels))
    multisets = 4 * math.comb(4 + 4 - 1, 4)
    real_fsum = math.fsum
    calls = 0

    def counting_fsum(values):
        nonlocal calls
        calls += 1
        return real_fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    tracemalloc.start()
    try:
        worst, _ = worst_case_error(space, p, f, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(enumerate_uniform(space, p, 16)) == 1_500_625
    assert calls <= multisets + 100
    assert peak < 8 * 2**20
    assert abs(worst - worst_uniform_error(f, p)) <= 1e-15


def test_scoring_does_no_python_work_per_multiset(monkeypatch):
    # one cell of 6 atoms, N = 16: 20,349 multisets, scored with a
    # handful of fsum calls (the integral and the rescored candidates)
    space = make_finite_space([(f"a{i}", 1 / 6) for i in range(6)])
    p = make_partition(space, [FiniteCell(range(space.n_atoms))])
    rng = random.Random(3)
    f = FunctionModel(FiniteTable(tuple(rng.uniform(-1.0, 1.0) for _ in range(6)),
                                  space.labels))
    real_fsum = math.fsum
    calls = 0

    def counting_fsum(values):
        nonlocal calls
        calls += 1
        return real_fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    worst, argmax = worst_case_error(space, p, f, 16)
    monkeypatch.undo()
    assert len(enumerate_uniform(space, p, 16)) == 20_349
    assert calls <= 20
    assert (worst, argmax) == scan_worst_configuration(enumerate_uniform(space, p, 16),
                                                       space, f, 16)


@pytest.mark.parametrize("n_atoms, count",
                         [(1, 0), (1, 3), (2, 2), (3, 1), (4, 4), (6, 5), (40, 3)])
def test_multiset_helpers_follow_the_enumeration_order(n_atoms, count):
    atoms = tuple(range(10, 10 + n_atoms))
    rng = random.Random(n_atoms * 100 + count)
    values = [rng.uniform(-1.0, 1.0) for _ in range(n_atoms)]
    multisets = list(combinations_with_replacement(range(n_atoms), count))
    sums = oracle._multiset_sums(values, count)
    assert len(sums) == len(multisets) == math.comb(n_atoms + count - 1, count)
    for rank, multiset in enumerate(multisets):
        assert oracle._multiset_at(atoms, count, rank) == tuple(atoms[i] for i in multiset)
        from_the_right = 0.0
        for i in reversed(multiset):
            from_the_right = values[i] + from_the_right
        assert sums[rank] == from_the_right


def test_enumeration_cap_is_reachable():
    # 4 cells of 6 equal atoms, 3 nodes each: 56^4 configurations
    space = make_finite_space([(f"a{i}", 1 / 24) for i in range(24)])
    p = make_partition(space, [FiniteCell(tuple(range(6 * j, 6 * j + 6))) for j in range(4)])
    rng = random.Random(11)
    f = FunctionModel(FiniteTable(tuple(rng.uniform(-1.0, 1.0) for _ in range(24)),
                                  space.labels))
    verdict = verify_bounds_exhaustive(space, p, f, 12)
    assert verdict.total_configurations == 56 ** 4 == 9_834_496
    assert verdict.total_configurations < DEFAULT_ENUMERATION_CAP
    assert verdict.passed
    assert abs(verdict.worst_error - worst_uniform_error(f, p)) <= VERIFY_SLACK


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_scoring_rejects_non_finite_values(bad):
    # the table refuses the value, so no model the scorer could be given
    # holds one
    space, _, _ = finite_example()
    with pytest.raises(ValueError, match=r"values\[1\] is .*, not a finite number"):
        FiniteTable((0.0, bad, 2.0, 4.0), space.labels)


# --- the closed-form adversary ----------------------------------------------

def test_worst_uniform_error_matches_enumeration():
    for seed in range(60):
        inst = random_instance(seed)
        worst, _ = worst_case_error(inst.space, inst.partition, inst.function, 16)
        assert abs(worst - worst_uniform_error(inst.function, inst.partition)) <= 1e-15


def test_worst_uniform_error_example():
    # cells {1, 2} and {3, 4} with f = (0, 1, 2, 4), I = 7/4: all nodes on
    # the maxima give 5/2 (deviation 3/4), on the minima 1 (deviation 3/4)
    space, p, f = finite_example()
    assert worst_uniform_error(f, p) == 0.75


def test_worst_uniform_error_on_the_cube():
    # sin(2 pi x) on two cells: one node at 1/4 (value 1), one at 1/2
    # (value 0) averages 1/2 against the integral 0, although every cell
    # edge has a value within 3e-16 of 0
    f = named_function("sin2pix")
    halves = equal_partition_1d(2)
    assert worst_uniform_error(f, halves) == 0.5


@pytest.mark.parametrize("name", ["x", "x2", "sin2pix", "const"])
def test_convergence_reports_the_closed_form_adversary(name):
    f = named_function(name)
    rows = convergence_table(f, 8, "cell-midpoint")
    for row in rows:
        assert row["adversarial_error"] == worst_uniform_error(
            f, equal_partition_1d(row["k"]))
    if name == "sin2pix":
        assert rows[0]["adversarial_error"] == 0.5


def test_convergence_reads_each_range_once_and_allocates_once(monkeypatch):
    ranges = []
    allocations = []
    real_range = FunctionModel.essential_range
    real_allocation = allocation

    def counting_range(self, cell):
        ranges.append(cell)
        return real_range(self, cell)

    def counting_allocation(partition, n_points):
        allocations.append(partition.k)
        return real_allocation(partition, n_points)

    monkeypatch.setattr(FunctionModel, "essential_range", counting_range)
    # every module that imports allocation holds its own binding of it
    for name, module in list(sys.modules.items()):
        if name.startswith("qmcbounds") and getattr(module, "allocation", None) is real_allocation:
            monkeypatch.setattr(module, "allocation", counting_allocation)
    convergence_table(named_function("x2"), 6, "cell-midpoint")
    assert allocations == [2 ** m for m in range(1, 7)]
    assert len(ranges) == 2 ** 7 - 2


@pytest.mark.parametrize("k, points", [(1, 10_001), (2, 1001), (3, 101), (4, 31)])
def test_worst_uniform_error_against_a_grid_adversary(k, points):
    # the worst one-node-per-cell placement on a grid of each closed cell
    # never beats W, and misses it by at most what the grid cannot reach:
    # every point is within spacing / 2 of a grid point
    partition = equal_partition_1d(k)
    intervals = [(cell.lower[0], cell.upper[0]) for cell in partition.cells]
    families = [named_function(name) for name in ("x", "x2", "sin2pix", "const")]
    families.append(FunctionModel(Sinusoid(amplitude=1.3, frequency=1.5, phase=0.7,
                                           offset=-0.2)))
    for f in families:
        w = worst_uniform_error(f, partition)
        worst, spacings = grid_worst_placement(lambda t: f.evaluate((t,)), intervals, points)
        assert worst <= w + 1e-12
        lipschitz = f.base.lipschitz_bound()
        reach = math.fsum(m * lipschitz * h / 2.0
                          for m, h in zip(partition.measures, spacings))
        assert w - worst <= reach + 1e-12


def test_verify_reads_each_cell_range_once(monkeypatch):
    calls = []
    real = FunctionModel.essential_range

    def counting(self, cell):
        calls.append(cell)
        return real(self, cell)

    monkeypatch.setattr(FunctionModel, "essential_range", counting)
    space, p, f = finite_example()
    verify_bounds_exhaustive(space, p, f, 2)
    assert calls == list(p.cells)


def _equal_weight_case(values, cells, n_points):
    space = make_finite_space([(f"a{i}", 1 / len(values)) for i in range(len(values))])
    partition = make_partition(space, [FiniteCell(cell) for cell in cells])
    f = FunctionModel(FiniteTable(values, space.labels))
    return space, partition, f, n_points, oracle.SCORE_CHUNK


@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
# a worst error of 5.7e191, rounding noise inside the slack, against a
# budget of 6.7e-118 once reported tightness inf on a passing verdict
@example(case=_equal_weight_case((1e208, 0.0, 1e-117), [(0,), (1, 2)], 3))
def test_verify_passes_at_every_magnitude(case):
    # the scorer, the closed form and the bounds round apart by ulps of
    # the atom values, which an absolute slack alone fails above ~1e8
    space, partition, f, n_points, _ = case
    verdict = verify_bounds_exhaustive(space, partition, f, n_points)
    assert verdict.passed
    assert math.isfinite(verdict.tightness)


def test_verify_passes_with_values_near_1e9():
    inst = random_instance(0)
    rng = random.Random(0)
    values = tuple(1e9 * rng.uniform(-1.0, 1.0) for _ in range(inst.space.n_atoms))
    f = FunctionModel(FiniteTable(values, inst.space.labels))
    verdict = verify_bounds_exhaustive(inst.space, inst.partition, f, inst.n_points)
    assert verdict.worst_error != worst_uniform_error(f, inst.partition)
    assert verdict.passed


def test_verify_allows_the_allocation_tolerance():
    # N * m_a = 1.0000000004 is accepted as one node; the enumeration
    # weighs the cells 1/4 and 3/4, the bounds and the closed form by
    # their measures, and at values of 1e9 the two sides differ by 0.2
    space = make_finite_space([("a", 0.2500000001), ("b", 0.7499999999)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    f = FunctionModel(FiniteTable((1e9, -1e9), space.labels))
    assert allocation(p, 4) == (1, 3)
    verdict = verify_bounds_exhaustive(space, p, f, 4)
    assert verdict.bounds.corollary2 == worst_uniform_error(f, p) == 0.0
    assert 0.1 < verdict.worst_error < 0.3
    assert verdict.passed
    assert verdict.tightness == 1.0


def test_verify_fails_when_the_closed_form_disagrees(monkeypatch):
    space, p, f = finite_example()
    monkeypatch.setattr(oracle, "_worst_uniform_error",
                        lambda f, p, ranges: 0.75 + 2 * VERIFY_SLACK)
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert verdict.worst_error == 0.75
    assert not verdict.passed

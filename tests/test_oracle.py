"""Exhaustive verification, discrete minimax, instance generation."""

import math
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    FiniteCell,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    Instance,
    OutOfDomainError,
    QmcBoundsError,
    Quadratic,
    Sinusoid,
    allocation,
    bound_set,
    enumerate_uniform,
    equal_partition_1d,
    make_cube_space,
    make_finite_space,
    make_partition,
    minimax_distance_finite,
    random_instance,
    small_exhaustive_suite,
    verify_bounds_exhaustive,
    verify_instances,
    worst_case_error,
    worst_uniform_error,
)
from qmcbounds import oracle
from qmcbounds.experiments import (
    NAIVE_RESOLUTION,
    convergence_table,
    named_function,
    naive_pointwise_s,
)
from qmcbounds.bounds import CellTable, cell_table
from qmcbounds.funcmodel import axis_samples
from qmcbounds.oracle import MAX_ATOMS, MAX_CELLS, VERIFY_SLACK
from qmcbounds.pointsets import DEFAULT_ENUMERATION_CAP
from oracles import (
    brute_minimax_single_cell,
    exact_finite_verdict,
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
    worst, config = worst_case_error(p, f, 2)
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
    worst, config = worst_case_error(p, f, 2)
    assert worst == 0.0
    assert config == ((0,), (2,))  # first configuration wins ties


def test_worst_case_error_singletons():
    # singleton cells leave a single configuration with zero error
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    f = FunctionModel(FiniteTable((3.0, -1.0), space.labels))
    worst, _ = worst_case_error(p, f, 2)
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


_THREE_ATOMS = make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)])


@pytest.mark.parametrize("space, family, f, message, integrate", [
    (make_finite_space([("a", 0.5), ("b", 0.5)]), [FiniteCell((0,))],
     FunctionModel(Quadratic(0.0, (0.0,), (1.0,))),
     "a 1-dimensional cube model read on a 2-atom space",
     lambda f, space: f.integral(space)),
    (_THREE_ATOMS, [FiniteCell((0,))], FunctionModel(FiniteTable((1.0, 2.0, 3.0, 4.0))),
     "a 4-value table read on a 3-atom space", lambda f, space: f.integral(space)),
    (_THREE_ATOMS, [FiniteCell((0,)), FiniteCell((5,))],
     FunctionModel(FiniteTable((1.0, 2.0, 3.0))),
     "cell atoms (5,) reach outside the 3-atom space",
     lambda f, space: f.cell_integral(FiniteCell((5,)), space)),
], ids=["cube-model", "table-longer-than-space", "cell-outside-space"])
def test_minimax_refuses_a_model_or_cell_off_its_space(space, family, f, message,
                                                         integrate):
    # the LP certified 0.0 for x^2 read at the atoms 0 and 1, 0.5 for the
    # 4-value table, and read the atom 5 as an empty indicator
    for refused in (lambda: minimax_distance_finite(space, family, f),
                    lambda: integrate(f, space)):
        with pytest.raises(OutOfDomainError, match=re.escape(message)):
            refused()


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
        verdict = verify_instances([random_instance(seed)])[0]
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
        verify_instances([stripped])


# --- the scorer: the reference loop and the search --------------------------

# Property cases stay this small so the reference loop keeps up.
MAX_CASE_CONFIGURATIONS = 3000

TIED_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, -1e-300, 1e-300)

# Sums of these tie in exact arithmetic but round apart in the last ulp,
# depending on the order of the additions.
ROUNDING_VALUES = (0.0, 1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-53, 0.1, 0.2, 0.3, -0.1,
                   -1e-300, 1e-300)

VALUE_KINDS = ("uniform", "tied", "rounding", "constant", "mixed")

# Pools whose sums tie often: signed zeros, multiples of the smallest
# subnormal, values one ulp apart, magnitudes that absorb each other,
# and small integers.
TIE_POOLS = (
    (-0.0, 0.0),
    tuple(i * 5e-324 for i in range(-3, 4)),
    tuple(0.5 + i * 2.0**-53 for i in range(-3, 4)),
    (1e300, -1e300, 0.0, 1.0),
    tuple(float(i) for i in range(-3, 4)),
)


def _configuration_count(atoms_per_cell, counts):
    return math.prod(math.comb(a + c - 1, c) for a, c in zip(atoms_per_cell, counts))


@st.composite
def scoring_cases(draw, kinds=VALUE_KINDS, min_cells=1, max_points=16):
    """(space, partition, f, N): 1-3 cells, N <= 16, with values uniform
    in [-1, 1], heavily tied, tied up to rounding, constant, or of
    magnitudes mixed from 1e-300 to 1e300."""
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
    elif kind == "pooled":
        pool = draw(st.sampled_from(TIE_POOLS))
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
    return space, partition, f, n_points


# Cutoffs below which the scorer runs the reference loop: 0 sends every
# stream to the walk, and 6 splits the small cases between the two paths.
SCAN_LIMITS = st.sampled_from((0, 6, oracle.SCAN_LIMIT))


def scoring_paths(limit):
    """The cutoff 0, under which the search scores every stream, and
    ``limit`` if it is another."""
    return sorted({0, limit})


def assert_scores_like_the_reference_loop(case, limit):
    space, partition, f, n_points = case
    stream = enumerate_uniform(partition, n_points)
    want_worst, want_argmax = scan_worst_configuration(stream, space, f, n_points)
    for scan_limit in scoring_paths(limit):
        with mock.patch.object(oracle, "SCAN_LIMIT", scan_limit):
            worst, argmax = worst_case_error(partition, f, n_points)
        assert worst.hex() == want_worst.hex()
        assert argmax == want_argmax


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases(), limit=SCAN_LIMITS)
def test_scorer_matches_the_reference_loop_bit_for_bit(case, limit):
    assert_scores_like_the_reference_loop(case, limit)


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases(kinds=("rounding",), min_cells=2, max_points=9), limit=SCAN_LIMITS)
def test_scorer_keeps_near_ties_that_rounding_separates(case, limit):
    assert_scores_like_the_reference_loop(case, limit)


def verdict_bits(verdict):
    """Every field of a verdict, floats as their hex strings."""
    b = verdict.bounds
    floats = (verdict.worst_error, verdict.tightness, verdict.closed_form, verdict.slack,
              b.theorem1, b.corollary1, b.corollary2, b.distance)
    return (verdict.instance, verdict.argmax_configuration, verdict.passed,
            verdict.total_configurations, b.exact, *(x.hex() for x in floats))


def assert_batch_verifies_like_each_instance(instances, limit=oracle.SCAN_LIMIT):
    with mock.patch.object(oracle, "SCAN_LIMIT", limit):
        batched = verify_instances(instances)
        alone = [verify_instances([instance])[0] for instance in instances]
    assert [verdict_bits(v) for v in batched] == [verdict_bits(v) for v in alone]
    for instance, verdict in zip(instances, batched):
        assert verdict.instance is instance
        stream = enumerate_uniform(instance.partition, instance.n_points)
        worst, argmax = scan_worst_configuration(stream, instance.space, instance.function,
                                                 instance.n_points)
        assert (verdict.worst_error.hex(), verdict.argmax_configuration) == (worst.hex(), argmax)


@st.composite
def instance_lists(draw):
    """(instances, limit): 1-4 scoring cases, each maybe followed by
    instances on its own partition and N with other values (tied,
    constant or uniform), so that shapes are both shared and distinct;
    with cutoffs that send every stream to the search or split one
    list's streams between the two paths."""
    instances = []
    for n, (space, partition, f, n_points) in enumerate(
            draw(st.lists(scoring_cases(), min_size=1, max_size=4))):
        instances.append(Instance(f"case-{n}", space, partition, f, n_points))
        for m in range(draw(st.integers(0, 2))):
            pool = draw(st.sampled_from([st.sampled_from(TIED_VALUES), st.just(0.25),
                                         st.floats(-1.0, 1.0)]))
            values = draw(st.lists(pool, min_size=space.n_atoms, max_size=space.n_atoms))
            g = FunctionModel(FiniteTable(tuple(values), space.labels))
            instances.append(Instance(f"case-{n}-{m}", space, partition, g, n_points))
    order = draw(st.permutations(range(len(instances))))
    return [instances[i] for i in order], draw(SCAN_LIMITS)


@settings(max_examples=75, deadline=None)
@given(case=instance_lists())
def test_batched_verdicts_equal_the_one_instance_verdicts(case):
    assert_batch_verifies_like_each_instance(*case)


def test_a_batch_with_a_stream_above_the_chunk():
    # cells of 6 atoms with 8 nodes and of 6 atoms with 3 nodes: 1287 * 56
    # = 72,072 configurations, verified in one call beside small instances
    # of the same and of other shapes
    space = make_finite_space([(f"a{i}", 8 / 11 / 6 if i < 6 else 3 / 11 / 6)
                               for i in range(12)])
    p = make_partition(space, [FiniteCell(range(6)), FiniteCell(range(6, 12))])
    rng = random.Random(4)
    big = Instance("big", space, p, FunctionModel(FiniteTable(
        tuple(rng.uniform(-1.0, 1.0) for _ in range(12)), space.labels)), 11)
    assert len(enumerate_uniform(p, 11)) == 72_072 > 1 << 16
    # 2 nodes on 3 atoms and 1 node on 6 atoms: 6 multisets each, of
    # different N; the singles' worst node, 10 against the integral 5,
    # would score 0 if divided by the pairs' N
    pairs = make_finite_space([(f"b{i}", 1 / 3) for i in range(3)])
    singles = make_finite_space([(f"c{i}", 1 / 6) for i in range(6)])
    same_shape = [
        Instance(name, space, make_partition(space, [FiniteCell(range(space.n_atoms))]),
                 FunctionModel(FiniteTable(values, space.labels)), n_points)
        for name, space, values, n_points in (("pairs", pairs, (0.5, -0.25, 1.0), 2),
                                              ("singles", singles, (10.0,) + (4.0,) * 5, 1))]
    suite = small_exhaustive_suite()
    instances = [*same_shape, suite[0], big, suite[1], suite[500], suite[0]]
    # the search scores the small instances too at the cutoff 0
    for limit in scoring_paths(oracle.SCAN_LIMIT):
        assert_batch_verifies_like_each_instance(instances, limit)


def _cells_instance(name, sizes, counts, values):
    """An instance of cells of ``sizes`` atoms holding ``counts`` nodes,
    each cell's mass its share of the nodes, spread evenly on its atoms."""
    n_points = sum(counts)
    weights = [count / n_points / size for size, count in zip(sizes, counts)
               for _ in range(size)]
    space = make_finite_space([(f"a{i}", w) for i, w in enumerate(weights)])
    firsts = [sum(sizes[:j]) for j in range(len(sizes))]
    partition = make_partition(space, [FiniteCell(range(first, first + size))
                                       for first, size in zip(firsts, sizes)])
    return Instance(name, space, partition,
                    FunctionModel(FiniteTable(tuple(values), space.labels)), n_points)


def test_streams_at_the_scan_limit_score_alike_on_both_paths():
    # streams of exactly SCAN_LIMIT configurations are scanned and those
    # of one more are searched; at the cutoff 0 the search scores them all
    limit = oracle.SCAN_LIMIT
    rng = random.Random(29)

    def tied(n):
        return [rng.choice(TIED_VALUES) for _ in range(n)]

    def uniform(n):
        return [rng.uniform(-1.0, 1.0) for _ in range(n)]

    assert limit % 2 == 0
    # a cell of 2 atoms with c nodes holds c + 1 multisets
    at = [_cells_instance("at-distinct", [limit], [1], uniform(limit)),
          _cells_instance("at-tied", [2, limit // 2], [1, 1], tied(2 + limit // 2)),
          _cells_instance("at-pair", [2], [limit - 1], tied(2)),
          _cells_instance("at-constant", [2], [limit - 1], [0.25, 0.25])]
    over = [_cells_instance("over-distinct", [limit + 1], [1], uniform(limit + 1)),
            _cells_instance("over-tied", [limit + 1], [1], tied(limit + 1)),
            _cells_instance("over-pair", [2], [limit], [1.0, -0.5]),
            _cells_instance("over-constant", [limit + 1], [1], [-0.75] * (limit + 1))]
    instances = [over[0], at[0], at[1], over[1], over[2], at[2], at[3], over[3]]
    sizes = [len(enumerate_uniform(i.partition, i.n_points)) for i in instances]
    assert sizes == [limit + 1, limit, limit, limit + 1, limit + 1, limit, limit, limit + 1]
    real = oracle._search
    verdicts = []
    for scan_limit in (limit, 0):
        scored = []

        def recording(stream, *args):
            scored.append(len(stream))
            return real(stream, *args)

        with mock.patch.object(oracle, "_search", recording), \
                mock.patch.object(oracle, "SCAN_LIMIT", scan_limit):
            verdicts.append([verdict_bits(v) for v in verify_instances(instances)])
        assert scored == [size for size in sizes if size > scan_limit]
        assert_batch_verifies_like_each_instance(instances, scan_limit)
    assert verdicts[0] == verdicts[1]


def test_a_stream_longer_than_an_index_verifies():
    # 8 cells of 8 atoms with 8 nodes each: 6435^8, about 2.9e30
    # configurations, a count no index-sized integer holds
    instance = _cells_instance("long", [8] * 8, [8] * 8,
                               [random.Random(31).uniform(-1.0, 1.0) for _ in range(64)])
    verdict = verify_instances([instance], cap=10**31)[0]
    assert verdict.total_configurations == math.comb(15, 8) ** 8 > sys.maxsize
    assert verdict.passed
    assert abs(verdict.worst_error - verdict.closed_form) <= verdict.slack


def test_verify_instances_refuses_a_missing_n_before_scoring():
    good = random_instance(0)
    stripped = type(good)("no-n", good.space, good.partition, good.function, None)
    with pytest.raises(QmcBoundsError, match="instance 'no-n' declares no N"):
        verify_instances([good, stripped])


def test_verify_instances_refuses_a_cube_instance_by_name():
    cube = Instance("cube-n", make_cube_space(1), equal_partition_1d(2),
                    FunctionModel(Quadratic(0.0, (0.0,), (1.0,))), 2)
    with pytest.raises(QmcBoundsError,
                       match="instance 'cube-n': verification is finite-space only"):
        verify_instances([random_instance(0), cube])


def test_scorer_rescores_what_rounding_ranks_lower():
    # Cells {a}, {b}, {c, d} with one node each.  Adding the cell sums
    # rounds (a, b, c) = 2^-52 + 3*2^-53 + 1 one ulp above its exact
    # sum, and so above (a, b, d), whose exact score is the larger one:
    # a float partial sum would rank (a, b, d) lower; exact totals keep it.
    space = make_finite_space([("a", 1 / 3), ("b", 1 / 3), ("c", 1 / 6), ("d", 1 / 6)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,)), FiniteCell((2, 3))])
    f = FunctionModel(FiniteTable((2.0**-52, 3 * 2.0**-53, 1.0, 3 * 2.0**-53), space.labels))
    stream = enumerate_uniform(p, 3)
    assert scan_worst_configuration(stream, space, f, 3) == (0.1666666666666666,
                                                             ((0,), (1,), (3,)))
    # the 2 configurations are scanned, and searched at the cutoff 0
    for limit in scoring_paths(oracle.SCAN_LIMIT):
        with mock.patch.object(oracle, "SCAN_LIMIT", limit):
            assert worst_case_error(p, f, 3) == (0.1666666666666666, ((0,), (1,), (3,)))


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
        worst, _ = worst_case_error(p, f, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(enumerate_uniform(p, 16)) == 1_500_625
    assert calls <= multisets + 100
    assert peak < 8 * 2**20
    assert abs(worst - worst_uniform_error(f, p)) <= 1e-15


def test_scoring_does_no_python_work_per_multiset(monkeypatch):
    # one cell of 6 atoms, N = 16: 20,349 multisets, scored with a
    # handful of fsum calls (the integral; the walk sums exact ints)
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
    worst, argmax = worst_case_error(p, f, 16)
    monkeypatch.undo()
    assert len(enumerate_uniform(p, 16)) == 20_349
    assert calls <= 20
    assert (worst, argmax) == scan_worst_configuration(enumerate_uniform(p, 16),
                                                       space, f, 16)


def test_a_constant_function_scores_one_configuration(monkeypatch):
    # 4 cells of 4 tied atoms, N = 16: 1,500,625 configurations, one
    # multiset of values per cell, so every configuration ties and the
    # walk stops at the first
    space = make_finite_space([(f"a{i}", 1 / 16) for i in range(16)])
    p = make_partition(space, [FiniteCell(tuple(range(4 * j, 4 * j + 4))) for j in range(4)])
    f = FunctionModel(FiniteTable((0.5,) * 16, space.labels))
    verdict = verify_bounds_exhaustive(space, p, f, 16)
    assert verdict.total_configurations == 1_500_625
    first = ((0,) * 4, (4,) * 4, (8,) * 4, (12,) * 4)
    assert (verdict.worst_error, verdict.argmax_configuration) == (0.0, first)
    # worst_case_error sums the integral with fsum, and the walk sums
    # exact ints
    real_fsum = math.fsum
    sums = []
    monkeypatch.setattr(math, "fsum", lambda values: sums.append(1) or real_fsum(values))
    assert worst_case_error(p, f, 16) == (0.0, first)
    monkeypatch.undo()
    assert len(sums) == 1


@pytest.mark.parametrize("n_atoms, count",
                         [(1, 0), (1, 3), (2, 2), (3, 1), (4, 4), (6, 5), (40, 3)])
def test_multiset_helpers_follow_the_enumeration_order(n_atoms, count):
    # a cell of 10 atoms holding one node, then the cell under test, of
    # n_atoms atoms holding count nodes (none: a measure of 1e-12);
    # three rows of values, each scored by the search to the bits of
    # the reference loop
    n_points = count + 1
    share = count / n_points if count else 1e-12
    space = make_finite_space([(f"a{i}", (1 - share) / 10) for i in range(10)]
                              + [(f"b{i}", share / n_atoms) for i in range(n_atoms)])
    atoms = tuple(range(10, 10 + n_atoms))
    p = make_partition(space, [FiniteCell(range(10)), FiniteCell(atoms)])
    assert allocation(p, n_points) == (1, count)
    rng = random.Random(n_atoms * 100 + count)
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(space.n_atoms)] for _ in range(3)]
    multisets = list(combinations_with_replacement(range(n_atoms), count))
    stream = enumerate_uniform(p, n_points)
    assert len(stream) == 10 * len(multisets)
    assert len(multisets) == math.comb(n_atoms + count - 1, count)
    # under the other cell's first atom, the cell runs through its multisets
    assert [config[1] for config in islice(stream, len(multisets))] == [
        tuple(atoms[i] for i in multiset) for multiset in multisets]
    for values in rows:
        f = FunctionModel(FiniteTable(tuple(values), space.labels))
        want_worst, want_argmax = scan_worst_configuration(stream, space, f, n_points)
        with mock.patch.object(oracle, "SCAN_LIMIT", 0):
            worst, argmax = worst_case_error(p, f, n_points)
        assert (worst.hex(), argmax) == (want_worst.hex(), want_argmax)


@pytest.mark.parametrize("step", [1, -1])
def test_near_constant_values_score_like_the_reference_loop(step):
    # 3 cells of 4 atoms at 0.5 + i * 2^-53, rising or falling, N = 12:
    # 35^3 = 42,875 configurations whose totals all lie within a few
    # ulps of both extremes, so many round to the worst score and the
    # first configuration to tie it is the argmax
    space = make_finite_space([(f"a{i}", 1 / 12) for i in range(12)])
    p = make_partition(space, [FiniteCell(tuple(range(4 * j, 4 * j + 4))) for j in range(3)])
    f = FunctionModel(FiniteTable(tuple(0.5 + i * 2.0**-53 for i in range(12)[::step]),
                                  space.labels))
    stream = enumerate_uniform(p, 12)
    assert len(stream) == 42_875
    want_worst, want_argmax = scan_worst_configuration(stream, space, f, 12)
    with mock.patch.object(oracle, "SCAN_LIMIT", 0):
        worst, argmax = worst_case_error(p, f, 12)
    assert (worst.hex(), argmax) == (want_worst.hex(), want_argmax)


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases(kinds=("pooled",)))
def test_walk_matches_the_reference_loop_on_tie_pools(case):
    # at the cutoff 0 the walk scores every stream
    assert_scores_like_the_reference_loop(case, 0)


def test_a_stream_of_1e542_configurations_verifies_within_a_second():
    # 64 cells of 16 atoms at 0.5 + i * 2^-53, falling, N = 1024: every
    # total lies within a few ulps of both extremes
    instance = _cells_instance("near-constant", [16] * 64, [16] * 64,
                               [0.5 + i * 2.0**-53 for i in range(1024)][::-1])
    start = time.perf_counter()
    verdict = verify_bounds_exhaustive(instance.space, instance.partition,
                                       instance.function, 1024, cap=10**600)
    elapsed = time.perf_counter() - start
    assert verdict.total_configurations == math.comb(31, 16) ** 64 > 10**542
    assert verdict.passed
    assert elapsed < 1.0


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
        worst, _ = worst_case_error(inst.partition, inst.function, 16)
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


def test_worst_uniform_error_refuses_sampled_ranges():
    # one grid interval per axis samples x^2 on [0, 1/2) and [1/2, 1] at
    # the cell ends only; the sampled ranges gave 0.29166666666666663,
    # a number that is not the supremum over every uniform set
    f = FunctionModel(Quadratic(0.0, (0.0,), (1.0,)), (), GridRangeMode(1, 0))
    halves = equal_partition_1d(2)
    with pytest.raises(QmcBoundsError, match="cell 0 has a sampled range"):
        worst_uniform_error(f, halves)
    # every caller of the shared pass gets the check, whichever cell it is
    exact = named_function("x2")
    ranges = [exact.essential_range(c) for c in halves.cells]
    ranges[1] = f.essential_range(halves.cells[1])
    table = CellTable(halves.measures, [r.lo for r in ranges], [r.hi for r in ranges],
                      [r.exact for r in ranges])
    with pytest.raises(QmcBoundsError, match="cell 1 has a sampled range"):
        oracle._worst_uniform_error(table, exact.cell_integrals(halves))


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
    evaluations = []
    allocations = []
    real_range = FunctionModel.essential_range
    real_evaluate = FunctionModel.evaluate
    real_allocation = allocation

    def counting_range(self, cell):
        ranges.append(cell)
        return real_range(self, cell)

    def counting_evaluate(self, point, *, normal=False):
        evaluations.append(point)
        return real_evaluate(self, point, normal=normal)

    def counting_allocation(partition, n_points):
        allocations.append(partition.k)
        return real_allocation(partition, n_points)

    monkeypatch.setattr(FunctionModel, "essential_range", counting_range)
    monkeypatch.setattr(FunctionModel, "evaluate", counting_evaluate)
    # every module that imports allocation holds its own binding of it
    for name, module in list(sys.modules.items()):
        if name.startswith("qmcbounds") and getattr(module, "allocation", None) is real_allocation:
            monkeypatch.setattr(module, "allocation", counting_allocation)
    convergence_table(named_function("x2"), 6, "cell-midpoint")
    assert allocations == [2 ** m for m in range(1, 7)]
    # one range per cell and one evaluation per node, k = 2 + 4 + ... + 64
    assert len(ranges) == 2 ** 7 - 2
    assert len(evaluations) == 2 ** 7 - 2


def test_naive_baseline_evaluates_each_sample_once(monkeypatch):
    evaluations = []
    real_evaluate = FunctionModel.evaluate

    def counting_evaluate(self, point, *, normal=False):
        evaluations.append(point)
        return real_evaluate(self, point, normal=normal)

    monkeypatch.setattr(FunctionModel, "evaluate", counting_evaluate)
    f = FunctionModel(Quadratic(0.0, (0.0,), (1.0,)), (((0.3,), 5.0),))
    # cell 0 holds x^2 = 0 at 0 and the spike value 5 at 0.3; cell 1 swings by 3/4
    assert naive_pointwise_s(f, equal_partition_1d(2)) == 5.0
    # NAIVE_RESOLUTION + 1 grid points per cell, then the spike, each a point (t,)
    assert len(evaluations) == 2 * (NAIVE_RESOLUTION + 1) + 1
    assert evaluations[NAIVE_RESOLUTION + 1] == (0.3,)
    assert all(type(p) is tuple and len(p) == 1 for p in evaluations)


def test_naive_baseline_counts_each_spike_in_the_cell_that_holds_it(monkeypatch):
    evaluations = []
    real_evaluate = FunctionModel.evaluate

    def counting_evaluate(self, point, *, normal=False):
        evaluations.append(point)
        return real_evaluate(self, point, normal=normal)

    monkeypatch.setattr(FunctionModel, "evaluate", counting_evaluate)
    # an interior spike of cell 1, one on the edge that cells 1 and 2 share,
    # which is cell 2's, and one on the closed face at 1.0, which is cell 3's
    spikes = (((0.3,), -1.0), ((0.5,), 7.0), ((1.0,), -3.0))
    f = FunctionModel(Affine(0.0, (1.0,)), spikes)
    partition = equal_partition_1d(4)
    worst = naive_pointwise_s(f, partition)
    held = [[], [0.3], [0.5], [1.0]]
    expected = []
    for j, extra in enumerate(held):
        expected += axis_samples(j / 4, (j + 1) / 4, NAIVE_RESOLUTION) + extra
    assert evaluations == [(t,) for t in expected]
    # cell 1 reads -1.0 at its spike and 7.0 at 0.5, the top of its grid
    assert worst == 8.0


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


def test_verify_integrates_each_cell_once_and_the_space_not_again(monkeypatch):
    # the cell integrals and the whole-space integral are summed from the
    # atom values already read, one evaluate call per atom, so a verdict
    # integrates nothing through the model again
    integrated, evaluated = [], []
    real_evaluate = FunctionModel.evaluate

    def recording(name):
        real = getattr(FunctionModel, name)

        def integrating(self, *args):
            integrated.append(name)
            return real(self, *args)
        return integrating

    def evaluating(self, point, **kwargs):
        evaluated.append(point)
        return real_evaluate(self, point, **kwargs)

    for name in ("integral", "cell_integral", "cell_integrals"):
        monkeypatch.setattr(FunctionModel, name, recording(name))
    monkeypatch.setattr(FunctionModel, "evaluate", evaluating)
    space, p, f = finite_example()
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert (integrated, evaluated) == ([], list(range(space.n_atoms)))
    evaluated.clear()
    suite = small_exhaustive_suite()[::20]
    verdicts = verify_instances(suite)
    assert integrated == []
    assert len(evaluated) == sum(instance.space.n_atoms for instance in suite)
    monkeypatch.undo()
    # each cell's integral has the bits cell_integrals gives it
    for v in [verdict, *verdicts]:
        g, partition = v.instance.function, v.instance.partition
        assert v.closed_form == oracle._worst_uniform_error(cell_table(g, partition),
                                                            g.cell_integrals(partition))


def test_worst_case_error_reads_each_atom_once_as_verify_does(monkeypatch):
    # the integral is the fsum of the weight * value products of the
    # values just read; integrating through the model read every atom again
    evaluated = []
    real_evaluate = FiniteTable.evaluate

    def evaluating(self, point):
        evaluated.append(point)
        return real_evaluate(self, point)

    monkeypatch.setattr(FiniteTable, "evaluate", evaluating)
    instance = random_instance(3)
    worst = worst_case_error(instance.partition, instance.function, instance.n_points)
    assert evaluated == [0, 1, 2]
    evaluated.clear()
    verdict = verify_instances([instance])[0]
    assert evaluated == [0, 1, 2]
    assert worst == (verdict.worst_error, verdict.argmax_configuration)


def _equal_weight_case(values, cells, n_points):
    space = make_finite_space([(f"a{i}", 1 / len(values)) for i in range(len(values))])
    partition = make_partition(space, [FiniteCell(cell) for cell in cells])
    f = FunctionModel(FiniteTable(values, space.labels))
    return space, partition, f, n_points


@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
# a worst error of 5.7e191, rounding noise inside the slack, against a
# budget of 6.7e-118 once reported tightness inf on a passing verdict
@example(case=_equal_weight_case((1e208, 0.0, 1e-117), [(0,), (1, 2)], 3))
def test_verify_passes_at_every_magnitude(case):
    # the scorer, the closed form and the bounds round apart by ulps of
    # the atom values, which an absolute slack alone fails above ~1e8
    space, partition, f, n_points = case
    verdict = verify_bounds_exhaustive(space, partition, f, n_points)
    assert verdict.passed
    assert math.isfinite(verdict.tightness)


@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), limit=SCAN_LIMITS)
def test_verdict_floats_lie_within_the_slack_of_their_exact_values(case, limit):
    # each certified float is within the verdict's slack of its value in
    # exact arithmetic over the same float weights and values
    space, partition, f, n_points = case
    exact = exact_finite_verdict(space.weights, [cell.atoms for cell in partition.cells],
                                 allocation(partition, n_points), f.base.values)
    for scan_limit in scoring_paths(limit):
        with mock.patch.object(oracle, "SCAN_LIMIT", scan_limit):
            verdict = verify_bounds_exhaustive(space, partition, f, n_points)
        b = verdict.bounds
        for got, want in ((verdict.worst_error, exact.worst_error),
                          (verdict.closed_form, exact.closed_form),
                          (b.corollary1, exact.corollary1),
                          (b.theorem1, exact.corollary1),
                          (b.corollary2, exact.corollary2),
                          (b.distance, exact.corollary1 / 2)):
            assert abs(Fraction(got) - want) <= Fraction(verdict.slack)


@pytest.mark.parametrize("n_points", [1, 3, 16])
def test_verify_accepts_sums_up_to_the_largest_double(n_points):
    # stepping down from M = DBL_MAX / N, the values (M, M / 2) are
    # refused until their sums of N values surely stay finite, a few
    # dozen ulps below; the first accepted M scores without overflow
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = make_partition(space, [FiniteCell((0, 1))])
    magnitude = sys.float_info.max / n_points
    for _ in range(100):
        f = FunctionModel(FiniteTable((magnitude, magnitude / 2), space.labels))
        try:
            verdict = verify_bounds_exhaustive(space, p, f, n_points, instance_id="big")
            break
        except QmcBoundsError as exc:
            assert "instance 'big': N * max|value|" in str(exc)
            magnitude = math.nextafter(magnitude, 0.0)
    else:
        pytest.fail("no magnitude below DBL_MAX / N was accepted")
    assert magnitude > sys.float_info.max / n_points * (1 - 1e-13)
    assert verdict.passed
    assert abs(verdict.worst_error - magnitude / 4) <= verdict.slack
    # the walk's exact totals, divided by D, stay finite too, at the cutoff 0
    for limit in scoring_paths(oracle.SCAN_LIMIT):
        with mock.patch.object(oracle, "SCAN_LIMIT", limit):
            assert worst_case_error(p, f, n_points)[0] == verdict.worst_error


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
                        lambda table, integrals: 0.75 + 2 * VERIFY_SLACK)
    verdict = verify_bounds_exhaustive(space, p, f, 2)
    assert verdict.worst_error == 0.75
    assert not verdict.passed

"""Points the library built or already checked are evaluated as they are.

``FunctionModel.evaluate``, ``qmc_estimate`` and ``is_uniform`` take
``normal=True`` for points already in normal form, the form a space's
``as_point`` returns unchanged.  These tests pin the facts that make
that sound: every node ``construct_uniform`` builds and every point the
naive baseline evaluates is normal, and a normal point gives the same
value and verdict with the flag as without it.  They also pin where the
flag is used: a bound report takes the nodes of a set that
``construct_uniform`` built on the partition's space as they are (the
set records that space as ``normal_on``, and only an equal space reads
it so) and normalises each node of any other input once, the
perturbation study normalises none of its nodes, and a model that does
not match its partition fails as it did when every point was checked.

``evaluate`` and ``cell_index_of`` run once per node, so every library
loop passes them the flag positionally, ``evaluate(node, True)``, which
CPython 3.11 and later inline, where a call with ``normal=True``, a
keyword name, is not.  ``tests/per_node_calls.py`` runs each such loop
under spies that refuse the keyword; the flag still means the same
passed either way.
"""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcbounds import (
    Affine,
    BoxCell,
    CubeSpace,
    FiniteCell,
    FunctionModel,
    OutOfDomainError,
    PiecewiseConstant,
    Quadratic,
    Sinusoid,
    UniformPointSet,
    bound_report,
    construct_uniform,
    equal_partition_1d,
    is_uniform,
    make_cube_space,
    make_finite_space,
    make_partition,
    qmc_estimate,
)
from qmcbounds import estimator, experiments
from qmcbounds.experiments import named_function, naive_pointwise_s, perturb_table
from qmcbounds.funcmodel import FiniteTable
from qmcbounds.pointsets import STRATEGIES, STRATEGY_RANDOM
from qmcbounds.spaces import FiniteSpace

from per_node_calls import checked_passes


@st.composite
def grid_partitions(draw):
    """A product grid of 1-3 axes, each cut at some of the multiples of
    1/2, 1/3 or 1/4, and a size that allocates 1 or 2 nodes per 1/q."""
    axes, n_points = [], draw(st.integers(1, 2))
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(2, 4))
        cuts = draw(st.sets(st.integers(1, q - 1)))
        edges = [0.0, *(i / q for i in sorted(cuts)), 1.0]
        axes.append(list(zip(edges, edges[1:])))
        n_points *= q
    cells = [BoxCell(*zip(*spans)) for spans in itertools.product(*axes)]
    return make_partition(make_cube_space(len(axes)), cells), n_points


def _counting_as_point(monkeypatch, space_type):
    """Record every point that space_type.as_point is handed."""
    seen = []
    as_point = space_type.as_point

    def counting(self, value):
        seen.append(value)
        return as_point(self, value)

    monkeypatch.setattr(space_type, "as_point", counting)
    return seen


@settings(max_examples=150, deadline=None)
@given(grid_partitions(), st.sampled_from(STRATEGIES), st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 2 ** 16), max_size=4))
def test_constructed_nodes_are_normal(grid, strategy, seed, vetoed):
    partition, n_points = grid
    space = partition.space
    first_tries = construct_uniform(partition, n_points, strategy, seed=seed).nodes
    avoid = [first_tries[i % n_points] for i in vetoed]
    nodes = construct_uniform(partition, n_points, strategy, seed=seed,
                              avoid_points=avoid).nodes
    assert all(space.as_point(p) is p for p in nodes)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_constructed_atoms_are_normal(strategy):
    space = make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)])
    partition = make_partition(space, [FiniteCell((0, 1)), FiniteCell((2,))])
    nodes = construct_uniform(partition, 8, strategy, seed=3).nodes
    assert all(space.as_point(p) is p for p in nodes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_naive_baseline_evaluates_only_normal_points(k, spikes):
    partition = equal_partition_1d(k)
    space = partition.space
    f = FunctionModel(Affine(0.25, (1.5,)), tuple(((t,), 1e4) for t in spikes))
    calls = []
    evaluate = FunctionModel.evaluate

    def recording(self, point, normal=False):
        calls.append((point, normal))
        return evaluate(self, point, normal=normal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FunctionModel, "evaluate", recording)
        naive_pointwise_s(f, partition)
    assert len(calls) >= k * (experiments.NAIVE_RESOLUTION + 1)
    assert all(normal and space.as_point(p) is p for p, normal in calls)


# The five families, each with a spike where spikes are allowed.
_PIECES = equal_partition_1d(4)
_ATOMS = make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)])
FAMILIES = {
    "affine": FunctionModel(Affine(0.5, (1.0, -2.0)), (((0.25, 0.75), 9.0),)),
    "quadratic": FunctionModel(Quadratic(0.1, (-0.7, 0.3), (0.9, -0.6)),
                               (((0.5, 0.5), -3.0),)),
    "sinusoid": FunctionModel(Sinusoid(1.5, 2.0, 0.3, 0.25, 1, 2), (((1.0, 0.0), 4.0),)),
    "pieces": FunctionModel(PiecewiseConstant(_PIECES, (1.0, -2.0, 3.0, 0.5)),
                            (((0.5,), 7.0),)),
    "table": FunctionModel(FiniteTable((1.0, 2.0, -4.0), _ATOMS.labels)),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.data())
def test_evaluating_a_normal_point_unchecked_gives_its_value(name, data):
    f = FAMILIES[name]
    if f.is_finite:
        space = _ATOMS
        points = [data.draw(st.integers(0, 2))]
    else:
        space = make_cube_space(f.dimension)
        coords = st.tuples(*[st.floats(0.0, 1.0)] * f.dimension)
        points = [p for p, _ in f.spikes] + [data.draw(coords)]
    for point in map(space.as_point, points):
        assert f.evaluate(point, normal=True).hex() == f.evaluate(point).hex()


@settings(max_examples=100, deadline=None)
@given(grid_partitions(), st.data())
def test_estimate_and_uniformity_take_normal_nodes_as_they_are(grid, data):
    partition, n_points = grid
    space = partition.space
    f = FunctionModel(Affine(0.375, tuple(0.5 - a for a in range(space.dimension))))
    coords = st.tuples(*[st.floats(0.0, 1.0)] * space.dimension)
    nodes = data.draw(st.one_of(
        st.lists(coords, min_size=1, max_size=12),
        st.builds(lambda seed: construct_uniform(partition, n_points, STRATEGY_RANDOM,
                                                 seed=seed).nodes, st.integers(0, 2 ** 32))))
    assert all(space.as_point(p) is p for p in nodes)
    assert qmc_estimate(f, nodes, normal=True).hex() == qmc_estimate(f, nodes).hex()
    assert is_uniform(nodes, partition, normal=True) == is_uniform(nodes, partition)


def test_estimate_and_uniformity_take_constructed_sets_as_they_are():
    partition = equal_partition_1d(8)
    nodes = construct_uniform(partition, 16, STRATEGY_RANDOM, seed=5)
    for f in (named_function("x2"), FAMILIES["pieces"]):
        assert qmc_estimate(f, nodes, normal=True).hex() == qmc_estimate(f, nodes).hex()
    assert is_uniform(nodes, partition, normal=True) == is_uniform(nodes, partition)


def test_bound_report_normalises_each_node_once(monkeypatch):
    partition = make_partition(make_cube_space(2), [
        BoxCell((i / 4, j / 4), ((i + 1) / 4, (j + 1) / 4))
        for i in range(4) for j in range(4)])
    built = construct_uniform(partition, 32, STRATEGY_RANDOM, seed=11)
    f = FunctionModel(Quadratic(0.1, (-0.7, 0.3), (0.9, -0.6)))
    seen = _counting_as_point(monkeypatch, CubeSpace)
    # a set built on the partition's space is normal by construction
    report = bound_report(f, partition, built)
    assert seen == []
    # the same nodes as a plain tuple are normalised once each
    assert bound_report(f, partition, tuple(built.nodes)) == report
    assert seen == list(built.nodes)


def test_a_built_set_keeps_its_space_through_pickle_but_not_in_its_value(monkeypatch):
    partition = equal_partition_1d(4)
    built = construct_uniform(partition, 8, STRATEGY_RANDOM, seed=3)
    by_hand = UniformPointSet(built.nodes)
    assert built.normal_on is partition.space and by_hand.normal_on is None
    assert built == by_hand and hash(built) == hash(by_hand)
    assert repr(built) == repr(by_hand) == f"UniformPointSet(nodes={built.nodes!r})"
    loaded = pickle.loads(pickle.dumps(built))
    assert loaded == built and loaded.normal_on == partition.space
    assert loaded.normal_on is not partition.space
    # an equal space reads the loaded set as it is, as the same space does
    seen = _counting_as_point(monkeypatch, CubeSpace)
    assert bound_report(named_function("x"), partition, loaded) == bound_report(
        named_function("x"), partition, built)
    assert seen == []


def test_bound_report_normalises_each_labelled_atom_once(monkeypatch):
    space = make_finite_space([("a", 0.25), ("b", 0.25), ("c", 0.5)])
    partition = make_partition(space, [FiniteCell((0, 1)), FiniteCell((2,))])
    f = FunctionModel(FiniteTable((1.0, 2.0, 4.0), space.labels))
    nodes = ["b", "a", "c", 2]
    seen = _counting_as_point(monkeypatch, FiniteSpace)
    table_seen = _counting_as_point(monkeypatch, FiniteTable)
    report = bound_report(f, partition, nodes)
    assert (seen, table_seen) == (nodes, [])
    assert report.estimate == 2.75


def test_bound_report_normalises_points_that_are_not_yet_normal():
    partition = equal_partition_1d(4)
    nodes = [[0.125], 0.375, ("0.625",), (1,)]
    # a set built by hand records no space, so it is normalised as the list is
    for pointset in (nodes, UniformPointSet(tuple(nodes))):
        report = bound_report(named_function("x"), partition, pointset)
        assert report.estimate == math.fsum([0.125, 0.375, 0.625, 1.0]) / 4


def test_bound_report_checks_uniformity_and_estimates_once(monkeypatch):
    calls = []
    for name in ("is_uniform", "qmc_estimate"):
        real = getattr(estimator, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator, name, counting)
    partition = equal_partition_1d(8)
    bound_report(named_function("x"), partition, construct_uniform(partition, 8))
    assert calls == ["is_uniform", "qmc_estimate"]


def test_perturb_study_normalises_no_node_or_grid_point(monkeypatch):
    seen = _counting_as_point(monkeypatch, CubeSpace)
    rows, summary = perturb_table(named_function("x"), 8, 3, seed=4, placement_seeds=5)
    # only the 3 spike points are normalised: by the spiked model, and by
    # each of the 5 constructions that veto them
    assert len(seen) == 3 * (1 + 5) and len(set(seen)) == 3
    assert summary["placement_seeds"] == 5


def test_perturb_study_estimates_twice_per_placement_seed(monkeypatch):
    calls = []
    real = experiments.qmc_estimate

    def counting(f, pointset, **kwargs):
        calls.append(kwargs)
        return real(f, pointset, **kwargs)

    monkeypatch.setattr(experiments, "qmc_estimate", counting)
    perturb_table(named_function("x"), 8, 3, seed=4, placement_seeds=5)
    assert calls == [{"normal": True}] * 10


def test_naive_baseline_refuses_a_model_of_another_dimension():
    f = FunctionModel(Affine(0.5, (1.0, -2.0)))
    with pytest.raises(OutOfDomainError,
                       match="^a 2-dimensional cube model read on the 1-dimensional cube$"):
        naive_pointwise_s(f, equal_partition_1d(4))


_PLANE = make_partition(make_cube_space(2), [BoxCell((0.0, 0.0), (1.0, 0.5)),
                                             BoxCell((0.0, 0.5), (1.0, 1.0))])
_ATOM_CELLS = make_partition(_ATOMS, [FiniteCell((0, 1)), FiniteCell((2,))])


@pytest.mark.parametrize("f, message", [
    (FunctionModel(Quadratic(0.1, (-0.7, 0.3), (0.9, -0.6))),
     r"a 2-dimensional cube model read on the 1-dimensional cube"),
    (FunctionModel(PiecewiseConstant(_PLANE, (1.0, 2.0))),
     r"a 2-dimensional cube model read on the 1-dimensional cube"),
    (FunctionModel(PiecewiseConstant(_ATOM_CELLS, (1.0, 2.0))),
     r"a piece layout on 3 atoms read on the 1-dimensional cube"),
    (FunctionModel(FiniteTable((1.0, 2.0, -4.0), _ATOMS.labels)),
     r"a 3-value table read on the 1-dimensional cube"),
], ids=["cube-2d", "pieces-2d", "pieces-finite", "table"])
def test_naive_baseline_refuses_a_model_off_the_line_once(f, message):
    # any model but a cube model of dimension 1 is refused once, before
    # a grid point is read
    with pytest.raises(OutOfDomainError, match=f"^{message}$"):
        naive_pointwise_s(f, equal_partition_1d(4))


def test_a_set_built_on_another_space_is_normalised_and_refused():
    # the plane's nodes are normal there, not on the line: had bound_report
    # taken them as they are, the line would count them and find the set
    # not uniform, where normalising refuses the first node
    built = construct_uniform(_PLANE, 4)
    messages = []
    for pointset in (built, tuple(built.nodes)):
        with pytest.raises(OutOfDomainError) as refused:
            bound_report(named_function("x"), equal_partition_1d(4), pointset)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_bound_report_refuses_a_model_of_another_dimension():
    f = FunctionModel(Affine(0.5, (1.0, -2.0)))
    partition = equal_partition_1d(4)
    with pytest.raises(OutOfDomainError, match=r"^a 2-dimensional cube model read on the "
                                               r"1-dimensional cube$"):
        bound_report(f, partition, construct_uniform(partition, 4))


@pytest.mark.parametrize("nodes, estimate", [
    (["a", "b", "c", "c"], 2.75),
    ([0, 1, 2, 2], 2.75),
    (["b", "b", "c", "c"], 3.0),
], ids=["abcc", "0122", "bbcc"])
@pytest.mark.parametrize("labels", [None, ("c", "b", "a"), ("a", "b", "c")],
                         ids=["unlabelled", "reordered", "same"])
def test_bound_report_reads_a_table_by_the_space_labels(labels, nodes, estimate):
    # the uniformity check counts each node as the space reads it, and the
    # estimate reads that same atom, whatever labels the table has: "b" is
    # the space's second atom, with the table's second value
    f = FunctionModel(FiniteTable((1.0, 2.0, 4.0), labels))
    report = bound_report(f, _ATOM_CELLS, nodes)
    assert report.estimate == estimate
    assert report.error == abs(estimate - 2.75)
    assert report.error <= report.bounds.corollary2 == 0.5


def test_library_loops_pass_the_flag_positionally():
    for text, holds in checked_passes():
        assert holds, text


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_evaluate_reads_the_flag_alike_by_position_and_by_keyword(name):
    f = FAMILIES[name]
    if f.is_finite:
        points = [0, 1, 2]
    else:
        d = f.dimension
        # each spike, then a zero of either sign on every axis
        points = [p for p, _ in f.spikes] + [(-0.0,) * d, (0.0,) * d, (0.25, -0.0)[:d]]
    for point in points:
        flagged = f.evaluate(point, True)
        assert flagged.hex() == f.evaluate(point, normal=True).hex() == f.evaluate(point).hex()
    if f.spikes:
        spike, value = f.spikes[0]
        assert f.evaluate(spike, True) == value
    # unflagged, a point is still normalised or refused
    outside = 3 if f.is_finite else (1.5,) * f.dimension
    for call in (lambda: f.evaluate(outside), lambda: f.evaluate(outside, False)):
        with pytest.raises(OutOfDomainError):
            call()
    if f.is_finite:
        assert f.evaluate("c") == f.evaluate(2, True) == -4.0
    else:
        loose = [0.25] * f.dimension
        assert f.evaluate(loose).hex() == f.evaluate(tuple(loose), True).hex()


_LOOKUPS = {
    "line": (equal_partition_1d(4), [(0.0,), (-0.0,), (0.25,), (0.6,), (1.0,)],
             [0.5, [0.75]], (1.5,)),
    "plane": (_PLANE, [(0.0, 0.0), (-0.0, 0.5), (0.3, 0.49), (1.0, 1.0)],
              [[0.5, 0.75], (1, 0)], (0.5, 1.5)),
    "cube": (make_partition(make_cube_space(3), [
        BoxCell((i / 2, j / 2, 0.0), ((i + 1) / 2, (j + 1) / 2, 1.0))
        for i in range(2) for j in range(2)]),
        [(0.0, 0.0, 0.0), (0.5, -0.0, 0.25), (0.75, 0.75, 1.0)],
        [[0.25, 0.75, 0.5], (1, 1, 1)], (0.5, 0.5, -0.5)),
    "atoms": (_ATOM_CELLS, [0, 1, 2], ["a", "c"], 3),
}


@pytest.mark.parametrize("name", sorted(_LOOKUPS))
def test_cell_lookup_reads_the_flag_alike_by_position_and_by_keyword(name):
    partition, normal, loose, outside = _LOOKUPS[name]
    space = partition.space
    for point in normal:
        j = partition.cell_index_of(point)
        assert j is not None
        assert partition.cell_index_of(point, True) == partition.cell_index_of(
            point, normal=True) == partition.cell_index_of(point, False) == j
    # unflagged, a point is still normalised or refused
    for point in loose:
        assert partition.cell_index_of(point) == partition.cell_index_of(
            space.as_point(point), True)
    for call in (lambda: partition.cell_index_of(outside),
                 lambda: partition.cell_index_of(outside, False)):
        with pytest.raises(OutOfDomainError):
            call()

"""Ground-truth verification on finite probability spaces.

Every atom of a finite space carries strictly positive weight, so a
uniform configuration of N nodes has product measure at least
(min weight)^N > 0 and there are no nonempty null sets of
configurations.  An essential supremum over the configuration set is
therefore the plain maximum over the finite enumeration; that lemma is
what lets ``worst_case_error`` certify the essential-supremum bounds by
exhaustion, and it is why the exhaustive oracle lives on finite spaces
only.  ``worst_uniform_error`` gives the same worst error in closed
form on either kind of space; the exhaustive verdict checks the two
against each other.

Each instance's stream is scored on its own, a short one by the
reference fsum loop and a long one by a walk over exact integer totals
that never backs up, to the same bits and in pure Python.

``minimax_distance_finite`` solves the discrete Chebyshev problem

    minimize  max_i |f(x_i) - c_0 - sum_j c_j * 1[x_i in M_j]|

as a linear program (HiGHS).  The returned certificate carries the
coefficients and the max residual they achieve, so its claim can be
rechecked independently; when the family happens to be a partition the
result is cross-checked against the closed form ``bound_set(f,
partition).distance``, half the worst cell oscillation, before it is
returned.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement, islice, product
from operator import mul, sub, truediv
from typing import Sequence

from .bounds import (
    BoundSet,
    CellTable,
    _bounds_from_table,
    bound_set,
    cell_table,
    certification_slack,
)
from .errors import QmcBoundsError
from .funcmodel import FiniteTable, FunctionModel, _require_atoms
from .instances import Instance
from .pointsets import DEFAULT_ENUMERATION_CAP, enumerate_uniform
from .spaces import (
    FiniteCell,
    FiniteSpace,
    Partition,
    make_finite_space,
    make_partition,
)

# Tolerance of the minimax certificate's cross-check against the closed
# form on partition families.
VERIFY_SLACK = 1e-9

# Atom weights of generated instances are multiples of this unit.
WEIGHT_UNIT = 16

# Size envelope of random_instance.
MAX_ATOMS = 6
MAX_CELLS = 3

# Streams of at most this many configurations are scored by the
# reference loop, longer ones by the walk (see _score_configurations),
# at the measured crossover: on the small suites of seeds 0-19 (2-core
# x86-64, Python 3.11.7, CPU time, medians of 31 alternated passes), per
# stream of 25-32 configurations the loop took 18.0 us and the walk
# 19.6 us, and of 33-40, 20.3 us and 16.4 us.
SCAN_LIMIT = 32


@dataclass(frozen=True)
class VerificationVerdict:
    """One instance's exhaustive check against its three bounds and the
    closed-form worst error ``closed_form``, each within ``slack``;
    ``failure`` is the first check it fails, as (check, margin), or None."""

    instance: Instance
    worst_error: float
    argmax_configuration: tuple[tuple[int, ...], ...]
    bounds: BoundSet
    failure: tuple[str, float] | None
    tightness: float
    total_configurations: int
    closed_form: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.failure is None


def _failed_check(worst: float, bounds: BoundSet, closed_form: float, slack: float):
    """The first of a verdict's checks that fails, as (check, margin), or
    None when all hold within ``slack``: the worst error against
    corollary2 and corollary1 (the margin is how far it passes the
    bound; theorem1 is corollary1, so its check is that one), then
    against the closed form (the margin is how far apart the two are)."""
    for check, bound in (("corollary2", bounds.corollary2), ("corollary1", bounds.corollary1)):
        if not worst <= bound + slack:
            return check, worst - bound
    gap = abs(worst - closed_form)
    return None if gap <= slack else ("worst_uniform_error", gap)


@dataclass(frozen=True)
class MinimaxCertificate:
    """Optimal piecewise-constant distance plus a checkable witness.

    ``value`` is the certified minimax distance: the max residual
    recomputed from the returned coefficients (``atom_values`` holds the
    fitted value of every atom), within 1e-7 of the LP optimum, which is
    checked and not stored.  ``degenerate`` marks families where some cell
    equals the whole space, in which case the constant is folded into
    that cell's coefficient and reported as 0.
    """

    value: float
    constant: float
    cell_coefficients: tuple[float, ...]
    atom_values: tuple[float, ...]
    degenerate: bool


def _score_configurations(stream, values, n_points, integral):
    """Worst |average - integral| over the configuration stream, with the
    lexicographically first configuration attaining it; ``values`` holds
    f at every atom and ``integral`` the integral of f over the space.

    A stream of at most SCAN_LIMIT configurations is scored by the
    reference loop (``_scan``) and a longer one by the walk
    (``_search``), bit for bit alike; the walk's cost follows the nodes
    and atoms, not the stream's length.

    The maximum itself comes from the two extreme configurations, every
    node at its cell's largest value or every node at its smallest.  A
    verdict still checks it against the closed form
    ``worst_uniform_error``, which reads the cell ranges (``range_on``)
    and the cell integrals instead of the atom values, so a wrong range
    still fails the verdict.
    """
    score = _scan if stream.total_count <= SCAN_LIMIT else _search
    return score(stream, values, n_points, integral)


def _scan(stream, values, n_points, integral):
    """The reference loop: every configuration of ``stream`` scored with
    its own fsum, keeping the first strict maximum.  Each cell's
    multisets of values are listed once, in the stream's order, and the
    argmax is read back from the stream at its position."""
    cells = [list(combinations_with_replacement([values[a] for a in atoms], count))
             for atoms, count in zip(stream.cells, stream.counts)]
    worst, best = -1.0, 0
    for position, total in enumerate(map(math.fsum, map(chain.from_iterable, product(*cells)))):
        err = abs(total / n_points - integral)
        if err > worst:
            worst, best = err, position
    return worst, next(islice(stream, best, None))


def _search(stream, values, n_points, integral):
    """``_scan``'s result, from a walk that never backs up.

    Every double is n / d with d a power of two, so scaling each atom
    value by D, the largest such d among them, makes it an int, and a
    configuration's total an exact int S.  Python's int / int rounds
    once, as fsum does, so ``abs(S / D / N - I)`` is ``_scan``'s score,
    bit for bit; it is |h(S)|, with h(S) = fl(fl(fl(S / D) / N) - I)
    nondecreasing in S.  So the worst score W is that of the largest
    total or of the smallest.

    The walk places the nodes one by one in stream order, a cell's nodes
    at nondecreasing positions as in ``combinations_with_replacement``.
    The leaves below a node at position q have totals between two
    extremes, each reached by one of them: partial + cell[q] + rest *
    (the cell's largest value from q on) + (the later cells' largest
    totals), with ``rest`` the cell's nodes after this one, and the same
    with the smallest values.  A leaf of total S scoring W has h(S) = W
    or -W, and then h at the largest extreme is W or h at the smallest
    is -W, since h is monotone and no leaf scores above W.  So a leaf
    scoring W lies below a node exactly when one of its two extremes
    scores W; the walk puts each node at the first position where one
    does, never backs up, and reaches the first leaf scoring W,
    ``_scan``'s first strict maximum.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    counts = stream.counts
    cells = [[ints[a] for a in atoms] for atoms in stream.cells]
    # each cell's largest and smallest value from each position on
    highs = [list(accumulate(cell[::-1], max))[::-1] for cell in cells]
    lows = [list(accumulate(cell[::-1], min))[::-1] for cell in cells]
    # the largest and smallest totals of the last i cells, for i = 0, ..., k
    tops = list(accumulate(map(mul, counts[::-1], [h[0] for h in highs[::-1]]), initial=0))
    bottoms = list(accumulate(map(mul, counts[::-1], [l[0] for l in lows[::-1]]), initial=0))
    worst = max(abs(tops[-1] / scale / n_points - integral),
                abs(bottoms[-1] / scale / n_points - integral))
    partial = 0
    argmax = []
    for atoms, cell, high, low, count, top, bottom in zip(
            stream.cells, cells, highs, lows, counts, tops[-2::-1], bottoms[-2::-1]):
        q, chosen = 0, []
        for rest in range(count - 1, -1, -1):
            while (abs((partial + cell[q] + rest * high[q] + top) / scale / n_points
                       - integral) != worst
                   and abs((partial + cell[q] + rest * low[q] + bottom) / scale / n_points
                           - integral) != worst):
                q += 1
            partial += cell[q]
            chosen.append(atoms[q])
        argmax.append(tuple(chosen))
    return worst, tuple(argmax)


def worst_uniform_error(f: FunctionModel, partition: Partition) -> float:
    """Closed-form worst |average - integral| over every uniform point set.

    A uniform set puts N * m_j nodes in cell j, each anywhere in the cell
    and independently of the other cells, so the worst set puts every
    node at the essential supremum G_j of its cell or every node at the
    infimum g_j: W = max(sum_j m_j G_j - I, I - sum_j m_j g_j).  Each
    side is summed by fsum as per-cell deviations m_j (G_j - avg_j) and
    m_j (avg_j - g_j), with avg_j the cell's integral over its measure.
    Exact up to rounding for exact ranges on either kind of space; a
    sampled range raises QmcBoundsError, since the true supremum is not
    known from it.
    """
    return _worst_uniform_error(cell_table(f, partition), f.cell_integrals(partition))


def _worst_uniform_error(table: CellTable, integrals: list[float]) -> float:
    """worst_uniform_error as list passes over a cell table's columns and
    the cell ``integrals``."""
    if not all(table.exact):
        raise QmcBoundsError(f"cell {table.exact.index(False)} has a sampled range; the "
                             f"worst uniform error needs exact essential ranges")
    measure = table.measure
    averages = list(map(truediv, integrals, measure))
    up = math.fsum(map(mul, measure, map(sub, table.hi, averages)))
    down = math.fsum(map(mul, measure, map(sub, averages, table.lo)))
    return max(up, down, 0.0)


def _atom_values(f: FunctionModel, space: FiniteSpace, n_points: int, n_cells: int,
                 instance_id: str) -> tuple[list[float], list[float], float]:
    """f at every atom (``FunctionModel._atom_values``), the weight *
    value products and their fsum; refused when the scorer's sums of
    ``n_points`` values could overflow.

    With M = max |value| and k = ``n_cells``, every total of N values,
    which ``_scan``'s fsum keeps within a rounding of its partials and
    the walk holds as an exact int S until it rounds S / D once, is at
    most NM; keeping NM twice (N + k + 4) roundings below the largest
    double keeps each finite (fsum and int / int would raise
    OverflowError).
    """
    values = f._atom_values(space)
    reach = n_points * max(map(abs, values))
    if reach > sys.float_info.max / (1 + 2 * (n_points + n_cells + 4) * 2.0**-53):
        raise QmcBoundsError(
            f"instance {instance_id!r}: N * max|value| = {reach!r} could overflow the "
            f"sums of N atom values")
    products = list(map(mul, space.weights, values))
    return values, products, math.fsum(products)


def worst_case_error(partition: Partition, f: FunctionModel, n_points: int,
                     cap: int = DEFAULT_ENUMERATION_CAP):
    """Maximum |average - integral| over every uniform configuration of
    the partition's finite space, integrating over that space.

    Returns (error, configuration); ties keep the lexicographically
    first configuration, so reruns are reproducible.
    """
    stream = enumerate_uniform(partition, n_points, cap)
    values, _, integral = _atom_values(f, partition.space, n_points, len(stream.counts), "")
    return _score_configurations(stream, values, n_points, integral)


def verify_instances(instances: Sequence[Instance],
                     cap: int = DEFAULT_ENUMERATION_CAP) -> list[VerificationVerdict]:
    """Exhaustively compare each instance's worst realized error with its
    three bounds, one verdict per instance, in order.

    Each instance in turn is enumerated, read (one essential range per
    cell, one value per atom) and scored by ``_score_configurations``,
    so the first one that cannot be verified raises what it would raise
    alone.  The integral over the space, and each cell's, is the fsum of
    the weight times value products of the values just read, once the
    model is checked against the space as ``cell_integral`` checks it.
    An instance on a cube space, or one that declares no N, raises a
    QmcBoundsError naming it.

    A verdict also fails when the scored worst error and the closed
    form ``worst_uniform_error`` differ, so the scorer and the closed
    form check each other.  Every comparison allows the same slack,
    scaled to the data (``bounds.certification_slack``).

    tightness is worst_error / corollary2 (how much of the certified
    budget the adversary actually uses).  A budget within the slack is
    treated as the zero budget, since dividing by it only scales rounding
    noise: a worst error inside the slack then uses all of nothing,
    reported as 1.0, and only a genuine violation reports inf.
    """
    verdicts = []
    for instance in instances:
        space, partition, f, n_points = (instance.space, instance.partition,
                                         instance.function, instance.n_points)
        if not isinstance(space, FiniteSpace):
            raise QmcBoundsError(
                f"instance {instance.instance_id!r}: verification is finite-space only")
        if n_points is None:
            raise QmcBoundsError(f"instance {instance.instance_id!r} declares no N")
        stream = enumerate_uniform(partition, n_points, cap)
        # one range per cell serves the bounds and the closed form alike
        table = cell_table(f, partition)
        try:
            bounds = _bounds_from_table(table)
        except QmcBoundsError as exc:
            raise QmcBoundsError(f"instance {instance.instance_id!r}: {exc}") from None
        values, products, integral = _atom_values(f, space, n_points, len(stream.counts),
                                                   instance.instance_id)
        integrals = [math.fsum(products[a] for a in cell.atoms) for cell in partition.cells]
        closed_form = _worst_uniform_error(table, integrals)
        slack = certification_slack(table, integral, stream.counts)
        worst, argmax = _score_configurations(stream, values, n_points, integral)
        if bounds.corollary2 > slack:
            tightness = worst / bounds.corollary2
        else:
            tightness = 1.0 if worst <= slack else math.inf
        verdicts.append(VerificationVerdict(
            instance=instance,
            worst_error=worst,
            argmax_configuration=argmax,
            bounds=bounds,
            failure=_failed_check(worst, bounds, closed_form, slack),
            tightness=tightness,
            total_configurations=stream.total_count,
            closed_form=closed_form,
            slack=slack,
        ))
    return verdicts


def verify_bounds_exhaustive(space: FiniteSpace, partition: Partition,
                             f: FunctionModel, n_points: int,
                             cap: int = DEFAULT_ENUMERATION_CAP,
                             instance_id: str = "") -> VerificationVerdict:
    """``verify_instances`` of the one instance these fields make up;
    ``Instance`` refuses a space that is not the partition's."""
    return verify_instances([Instance(instance_id, space, partition, f, n_points)], cap)[0]


def minimax_distance_finite(space: FiniteSpace, family, f: FunctionModel) -> MinimaxCertificate:
    """Exact discrete minimax over the span of a family of finite cells.

    ``family`` is any sequence of finite cells; it need not be disjoint
    or covering.  A cell equal to the whole space makes the constant
    term redundant, so the constant column is dropped (reported
    constant 0) rather than rejected.  A cell that reaches outside the
    space, and a model that cannot be read on it, raise
    OutOfDomainError as ``cell_integral`` does.
    """
    from scipy.optimize import linprog

    cells = [c if isinstance(c, FiniteCell) else FiniteCell(tuple(c)) for c in family]
    n = space.n_atoms
    for cell in cells:
        _require_atoms(cell, n, "atom space")
    values = f._atom_values(space)
    degenerate = any(len(cell.atoms) == n for cell in cells)
    members = [set(cell.atoms) for cell in cells]
    columns = members if degenerate else [range(n), *members]
    p = len(columns)
    # variables: p coefficients then t; minimize t subject to
    # +-(f_i - sum_c coef_c 1[i in column c]) <= t
    a_ub, b_ub = [], []
    for i, value in enumerate(values):
        row = [1.0 if i in column else 0.0 for column in columns]
        a_ub += [row + [-1.0], [-x for x in row] + [-1.0]]
        b_ub += [value, -value]
    result = linprog(
        [0.0] * p + [1.0], A_ub=a_ub, b_ub=b_ub,
        bounds=[(None, None)] * p + [(0.0, None)],
        method="highs",
    )
    if not result.success:
        raise QmcBoundsError(f"minimax LP failed: {result.message}")
    coeffs = [float(c) for c in result.x[:p]]
    constant = 0.0 if degenerate else coeffs[0]
    cell_coeffs = coeffs[p - len(cells):]
    atom_values = []
    for i in range(n):
        total = constant
        for cell_members, coef in zip(members, cell_coeffs):
            if i in cell_members:
                total += coef
        atom_values.append(total)
    achieved = max(abs(v - lv) for v, lv in zip(values, atom_values))
    if abs(achieved - result.fun) > 1e-7:
        raise QmcBoundsError(
            f"minimax certificate achieves {achieved!r} but the LP reported {result.fun!r}"
        )
    try:
        partition = make_partition(space, cells)
    except QmcBoundsError:
        pass  # not a partition: no closed form to cross-check
    else:
        closed_form = bound_set(f, partition).distance
        if abs(achieved - closed_form) > VERIFY_SLACK:
            raise QmcBoundsError(
                f"minimax {achieved!r} disagrees with the closed form {closed_form!r} "
                "on a partition family"
            )
    return MinimaxCertificate(
        value=achieved,
        constant=constant,
        cell_coefficients=tuple(cell_coeffs),
        atom_values=tuple(atom_values),
        degenerate=degenerate,
    )


_FEASIBLE_SIZES = (2, 4, 8, 16)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of total into exactly `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def _build_finite_instance(rng: random.Random, n_atoms: int, k: int, n_points: int,
                           instance_id: str) -> Instance:
    """Instance with 1/16-unit weights built so n_points is feasible.

    Cell masses are node_count / n_points; each cell's mass is then
    split into per-atom positive multiples of 1/16.  Atom values are
    drawn uniformly from [-1, 1].
    """
    node_counts = _composition(rng, n_points, k)
    unit_factor = WEIGHT_UNIT // n_points
    cell_units = [c * unit_factor for c in node_counts]
    # distribute atoms: one per cell first, the rest wherever units allow
    atoms_per_cell = [1] * k
    for _ in range(n_atoms - k):
        open_cells = [j for j in range(k) if atoms_per_cell[j] < cell_units[j]]
        atoms_per_cell[rng.choice(open_cells)] += 1
    labels = [f"a{i}" for i in range(n_atoms)]
    weights: list[float] = []
    cells: list[FiniteCell] = []
    next_atom = 0
    for j in range(k):
        unit_split = _composition(rng, cell_units[j], atoms_per_cell[j])
        members = []
        for units in unit_split:
            weights.append(units / WEIGHT_UNIT)
            members.append(next_atom)
            next_atom += 1
        cells.append(FiniteCell(tuple(members)))
    space = make_finite_space(list(zip(labels, weights)))
    partition = make_partition(space, cells)
    values = tuple(rng.uniform(-1.0, 1.0) for _ in range(n_atoms))
    f = FunctionModel(FiniteTable(values, space.labels))
    return Instance(instance_id, space, partition, f, n_points)


def random_instance(seed: int) -> Instance:
    """Deterministic random finite instance; same seed, same instance.

    2..MAX_ATOMS atoms in 1..MAX_CELLS cells.  Atom weights are positive
    multiples of 1/16 assembled cell-first, so the instance's own N
    (drawn from the sizes in {2, 4, 8, 16} that are at least k) is always
    feasible and N = 16 is feasible for every instance this produces.
    """
    rng = random.Random(seed)
    n_atoms = rng.randint(2, MAX_ATOMS)
    k = rng.randint(1, min(MAX_CELLS, n_atoms))
    n_points = rng.choice([s for s in _FEASIBLE_SIZES if k <= s])
    return _build_finite_instance(rng, n_atoms, k, n_points, f"rand-{seed}")


def small_exhaustive_suite(seed_offset: int = 0) -> list[Instance]:
    """The standard soundness sweep over small finite instances.

    Grid part: every combination of 2..6 atoms, 1..3 cells, and
    N in {2, 4} with k <= min(atoms, N), each in 20 seeded variants
    (480 instances); plus 100 fully random instances.
    """
    instances: list[Instance] = []
    for n_atoms in range(2, 7):
        for n_points in (2, 4):
            for k in range(1, min(3, n_atoms, n_points) + 1):
                for variant in range(20):
                    # disjoint from the random_instance seed range below
                    combo_seed = (
                        seed_offset * 1_000_003
                        + n_atoms * 10_000 + k * 1_000 + n_points * 10 + variant
                    )
                    rng = random.Random(combo_seed)
                    instances.append(
                        _build_finite_instance(
                            rng, n_atoms, k, n_points,
                            f"grid-x{n_atoms}-k{k}-n{n_points}-v{variant}",
                        )
                    )
    for i in range(100):
        instances.append(random_instance(seed_offset + i))
    return instances

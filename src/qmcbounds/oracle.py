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
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement

from .bounds import BoundSet, _bounds_from_ranges, bound_set
from .errors import QmcBoundsError
from .funcmodel import FiniteTable, FunctionModel
from .instances import Instance
from .pointsets import DEFAULT_ENUMERATION_CAP, ConfigurationStream, enumerate_uniform
from .spaces import (
    FiniteCell,
    FiniteSpace,
    Partition,
    make_finite_space,
    make_partition,
)

# Verification slack, matching the estimator's certification slack.
VERIFY_SLACK = 1e-9

# Atom weights of generated instances are multiples of this unit.
WEIGHT_UNIT = 16

# Size envelope of random_instance.
MAX_ATOMS = 6
MAX_CELLS = 3

# Configurations scored per block: no working array of the exhaustive
# scorer's outer sum holds more float64 values than this.
SCORE_CHUNK = 1 << 16


@dataclass(frozen=True)
class VerificationVerdict:
    """One instance's exhaustive check against its three bounds."""

    instance: Instance
    worst_error: float
    argmax_configuration: tuple[tuple[int, ...], ...]
    bounds: BoundSet
    passed: bool
    tightness: float
    total_configurations: int


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


def _rounding_margin(magnitude: float, integral: float, roundings: int) -> float:
    """A margin for ``roundings`` roundings of size u(M + |I|), doubled,
    plus as many underflows, with M = ``magnitude`` the largest |atom
    value| (see ``_score_configurations``)."""
    relative = 2 * roundings * 2.0**-53
    return relative * magnitude + relative * abs(integral) + roundings * 2.0**-1074


def _multiset_sums(values, count: int):
    """Sums of the multisets of ``count`` of ``values``, in the order
    ``combinations_with_replacement`` yields them, each summed from the
    right: v[p_0] + (v[p_1] + (... + v[p_last])).

    Built one size at a time: the multisets of size r are, for each
    first element p in turn, v[p] plus those of size r - 1 drawn from
    ``values[p:]``, which are the suffix ``sums[starts[p]:]`` of the
    previous size's array.
    """
    import numpy as np

    sums = np.zeros(1)
    starts = [0] * len(values)
    for _ in range(count):
        pieces = [value + sums[start:] for value, start in zip(values, starts)]
        starts = list(accumulate((len(piece) for piece in pieces[:-1]), initial=0))
        sums = np.concatenate(pieces)
    return sums


def _multiset_at(atoms: tuple[int, ...], count: int, rank: int) -> tuple[int, ...]:
    """The ``rank``-th multiset of ``count`` of ``atoms`` in the order
    ``combinations_with_replacement`` yields them."""
    chosen = []
    first = 0
    for size in range(count, 0, -1):
        # skip the block of multisets starting at atoms[first], of which
        # there are as many as multisets of size - 1 from atoms[first:]
        while rank >= (block := math.comb(len(atoms) - first + size - 2, size - 1)):
            rank -= block
            first += 1
        chosen.append(atoms[first])
    return tuple(chosen)


def _score_configurations(stream: ConfigurationStream, partition: Partition,
                          f: FunctionModel, n_points: int):
    """Worst |average - integral| over a configuration stream, with the
    lexicographically first configuration attaining it.

    Each cell's multiset sums come from ``_multiset_sums`` at numpy
    speed, so the Python work is per cell and per candidate, not per
    multiset.  Approximate scores |t/N - I| come from outer-adding the
    cell sums in C order, so a flat index is a configuration's position
    in the stream.  The longest suffix of cells whose outer sum fits
    SCORE_CHUNK is added once; the head rows are added to it one block
    at a time.

    Rounding margin, with u = 2^-53, M = max |atom value| and k cells of
    c_j nodes: every atom value of the approximate sum t passes through
    at most (c_j - 1) + (k - 1) <= N + k - 2 roundings (its cell's sum
    from the right, then the additions across cells), so t is within
    (N + k - 2)uNM of the exact sum, and the exact score's one fsum
    within uNM; after the division by N that is (N + k - 1)uM, and the
    two divisions and two subtractions of I add 2uM and 2u(M + |I|).
    Only the divisions can underflow, by at most 2^-1075 each.
    ``delta``, (N + k + 4) roundings, covers (N + k + 3)uM + 2u|I| +
    2 * 2^-1075 with room for second-order terms and the rounding of the
    threshold.  Every configuration attaining the exact maximum thus
    scores within 2 * delta of the running approximate maximum; only
    those are rescored, in stream order and with the reference loop's
    expression, keeping the first strict maximum, so the result is bit
    for bit the reference loop's.  Candidates whose cells hold the same
    multisets of values have the same exact score, so a block rescores
    only the first of each such class (one per block for a constant
    function).

    The maximum itself comes from the enumeration, not from the extreme
    configurations the closed form names, so that ``verify_bounds_exhaustive``
    checks two independent computations of the worst error.
    """
    import numpy as np

    space = partition.space
    integral = f.integral(space)
    atom_values = [f.evaluate(i) for i in range(space.n_atoms)]
    k = len(stream.cells)
    sizes = [math.comb(len(atoms) + count - 1, count)
             for atoms, count in zip(stream.cells, stream.counts)]
    sums = []
    classes = []
    for atoms, count, size in zip(stream.cells, stream.counts, sizes):
        values = [atom_values[a] for a in atoms]
        sums.append(_multiset_sums(values, count))
        if len(set(values)) == len(values):
            # No two atoms share a value, so every multiset is its own
            # class; sorting each multiset's values anyway would put
            # Python work per multiset back into the scorer.
            classes.append(np.arange(size))
        else:
            first_with = {}
            classes.append(np.array([
                first_with.setdefault(tuple(sorted(multiset)), i)
                for i, multiset in enumerate(combinations_with_replacement(values, count))
            ]))
    delta = _rounding_margin(max(abs(v) for v in atom_values), integral, n_points + k + 4)
    head = k
    tail = np.zeros(1)
    while head > 0 and tail.size * sizes[head - 1] <= SCORE_CHUNK:
        head -= 1
        tail = np.add.outer(sums[head], tail).ravel()
    rows = math.prod(sizes[:head])
    rows_per_block = SCORE_CHUNK // tail.size
    top = -math.inf
    worst = -1.0
    argmax = None
    for first in range(0, rows, rows_per_block):
        row = np.arange(first, min(first + rows_per_block, rows))
        head_sums = np.zeros(row.size)
        for j in reversed(range(head)):
            row, index = np.divmod(row, sizes[j])
            head_sums += sums[j][index]
        scores = np.add.outer(head_sums, tail).ravel()
        scores /= n_points
        scores -= integral
        np.abs(scores, out=scores)
        top = max(top, float(scores.max()))
        candidates = np.flatnonzero(scores >= top - 2 * delta) + first * tail.size
        positions = np.unravel_index(candidates, sizes)
        keys = np.ravel_multi_index([c[p] for c, p in zip(classes, positions)], sizes)
        representatives = np.sort(np.unique(keys, return_index=True)[1])
        for position in zip(*(p[representatives].tolist() for p in positions)):
            config = tuple(map(_multiset_at, stream.cells, stream.counts, position))
            err = abs(math.fsum(atom_values[a] for cell in config for a in cell) / n_points
                      - integral)
            if err > worst:
                worst = err
                argmax = config
    return worst, argmax


def worst_uniform_error(f: FunctionModel, partition: Partition) -> float:
    """Closed-form worst |average - integral| over every uniform point set.

    A uniform set puts N * m_j nodes in cell j, each anywhere in the cell
    and independently of the other cells, so the worst set puts every
    node at the essential supremum G_j of its cell or every node at the
    infimum g_j: W = max(sum_j m_j G_j - I, I - sum_j m_j g_j).  Each
    side is summed by fsum as per-cell deviations m_j (G_j - avg_j) and
    m_j (avg_j - g_j), with avg_j the cell's integral over its measure.
    Exact up to rounding for exact ranges on either kind of space.
    """
    return _worst_uniform_error(f, partition, map(f.essential_range, partition.cells))


def _worst_uniform_error(f: FunctionModel, partition: Partition, ranges) -> float:
    """worst_uniform_error from the cells' essential ranges, in cell order."""
    space = partition.space
    up = []
    down = []
    for cell, measure, rng in zip(partition.cells, partition.measures, ranges):
        average = f.cell_integral(cell, space) / measure
        up.append(measure * (rng.hi - average))
        down.append(measure * (average - rng.lo))
    return max(math.fsum(up), math.fsum(down), 0.0)


def _verdict_slack(stream: ConfigurationStream, partition: Partition,
                   f: FunctionModel, ranges) -> float:
    """How far the enumerated worst error may exceed a bound, or differ
    from the closed form, before the verdict fails.

    Each value is within a few roundings of size u(M + |I|) of its exact
    value: the scorer's rescored expression within 3uM + u|I| (an fsum,
    a division and a subtraction), the closed form and the bounds within
    about 8uM + u|I| (a cell integral, a division, a subtraction and a
    product per cell, then one fsum); twice a margin of k + 4 roundings
    covers each pair.  The exact values
    differ as well: the bounds and the closed form weigh cell j by its
    measure m_j and the enumeration by its node share c_j / N, which the
    allocation tolerance lets differ, and that moves the worst error by
    at most sum_j |m_j - c_j / N| max(|g_j|, |G_j|).  VERIFY_SLACK is
    the floor.  The ranges span every atom value, so they give M too.
    """
    extremes = [max(abs(r.lo), abs(r.hi)) for r in ranges]
    margin = _rounding_margin(max(extremes), f.integral(partition.space), len(ranges) + 4)
    n_points = sum(stream.counts)
    shares = math.fsum(abs(m - c / n_points) * extreme
                       for m, c, extreme in zip(partition.measures, stream.counts, extremes))
    return VERIFY_SLACK + 2 * margin + shares


def worst_case_error(space: FiniteSpace, partition: Partition, f: FunctionModel,
                     n_points: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Maximum |average - integral| over every uniform configuration.

    Returns (error, configuration); ties keep the lexicographically
    first configuration, so reruns are reproducible.
    """
    stream = enumerate_uniform(space, partition, n_points, cap)
    return _score_configurations(stream, partition, f, n_points)


def verify_bounds_exhaustive(space: FiniteSpace, partition: Partition,
                             f: FunctionModel, n_points: int,
                             cap: int = DEFAULT_ENUMERATION_CAP,
                             instance_id: str = "") -> VerificationVerdict:
    """Exhaustively compare the worst realized error with all three bounds.

    The verdict also fails when the enumerated worst error and the
    closed form ``worst_uniform_error`` differ, so the scorer and the
    closed form check each other.  Every comparison allows the same
    slack, scaled to the data (``_verdict_slack``).

    tightness is worst_error / corollary2 (how much of the certified
    budget the adversary actually uses).  A budget within the slack is
    treated as the zero budget, since dividing by it only scales rounding
    noise: a worst error inside the slack then uses all of nothing,
    reported as 1.0, and only a genuine violation reports inf.
    """
    stream = enumerate_uniform(space, partition, n_points, cap)
    # one range per cell serves the bounds and the closed form alike
    ranges = [f.essential_range(cell) for cell in partition.cells]
    bounds = _bounds_from_ranges(ranges, partition)
    worst, argmax = _score_configurations(stream, partition, f, n_points)
    slack = _verdict_slack(stream, partition, f, ranges)
    passed = (
        worst <= bounds.corollary2 + slack
        and worst <= bounds.corollary1 + slack
        and worst <= bounds.theorem1 + slack
        and abs(worst - _worst_uniform_error(f, partition, ranges)) <= slack
    )
    if bounds.corollary2 > slack:
        tightness = worst / bounds.corollary2
    else:
        tightness = 1.0 if worst <= slack else math.inf
    descriptor = Instance(instance_id, space, partition, f, n_points)
    return VerificationVerdict(
        instance=descriptor,
        worst_error=worst,
        argmax_configuration=argmax,
        bounds=bounds,
        passed=passed,
        tightness=tightness,
        total_configurations=stream.total_count,
    )


def verify_instance(instance: Instance,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationVerdict:
    if instance.n_points is None:
        raise QmcBoundsError(f"instance {instance.instance_id!r} declares no N")
    return verify_bounds_exhaustive(
        instance.space, instance.partition, instance.function,
        instance.n_points, cap, instance.instance_id,
    )


def minimax_distance_finite(space: FiniteSpace, family, f: FunctionModel) -> MinimaxCertificate:
    """Exact discrete minimax over the span of a family of finite cells.

    ``family`` is any sequence of finite cells; it need not be disjoint
    or covering.  A cell equal to the whole space makes the constant
    term redundant, so the constant column is dropped (reported
    constant 0) rather than rejected.
    """
    from scipy.optimize import linprog

    cells = [c if isinstance(c, FiniteCell) else FiniteCell(tuple(c)) for c in family]
    n = space.n_atoms
    values = [f.evaluate(i) for i in range(n)]
    all_atoms = tuple(range(n))
    degenerate = any(cell.atoms == all_atoms for cell in cells)

    columns: list[list[float]] = []
    if not degenerate:
        columns.append([1.0] * n)
    for cell in cells:
        members = set(cell.atoms)
        columns.append([1.0 if i in members else 0.0 for i in range(n)])

    p = len(columns)
    # variables: p coefficients then t; minimize t subject to
    # +-(f_i - sum_c coef_c col_c[i]) <= t
    c_obj = [0.0] * p + [1.0]
    a_ub = []
    b_ub = []
    for i in range(n):
        row_pos = [columns[c][i] for c in range(p)] + [-1.0]
        a_ub.append(row_pos)
        b_ub.append(values[i])
        row_neg = [-columns[c][i] for c in range(p)] + [-1.0]
        a_ub.append(row_neg)
        b_ub.append(-values[i])
    result = linprog(
        c_obj, A_ub=a_ub, b_ub=b_ub,
        bounds=[(None, None)] * p + [(0.0, None)],
        method="highs",
    )
    if not result.success:
        raise QmcBoundsError(f"minimax LP failed: {result.message}")
    coeffs = [float(c) for c in result.x[:p]]
    if degenerate:
        constant = 0.0
        cell_coeffs = coeffs
    else:
        constant = coeffs[0]
        cell_coeffs = coeffs[1:]
    atom_values = []
    for i in range(n):
        total = constant
        for cell, coef in zip(cells, cell_coeffs):
            if i in cell.atoms:
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
    if parts == 1:
        return [total]
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

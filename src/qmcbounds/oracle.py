"""Ground-truth verification on finite probability spaces.

Every atom of a finite space carries strictly positive weight, so a
uniform configuration of N nodes has product measure at least
(min weight)^N > 0 and there are no nonempty null sets of
configurations.  An essential supremum over the configuration set is
therefore the plain maximum over the finite enumeration; that lemma is
what lets ``worst_case_error`` certify the essential-supremum bounds by
exhaustion, and it is why the exhaustive oracle lives on finite spaces
only.  The cube-space side is covered analytically by the adversarial
placement analysis in the experiments module.

``minimax_distance_finite`` solves the discrete Chebyshev problem

    minimize  max_i |f(x_i) - c_0 - sum_j c_j * 1[x_i in M_j]|

as a linear program (HiGHS).  The returned certificate carries the
coefficients and the max residual they achieve, so its claim can be
rechecked independently; when the family happens to be a partition the
result is cross-checked against the closed form s_value / 2 before it
is returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bounds import BoundSet, bound_set, distance_to_span
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


def _score_configurations(stream: ConfigurationStream, space: FiniteSpace,
                          f: FunctionModel, n_points: int):
    """Worst |average - integral| over a configuration stream, with the
    lexicographically first configuration attaining it."""
    integral = f.integral(space)
    atom_values = [f.evaluate(i) for i in range(space.n_atoms)]
    worst = -1.0
    argmax = None
    for config in stream:
        total = math.fsum(atom_values[a] for cell in config for a in cell)
        err = abs(total / n_points - integral)
        if err > worst:
            worst = err
            argmax = config
    return worst, argmax


def worst_case_error(space: FiniteSpace, partition: Partition, f: FunctionModel,
                     n_points: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Maximum |average - integral| over every uniform configuration.

    Returns (error, configuration); ties keep the lexicographically
    first configuration, so reruns are reproducible.
    """
    stream = enumerate_uniform(space, partition, n_points, cap)
    return _score_configurations(stream, space, f, n_points)


def verify_bounds_exhaustive(space: FiniteSpace, partition: Partition,
                             f: FunctionModel, n_points: int,
                             cap: int = DEFAULT_ENUMERATION_CAP,
                             instance_id: str = "") -> VerificationVerdict:
    """Exhaustively compare the worst realized error with all three bounds.

    tightness is worst_error / corollary2 (how much of the certified
    budget the adversary actually uses).  A zero budget (constant cell
    values) with a worst error inside the verification slack is summation
    noise using all of nothing, reported as 1.0; only a genuine
    violation of a zero budget reports inf.
    """
    stream = enumerate_uniform(space, partition, n_points, cap)
    bounds = bound_set(f, partition)
    worst, argmax = _score_configurations(stream, space, f, n_points)
    passed = (
        worst <= bounds.corollary2 + VERIFY_SLACK
        and worst <= bounds.corollary1 + VERIFY_SLACK
        and worst <= bounds.theorem1 + VERIFY_SLACK
    )
    if bounds.corollary2 > 0.0:
        tightness = worst / bounds.corollary2
    else:
        tightness = 1.0 if worst <= VERIFY_SLACK else math.inf
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
        closed_form = distance_to_span(f, partition)
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

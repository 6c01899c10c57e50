"""Experiment drivers behind the command-line reports.

Three studies, all emitting plain row dictionaries for the report
writers:

- convergence: dyadic refinements of [0,1] with one node per cell,
  bounds next to realized errors and the closed-form worst error over
  every uniform point set.
- perturb: spike overrides fired at a base function; essential bounds
  must not move a bit, a deliberately naive pointwise baseline must blow
  up, and seeded point-set errors must be unchanged.
- verify: the exhaustive finite-space sweep.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .bounds import _bounds_from_table, bound_set, cell_table
from .errors import QmcBoundsError
from .estimator import qmc_estimate
from .funcmodel import Affine, FunctionModel, Quadratic, Sinusoid, _offsets, _shifted
from .instances import Instance, instance_to_json
from .oracle import _worst_uniform_error, verify_instances, worst_uniform_error
from .pointsets import DEFAULT_ENUMERATION_CAP, STRATEGY_RANDOM, construct_uniform
from .spaces import CubeSpace, Partition, equal_partition_1d

MAX_REFINEMENT_DEPTH = 20

# Largest perturb study: as many cells as the deepest refinement, at most
# 2^20 spikes and point sets, and at most MAX_PERTURB_EVALUATIONS point
# evaluations and spike tests in all, about 18 minutes at 0.5 us each;
# past these the study runs out of memory or does not end.
MAX_PERTURB_CELLS = 2 ** MAX_REFINEMENT_DEPTH
MAX_PERTURB_SPIKES = 2 ** 20
MAX_PLACEMENT_SEEDS = 2 ** 20
MAX_PERTURB_EVALUATIONS = 2 ** 31

NAMED_FUNCTIONS = ("x", "x2", "sin2pix", "const")

# Grid intervals per cell sampled by naive_pointwise_s.
NAIVE_RESOLUTION = 512


def named_function(name: str) -> FunctionModel:
    """Small roster of 1D study functions addressable from the CLI."""
    if name == "x":
        return FunctionModel(Affine(0.0, (1.0,)))
    if name == "x2":
        return FunctionModel(Quadratic(0.0, (0.0,), (1.0,)))
    if name == "sin2pix":
        return FunctionModel(Sinusoid(amplitude=1.0, frequency=1.0))
    if name == "const":
        return FunctionModel(Affine(1.0, (0.0,)))
    raise QmcBoundsError(f"unknown function name {name!r}, expected one of {NAMED_FUNCTIONS}")


def _require_study_function(f: FunctionModel) -> None:
    if f.is_finite or f.dimension != 1:
        raise QmcBoundsError("refinement studies need a one-dimensional cube function")
    if f.range_mode is not None:
        raise QmcBoundsError("refinement studies need the exact range oracle")


# Kept only because bench/tracer.py's TRACED still looks this name up and
# CI runs the traced benchmark; nothing else may call it.  It goes
# together with that entry.
edge_placement_worst_error = worst_uniform_error


def convergence_table(f: FunctionModel, depth: int, strategy: str,
                      seed: int = 0) -> list[dict]:
    """Rows (k, bounds, realized error, adversarial error) for k = 2^m.

    The adversarial error is ``worst_uniform_error``: the worst error
    over every uniform point set, in closed form.
    """
    _require_study_function(f)
    if not 1 <= depth <= MAX_REFINEMENT_DEPTH:
        raise QmcBoundsError(f"depth must be in 1..{MAX_REFINEMENT_DEPTH}, got {depth}")
    rows = []
    spike_points = [p for p, _ in f.spikes]
    for m in range(1, depth + 1):
        k = 2 ** m
        partition = equal_partition_1d(k)
        # one range per cell serves the bounds and the adversary; the table
        # and the integrals are dropped before the point set is built, to
        # keep peak memory down
        table = cell_table(f, partition)
        integrals = f.cell_integrals(partition)
        bounds = _bounds_from_table(table)
        adversarial = _worst_uniform_error(table, integrals)
        del table, integrals
        pointset = construct_uniform(
            partition, k, strategy, seed=seed, avoid_points=spike_points
        )
        # the study function is a one-dimensional cube model, so the
        # nodes built on [0, 1] are in its normal form
        realized = abs(qmc_estimate(f, pointset, normal=True) - f.integral(partition.space))
        rows.append({
            "k": k,
            "corollary2": bounds.corollary2,
            "corollary1": bounds.corollary1,
            "theorem1": bounds.theorem1,
            "realized_error": realized,
            "adversarial_error": adversarial,
        })
    return rows


def naive_pointwise_s(f: FunctionModel, partition: Partition) -> float:
    """Deliberately wrong baseline: the worst-cell POINTWISE oscillation.

    Samples NAIVE_RESOLUTION + 1 grid points per cell, as grid range
    mode samples an axis (``axis_samples``' bits, with one offset column
    per cell width, which cells of equal width share), and, unlike the
    essential machinery, includes the spike coordinates, so a single
    spike inflates it.  This is the foil the perturbation study reports
    against the certified bounds; it certifies nothing.
    """
    space = partition.space
    if not isinstance(space, CubeSpace) or space.dimension != 1:
        raise QmcBoundsError("the naive baseline study is one-dimensional")
    f._require_on(space)  # so grid points of [0, 1] and the spikes are normal points
    worst = 0.0
    spikes = [p[0] for p, _ in f.spikes]
    evaluate = f.evaluate
    (lowers,), (uppers,) = partition.edges
    columns = {}  # offset column by cell width, kept for this call only
    for lo, hi in zip(lowers, uppers):
        width = hi - lo
        column = columns.get(width) or columns.setdefault(width, _offsets(width, NAIVE_RESOLUTION))
        ts = _shifted(column, lo, hi)
        # the spikes the cell holds: half-open, closed at 1.0
        ts.extend(t for t in spikes if lo <= t and (t < hi or t == hi == 1.0))
        values = [evaluate(point, normal=True) for point in zip(ts)]  # the points (t,)
        worst = max(worst, max(values) - min(values))
    return worst


def perturb_table(f_base: FunctionModel, k: int, n_spikes: int, seed: int = 0,
                  magnitude: float | None = None,
                  placement_seeds: int = 1000) -> tuple[list[dict], dict]:
    """Spike-robustness rows plus a summary.

    Spikes land at seeded-random coordinates with magnitudes drawn
    log-uniformly from [1e3, 1e6] unless one is pinned.  Point sets are
    constructed once per seed with the spike coordinates vetoed, so the
    before/after realized errors compare the same nodes.
    """
    _require_study_function(f_base)
    if f_base.spikes:
        raise QmcBoundsError("the perturbation study adds its own spikes")
    for name, size, least, most in (("k", k, 1, MAX_PERTURB_CELLS),
                                    ("n_spikes", n_spikes, 0, MAX_PERTURB_SPIKES),
                                    ("placement_seeds", placement_seeds, 0,
                                     MAX_PLACEMENT_SEEDS)):
        if not least <= size <= most:
            raise QmcBoundsError(f"{name} must be in {least}..{most}, got {size}")
    # the naive baseline evaluates both functions at NAIVE_RESOLUTION + 1
    # points per cell and tests every spike against every cell, and each
    # point set is evaluated by both
    evaluations = k * (2 * (NAIVE_RESOLUTION + 1 + placement_seeds) + n_spikes)
    if evaluations > MAX_PERTURB_EVALUATIONS:
        raise QmcBoundsError(
            f"{k} cells, {n_spikes} spikes and {placement_seeds} placement seeds take "
            f"{evaluations} point evaluations, more than the limit of "
            f"{MAX_PERTURB_EVALUATIONS}")
    partition = equal_partition_1d(k)
    space = partition.space
    rng = random.Random(seed)
    spikes = []
    for _ in range(n_spikes):
        point = (rng.uniform(0.0, 1.0),)
        value = magnitude if magnitude is not None else 10.0 ** rng.uniform(3.0, 6.0)
        spikes.append((point, value))
    f_spiked = FunctionModel(f_base.base, tuple(spikes), f_base.range_mode)
    spike_points = [p for p, _ in spikes]

    before = bound_set(f_base, partition)
    after = bound_set(f_spiked, partition)
    rows = []
    for name, b, a in (
        ("theorem1", before.theorem1, after.theorem1),
        ("corollary1", before.corollary1, after.corollary1),
        ("corollary2", before.corollary2, after.corollary2),
    ):
        rows.append({
            "metric": name, "seed": "", "before": b, "after": a,
            "identical": b == a,
        })
    naive_before = naive_pointwise_s(f_base, partition)
    naive_after = naive_pointwise_s(f_spiked, partition)
    rows.append({
        "metric": "naive_pointwise_s", "seed": "",
        "before": naive_before, "after": naive_after,
        "identical": naive_before == naive_after,
    })
    identical_errors = 0
    integral_before = f_base.integral(space)
    integral_after = f_spiked.integral(space)
    for i in range(placement_seeds):
        pointset = construct_uniform(
            partition, k, STRATEGY_RANDOM,
            seed=seed + 1 + i, avoid_points=spike_points,
        )
        # both models are on [0, 1], where the nodes were built
        err_before = abs(qmc_estimate(f_base, pointset, normal=True) - integral_before)
        err_after = abs(qmc_estimate(f_spiked, pointset, normal=True) - integral_after)
        same = err_before == err_after
        identical_errors += same
        rows.append({
            "metric": "realized_error", "seed": seed + 1 + i,
            "before": err_before, "after": err_after, "identical": same,
        })
    blowup = naive_after / naive_before if naive_before > 0 else math.inf
    summary = {
        "bounds_identical": all(
            r["identical"] for r in rows
            if r["metric"] in ("theorem1", "corollary1", "corollary2")
        ),
        "naive_before": naive_before,
        "naive_after": naive_after,
        "naive_blowup": blowup if math.isfinite(blowup) else None,  # null, not Infinity
        "placement_seeds": placement_seeds,
        "identical_errors": identical_errors,
        "spikes": n_spikes,
    }
    return rows, summary


def run_verification(instances: Sequence[Instance],
                     cap: int = DEFAULT_ENUMERATION_CAP):
    """Verify instances in declared order and build the summary record.

    Returns (verdicts, summary, None); the constant third slot keeps
    callers that unpack three values working.
    """
    verdicts = verify_instances(instances, cap)
    passed = sum(1 for v in verdicts if v.passed)
    failed = len(verdicts) - passed
    # the first verdict of greatest tightness
    worst = max(verdicts, key=lambda v: v.tightness, default=None)
    summary = {
        "instances": len(verdicts),
        "passed": passed,
        "failed": failed,
        "max_tightness": worst.tightness if worst is not None else None,
        "worst_instance": instance_to_json(worst.instance) if worst is not None else None,
    }
    return verdicts, summary, None

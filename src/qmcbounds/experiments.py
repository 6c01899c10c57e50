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

from .bounds import _bounds_from_ranges, bound_set
from .errors import QmcBoundsError
from .estimator import integration_error
from .funcmodel import Affine, FunctionModel, Quadratic, Sinusoid
from .instances import Instance, instance_to_json
from .oracle import _worst_uniform_error, verify_instance, worst_uniform_error
from .pointsets import DEFAULT_ENUMERATION_CAP, STRATEGY_RANDOM, construct_uniform
from .spaces import CubeSpace, Partition, equal_partition_1d

MAX_REFINEMENT_DEPTH = 20

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
        # one range per cell serves the bounds and the adversary; the list
        # is dropped before the point set is built, to keep peak memory down
        ranges = [f.essential_range(cell) for cell in partition.cells]
        bounds = _bounds_from_ranges(ranges, partition)
        adversarial = _worst_uniform_error(f, partition, ranges)
        del ranges
        pointset = construct_uniform(
            partition, k, strategy, seed=seed, avoid_points=spike_points
        )
        realized = integration_error(f, pointset, partition.space)
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

    Samples NAIVE_RESOLUTION + 1 grid points per cell and, unlike the
    essential machinery, includes the spike coordinates, so a single
    spike inflates it.  This is the foil the perturbation study reports
    against the certified bounds; it certifies nothing.
    """
    space = partition.space
    if not isinstance(space, CubeSpace) or space.dimension != 1:
        raise QmcBoundsError("the naive baseline study is one-dimensional")
    worst = 0.0
    for cell in partition.cells:
        lo, hi = cell.lower[0], cell.upper[0]
        step = (hi - lo) / NAIVE_RESOLUTION
        ts = [lo + i * step for i in range(NAIVE_RESOLUTION)] + [hi]
        ts.extend(p[0] for p, _ in f.spikes if cell.contains(p))
        values = [f.evaluate((t,)) for t in ts]
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
    for i in range(placement_seeds):
        pointset = construct_uniform(
            partition, k, STRATEGY_RANDOM,
            seed=seed + 1 + i, avoid_points=spike_points,
        )
        err_before = integration_error(f_base, pointset, space)
        err_after = integration_error(f_spiked, pointset, space)
        same = err_before == err_after
        identical_errors += same
        rows.append({
            "metric": "realized_error", "seed": seed + 1 + i,
            "before": err_before, "after": err_after, "identical": same,
        })
    summary = {
        "bounds_identical": all(
            r["identical"] for r in rows
            if r["metric"] in ("theorem1", "corollary1", "corollary2")
        ),
        "naive_before": naive_before,
        "naive_after": naive_after,
        "naive_blowup": naive_after / naive_before if naive_before > 0 else math.inf,
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
    verdicts = [verify_instance(inst, cap) for inst in instances]
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

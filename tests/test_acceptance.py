"""Acceptance gate: seven end-to-end soundness and exactness criteria.

Each test prints one PASS/FAIL line so the gate can be read off the
terminal directly.  The criteria:

  A1  exhaustive sweep over the built-in suite, every bound honored
  A2  piecewise-constant functions are integrated exactly (<= 1e-14)
  A3  spike overrides move neither bounds nor realized errors (bitwise)
  A4  f(x)=x on k equal cells: every bound 1/k, worst placement 1/(2k)
  A5  bounds are non-increasing under dyadic refinement
  A6  LP minimax agrees with the closed form on partitions and its
      certificates stand alone on arbitrary families
  A7  configuration counts match the multichoose product formula
"""

import math
import random
import time
from functools import lru_cache

from qmcbounds import (
    FiniteCell,
    FunctionModel,
    PiecewiseConstant,
    allocation,
    bound_set,
    construct_uniform,
    enumerate_uniform,
    equal_partition_1d,
    interval,
    make_partition,
    minimax_distance_finite,
    qmc_estimate,
    random_instance,
    small_exhaustive_suite,
    verify_instances,
    worst_uniform_error,
)
from qmcbounds.experiments import named_function
from qmcbounds.pointsets import STRATEGY_RANDOM

CHAIN_TOL = 1e-9
EXACT_TOL = 1e-14
ANALYTIC_TOL = 1e-12
MINIMAX_TOL = 1e-9


@lru_cache(maxsize=1)
def acceptance_suite():
    return small_exhaustive_suite()


def conclude(capsys, label, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"{label}: {status}")
    assert not failures, f"{label}: {failures[:5]}"


def test_a1_exhaustive_suite_sound(capsys):
    started = time.perf_counter()
    suite = acceptance_suite()
    failures = []
    if len(suite) < 500:
        failures.append(f"suite holds {len(suite)} instances, need >= 500")
    for inst in suite:
        verdict = verify_instances([inst])[0]
        b = verdict.bounds
        if not verdict.passed:
            failures.append(f"{inst.instance_id}: worst {verdict.worst_error} "
                            f"exceeds a bound {b}")
        if not (b.corollary2 <= b.corollary1 + CHAIN_TOL):
            failures.append(f"{inst.instance_id}: chain broken {b}")
        if abs(b.corollary1 - b.theorem1) > CHAIN_TOL:
            failures.append(f"{inst.instance_id}: corollary1 != theorem1 {b}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget is 60s")
    conclude(capsys,
             f"A1 exhaustive sweep, {len(suite)} instances in {elapsed:.1f}s",
             failures)


def test_a2_piecewise_constant_integrated_exactly(capsys):
    rng = random.Random(2025)
    failures = []
    worst = 0.0
    for trial in range(100):
        n_points = rng.choice((4, 8, 16))
        k = rng.randint(1, min(10, n_points))
        if k == 1:
            edges = [0.0, 1.0]
        else:
            cuts = sorted(rng.sample(range(1, n_points), k - 1))
            edges = [0.0] + [c / n_points for c in cuts] + [1.0]
        partition = make_partition(
            equal_partition_1d(1).space,
            [interval(edges[i], edges[i + 1]) for i in range(k)],
        )
        values = tuple(rng.uniform(-5.0, 5.0) for _ in range(k))
        f = FunctionModel(PiecewiseConstant(partition, values))
        pointset = construct_uniform(partition, n_points, STRATEGY_RANDOM,
                                     seed=trial)
        gap = abs(qmc_estimate(f, pointset) - f.integral(partition.space))
        worst = max(worst, gap)
        if gap > EXACT_TOL:
            failures.append(f"trial {trial}: |estimate - integral| = {gap}")
    conclude(capsys,
             f"A2 piecewise-constant exactness, max gap {worst:.3e}",
             failures)


def test_a3_spikes_move_nothing(capsys):
    partition = equal_partition_1d(8)
    space = partition.space
    f_base = named_function("x2")
    clean = bound_set(f_base, partition)
    failures = []
    for seed in range(1000):
        rng = random.Random(seed)
        spikes = tuple(
            ((rng.uniform(0.0, 1.0),), 10.0 ** rng.uniform(3.0, 6.0))
            for _ in range(rng.randint(1, 5))
        )
        f_spiked = FunctionModel(f_base.base, spikes)
        if bound_set(f_spiked, partition) != clean:
            failures.append(f"seed {seed}: bounds moved")
            continue
        pointset = construct_uniform(
            partition, 8, STRATEGY_RANDOM, seed=seed,
            avoid_points=[p for p, _ in spikes],
        )
        before = abs(qmc_estimate(f_base, pointset) - f_base.integral(space))
        after = abs(qmc_estimate(f_spiked, pointset) - f_spiked.integral(space))
        if before != after:
            failures.append(f"seed {seed}: error moved {before!r} -> {after!r}")
    conclude(capsys, "A3 spike invariance, 1000 spike sets", failures)


def test_a4_identity_function_closed_forms(capsys):
    f = named_function("x")
    failures = []
    for m in range(1, 11):
        k = 2 ** m
        partition = equal_partition_1d(k)
        b = bound_set(f, partition)
        target = 1.0 / k
        for name, value in (("theorem1", b.theorem1),
                            ("corollary1", b.corollary1),
                            ("corollary2", b.corollary2)):
            if abs(value - target) > ANALYTIC_TOL:
                failures.append(f"k={k}: {name} = {value!r}, want {target!r}")
        adversarial = worst_uniform_error(f, partition)
        if abs(adversarial - 1.0 / (2 * k)) > ANALYTIC_TOL:
            failures.append(f"k={k}: adversarial {adversarial!r}")
    conclude(capsys, "A4 identity closed forms, k = 2..1024", failures)


def test_a5_bounds_non_increasing_under_refinement(capsys):
    failures = []
    for name in ("x", "x2", "sin2pix"):
        f = named_function(name)
        previous = None
        for m in range(1, 11):
            b = bound_set(f, equal_partition_1d(2 ** m))
            current = (b.theorem1, b.corollary1, b.corollary2)
            if previous is not None:
                for label, now, then in zip(
                        ("theorem1", "corollary1", "corollary2"),
                        current, previous):
                    if now > then + ANALYTIC_TOL:
                        failures.append(
                            f"{name} k={2 ** m}: {label} rose {then!r} -> {now!r}"
                        )
            previous = current
    conclude(capsys, "A5 monotone refinement, 3 families x 10 depths", failures)


def test_a6_minimax_certificates(capsys):
    failures = []
    for seed in range(100):
        inst = random_instance(seed)
        cert = minimax_distance_finite(
            inst.space, list(inst.partition.cells), inst.function
        )
        closed = bound_set(inst.function, inst.partition).distance
        if abs(cert.value - closed) > MINIMAX_TOL:
            failures.append(f"seed {seed}: LP {cert.value!r} vs closed {closed!r}")
    checked = 0
    for seed in range(40):
        if checked >= 12:
            break
        rng = random.Random(10_000 + seed)
        inst = random_instance(5000 + seed)
        space = inst.space
        n = space.n_atoms
        family = [
            FiniteCell(tuple(sorted(rng.sample(range(n), rng.randint(1, n)))))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            make_partition(space, family)
            continue  # partitions are covered above; keep only irregular families
        except Exception:
            pass
        cert = minimax_distance_finite(space, family, inst.function)
        achieved = max(
            abs(inst.function.evaluate(i) - (
                cert.constant + math.fsum(
                    c for cell, c in zip(family, cert.cell_coefficients)
                    if i in cell.atoms
                )
            ))
            for i in range(n)
        )
        if abs(achieved - cert.value) > MINIMAX_TOL:
            failures.append(f"seed {seed}: claims {cert.value!r}, "
                            f"re-derived {achieved!r}")
        checked += 1
    if checked < 10:
        failures.append(f"only {checked} non-partition families exercised")
    conclude(capsys,
             f"A6 minimax certificates, 100 partitions + {checked} families",
             failures)


def test_a7_enumeration_counts(capsys):
    failures = []
    total = 0
    for inst in acceptance_suite():
        counts = allocation(inst.partition, inst.n_points)
        expected = 1
        for cell, count in zip(inst.partition.cells, counts):
            expected *= math.comb(len(cell.atoms) + count - 1, count)
        stream = enumerate_uniform(inst.partition, inst.n_points)
        walked = sum(1 for _ in stream)
        total += walked
        if stream.total_count != expected or walked != expected:
            failures.append(
                f"{inst.instance_id}: formula {expected}, "
                f"declared {stream.total_count}, walked {walked}"
            )
    conclude(capsys,
             f"A7 enumeration counts, {total} configurations walked",
             failures)

"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one pass
through the same public functions the CLI calls (``run``), checks the
pass's outputs (``check``), and states its exact per-pass work counts
(``counters``), computed from the inputs rather than observed, so they
repeat bit for bit.  ``parity`` names the CLI command whose report must
equal the pass's in-process report byte for byte.

Work counters shared by every workload (per pass):

- ``cells``: essential ranges computed, i.e. cells bounded.
- ``nodes``: node values summed into a point-set average.
- ``configs``: uniform point sets (configurations) scored, whether
  constructed, prebuilt or enumerated.
- ``evals``: function evaluations, ``node_evals`` (calls of
  ``FunctionModel.evaluate``) plus ``grid_samples`` (base evaluations
  made by grid range mode, cells x (intervals + 1)^d).
- ``cells_validated``: cells passed to ``make_partition``.
- ``nodes_checked``: nodes located by the uniformity check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qmcbounds import (
    bounds,
    errors,
    estimator,
    experiments,
    funcmodel,
    instances,
    oracle,
    pointsets,
    reports,
    spaces,
)

REL_TOL = 1e-12


class Checks:
    """Counts output checks; every failed one keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def configuration_count(partition, n_points: int) -> int:
    """Uniform configurations of a finite instance: a multichoose product."""
    total = 1
    for cell, measure in zip(partition.cells, partition.measures):
        count = round(n_points * measure)
        total *= math.comb(len(cell.atoms) + count - 1, count)
    return total


@dataclass(frozen=True)
class Parity:
    """One CLI invocation whose report must equal ``expected`` bytes.

    ``files`` maps a file name to a writer called with its path before
    the command runs; when ``out_file`` is set the report is read from
    that file, otherwise from standard output.
    """

    name: str
    args: tuple[str, ...]
    expected: str
    files: tuple[tuple[str, Callable[[Path], None]], ...] = ()
    out_file: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict, Checks], None]
    counters: Callable[[dict], dict]
    parity: Callable[[dict, dict], list]
    once: Callable[[dict, Checks], None] = lambda inputs, checks: None
    uses_scipy: bool = False


def _counters(cells=0, nodes=0, configs=0, node_evals=0, grid_samples=0,
              cells_validated=0, nodes_checked=0, configurations=0) -> dict:
    return {
        "cells": cells,
        "nodes": nodes,
        "configs": configs,
        "node_evals": node_evals,
        "grid_samples": grid_samples,
        "evals": node_evals + grid_samples,
        "cells_validated": cells_validated,
        "nodes_checked": nodes_checked,
        "configurations": configurations,
    }


# --- cube-refine: build many partitions, use each once ---------------------

REFINE_FAMILY = "x2"
REFINE_DEPTH = 10


def refine_setup(seed: int) -> dict:
    return {
        "seed": seed,
        "f": experiments.named_function(REFINE_FAMILY),
        "depth": REFINE_DEPTH,
    }


def refine_run(inputs: dict) -> dict:
    rows = experiments.convergence_table(
        inputs["f"], inputs["depth"], pointsets.STRATEGY_RANDOM, inputs["seed"]
    )
    return {"rows": rows, "report": reports.render_csv(rows, reports.CONVERGENCE_COLUMNS)}


def refine_check(inputs: dict, out: dict, checks: Checks) -> None:
    rows = out["rows"]
    checks.require(len(rows) == inputs["depth"], f"{len(rows)} convergence rows")
    for row in rows:
        k = row["k"]
        h = 1.0 / k
        tag = f"k={k}"
        checks.require(row["realized_error"] <= row["corollary2"],
                       f"{tag}: realized error above corollary2")
        checks.require(row["corollary2"] <= row["corollary1"],
                       f"{tag}: corollary2 above corollary1")
        checks.require(row["corollary1"] == row["theorem1"],
                       f"{tag}: corollary1 != theorem1")
        checks.require(close(row["corollary2"], h), f"{tag}: corollary2 != 1/k")
        checks.require(close(row["corollary1"], 2.0 * h - h * h),
                       f"{tag}: corollary1 != 2h - h^2")


def refine_counters(inputs: dict) -> dict:
    cells = 2 ** (inputs["depth"] + 1) - 2
    return _counters(cells=cells, nodes=cells, configs=inputs["depth"],
                     node_evals=cells, cells_validated=cells)


def refine_parity(inputs: dict, out: dict) -> list:
    return [Parity(
        "convergence",
        ("convergence", "--family", REFINE_FAMILY, "--depth", str(inputs["depth"]),
         "--strategy", pointsets.STRATEGY_RANDOM, "--seed", str(inputs["seed"])),
        out["report"],
    )]


# --- cube-score: build once, look up many times ---------------------------

SCORE_CELLS_1D = 1024
SCORE_GRID_2D = 32
SCORE_POINTS = 4096
SCORE_SPIKES = 3


def _spiked_quadratic(rng: random.Random, linear, quadratic) -> funcmodel.FunctionModel:
    d = len(linear)
    spikes = tuple(
        (tuple(rng.uniform(0.0, 1.0) for _ in range(d)), 10.0 ** rng.uniform(3.0, 6.0))
        for _ in range(SCORE_SPIKES)
    )
    base = funcmodel.Quadratic(rng.uniform(-1.0, 1.0), tuple(linear), tuple(quadratic))
    return funcmodel.FunctionModel(base, spikes)


def grid_partition_2d(n: int):
    cells = [
        spaces.box((i / n, (i + 1) / n), (j / n, (j + 1) / n))
        for i in range(n) for j in range(n)
    ]
    return spaces.make_partition(spaces.make_cube_space(2), cells)


def score_setup(seed: int) -> dict:
    rng = random.Random(seed)
    linear = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    quadratic = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    sets = []
    for tag, partition, f in (
        ("1d", spaces.equal_partition_1d(SCORE_CELLS_1D),
         _spiked_quadratic(rng, linear[:1], quadratic[:1])),
        ("2d", grid_partition_2d(SCORE_GRID_2D),
         _spiked_quadratic(rng, linear, quadratic)),
    ):
        nodes = pointsets.construct_uniform(
            partition, SCORE_POINTS, pointsets.STRATEGY_RANDOM,
            seed=rng.randrange(2 ** 31), avoid_points=[p for p, _ in f.spikes],
        )
        sets.append({"id": f"cube-score-{tag}", "partition": partition, "f": f,
                     "nodes": nodes})
    return {"seed": seed, "sets": sets}


def score_run(inputs: dict) -> dict:
    rows = []
    reports_out = []
    for s in inputs["sets"]:
        rep = estimator.bound_report(s["f"], s["partition"], s["nodes"], s["id"])
        reports_out.append(rep)
        rows.append(reports.report_row(rep, s["partition"].k))
    return {"reports": reports_out, "rows": rows,
            "report": reports.render_csv(rows, reports.REPORT_COLUMNS)}


def score_check(inputs: dict, out: dict, checks: Checks) -> None:
    for s, rep in zip(inputs["sets"], out["reports"]):
        checks.require(rep.n_points == SCORE_POINTS, f"{s['id']}: wrong N")
        checks.require(rep.bounds.exact, f"{s['id']}: bounds not exact")
        checks.require(rep.error <= rep.bounds.corollary2,
                       f"{s['id']}: error above corollary2")


def score_once(inputs: dict, checks: Checks) -> None:
    """The rejection path: one node moved to the neighbouring cell."""
    s = inputs["sets"][-1]
    partition = s["partition"]
    nodes = list(s["nodes"].nodes)
    neighbour = partition.cells[SCORE_GRID_2D]  # next cell along axis 0
    nodes[0] = tuple((lo + hi) / 2.0 for lo, hi in zip(neighbour.lower, neighbour.upper))
    try:
        estimator.bound_report(s["f"], partition, tuple(nodes), s["id"])
        rejected = False
    except errors.NotUniformError:
        rejected = True
    checks.require(rejected, f"{s['id']}: moved node was not rejected")


def score_counters(inputs: dict) -> dict:
    cells = sum(s["partition"].k for s in inputs["sets"])
    nodes = SCORE_POINTS * len(inputs["sets"])
    return _counters(cells=cells, nodes=nodes, configs=len(inputs["sets"]),
                     node_evals=nodes, nodes_checked=nodes)


def score_parity(inputs: dict, out: dict) -> list:
    commands = []
    for s, row in zip(inputs["sets"], out["rows"]):
        partition = s["partition"]
        instance = instances.Instance(s["id"], partition.space, partition, s["f"])
        commands.append(Parity(
            f"bounds-{s['id']}",
            ("bounds", "--config", "instance.json", "--points", "nodes.txt"),
            reports.render_csv([row], reports.REPORT_COLUMNS),
            files=(
                ("instance.json",
                 lambda path, i=instance: instances.save_instances(path, [i])),
                ("nodes.txt",
                 lambda path, s=s: pointsets.save_pointset(path, s["nodes"], s["partition"])),
            ),
        ))
    return commands


# --- finite-exhaustive: enumeration and the exact oracle -------------------

NEAR_CAP_CELLS = 4
NEAR_CAP_ATOMS_PER_CELL = 4
NEAR_CAP_POINTS = 16
NEAR_CAP_WEIGHT_UNIT = 64
MINIMAX_ATOMS = 64
MINIMAX_CELLS = 24


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    # A copy of the oracle's private helper, so that a later change to the
    # library cannot change the benchmark's inputs for a given seed.
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def near_cap_instance(rng: random.Random) -> instances.Instance:
    """16 atoms in 4 cells of 4, each cell of mass 1/4, N = 16."""
    units_per_cell = NEAR_CAP_WEIGHT_UNIT // NEAR_CAP_CELLS
    weights = []
    for _ in range(NEAR_CAP_CELLS):
        weights += [u / NEAR_CAP_WEIGHT_UNIT
                    for u in _composition(rng, units_per_cell, NEAR_CAP_ATOMS_PER_CELL)]
    labels = [f"a{i}" for i in range(len(weights))]
    space = spaces.make_finite_space(list(zip(labels, weights)))
    cells = [
        spaces.FiniteCell(tuple(range(j * NEAR_CAP_ATOMS_PER_CELL,
                                      (j + 1) * NEAR_CAP_ATOMS_PER_CELL)))
        for j in range(NEAR_CAP_CELLS)
    ]
    partition = spaces.make_partition(space, cells)
    values = tuple(rng.uniform(-1.0, 1.0) for _ in labels)
    f = funcmodel.FunctionModel(funcmodel.FiniteTable(values, space.labels))
    return instances.Instance("near-cap", space, partition, f, NEAR_CAP_POINTS)


def finite_setup(seed: int) -> dict:
    rng = random.Random(seed)
    suite = oracle.small_exhaustive_suite(seed_offset=seed)
    near = near_cap_instance(rng)
    labels = [f"m{i}" for i in range(MINIMAX_ATOMS)]
    weights = [u / (4 * MINIMAX_ATOMS)
               for u in _composition(rng, 4 * MINIMAX_ATOMS, MINIMAX_ATOMS)]
    mm_space = spaces.make_finite_space(list(zip(labels, weights)))
    family = [
        spaces.FiniteCell(tuple(rng.sample(range(MINIMAX_ATOMS), rng.randint(4, 16))))
        for _ in range(MINIMAX_CELLS)
    ]
    mm_f = funcmodel.FunctionModel(funcmodel.FiniteTable(
        tuple(rng.uniform(-1.0, 1.0) for _ in labels), mm_space.labels))
    return {
        "seed": seed,
        "suite": suite,
        "suite_configs": [configuration_count(i.partition, i.n_points) for i in suite],
        "near": near,
        "near_configs": configuration_count(near.partition, near.n_points),
        "mm_space": mm_space,
        "mm_family": family,
        "mm_f": mm_f,
    }


def finite_run(inputs: dict) -> dict:
    verdicts, summary, _ = experiments.run_verification(inputs["suite"])
    rows = [reports.verdict_row(v) for v in verdicts]
    near = inputs["near"]
    near_verdict = oracle.verify_bounds_exhaustive(
        near.space, near.partition, near.function, near.n_points,
        instance_id=near.instance_id,
    )
    certificate = oracle.minimax_distance_finite(
        inputs["mm_space"], inputs["mm_family"], inputs["mm_f"]
    )
    return {
        "verdicts": verdicts,
        "summary": summary,
        "near": near_verdict,
        "certificate": certificate,
        "report": reports.render_csv(rows, reports.VERDICT_COLUMNS),
    }


def closed_form_worst(instance: instances.Instance) -> float:
    """W = max(sum m_j G_j - I, I - sum m_j g_j) from the atom values."""
    space, partition = instance.space, instance.partition
    values = instance.function.base.values
    integral = math.fsum(w * v for w, v in zip(space.weights, values))
    high = math.fsum(m * max(values[a] for a in c.atoms)
                     for c, m in zip(partition.cells, partition.measures))
    low = math.fsum(m * min(values[a] for a in c.atoms)
                    for c, m in zip(partition.cells, partition.measures))
    return max(high - integral, integral - low)


def finite_check(inputs: dict, out: dict, checks: Checks) -> None:
    verdicts = out["verdicts"]
    checks.require(len(verdicts) == len(inputs["suite"]), "verdict count")
    for v, want in zip(verdicts, inputs["suite_configs"]):
        tag = v.instance.instance_id
        checks.require(v.passed, f"{tag}: verdict failed")
        checks.require(v.total_configurations == want, f"{tag}: configuration count")
    checks.require(out["summary"]["failed"] == 0, "suite summary reports failures")
    near = out["near"]
    checks.require(near.passed, "near-cap: verdict failed")
    checks.require(near.total_configurations == inputs["near_configs"],
                   "near-cap: configuration count")
    checks.require(abs(near.worst_error - closed_form_worst(inputs["near"])) <= REL_TOL,
                   "near-cap: worst error differs from the closed form W")
    cert = out["certificate"]
    values = inputs["mm_f"].base.values
    achieved = 0.0
    for i, v in enumerate(values):
        fitted = cert.constant + math.fsum(
            c for cell, c in zip(inputs["mm_family"], cert.cell_coefficients)
            if i in cell.atoms
        )
        achieved = max(achieved, abs(v - fitted))
    checks.require(abs(achieved - cert.value) <= 1e-9,
                   "minimax: certificate does not achieve its value")
    checks.require(0.0 <= cert.value <= (max(values) - min(values)) / 2.0 + REL_TOL,
                   "minimax: value above the constant competitor")


def finite_counters(inputs: dict) -> dict:
    suite = inputs["suite"]
    configurations = sum(inputs["suite_configs"]) + inputs["near_configs"]
    nodes = (sum(c * i.n_points for c, i in zip(inputs["suite_configs"], suite))
             + inputs["near_configs"] * inputs["near"].n_points)
    atoms = sum(i.space.n_atoms for i in suite) + inputs["near"].space.n_atoms
    return _counters(
        cells=sum(i.partition.k for i in suite) + inputs["near"].partition.k,
        nodes=nodes,
        configs=configurations,
        node_evals=atoms + MINIMAX_ATOMS,
        cells_validated=MINIMAX_CELLS,
        configurations=configurations,
    )


def finite_parity(inputs: dict, out: dict) -> list:
    return [Parity(
        "verify-small-exhaustive",
        ("verify", "--suite", "small-exhaustive", "--seed", str(inputs["seed"]),
         "--out", "verdicts.csv"),
        out["report"],
        out_file="verdicts.csv",
    )]


# --- spike-perturb: per-node evaluation and grid ranges --------------------

PERTURB_FAMILY = "x"
PERTURB_CELLS = 64
PERTURB_SPIKES = 5
PERTURB_SEEDS = 1000
PERTURB_RESOLUTION = 512  # naive_pointwise_s default
GRID_CELLS = 16
GRID_MODE = funcmodel.GridRangeMode(8, 2)


def perturb_setup(seed: int) -> dict:
    rng = random.Random(seed)
    base = funcmodel.Quadratic(
        rng.uniform(-1.0, 1.0),
        tuple(rng.uniform(-1.0, 1.0) for _ in range(2)),
        tuple(rng.uniform(-1.0, 1.0) for _ in range(2)),
    )
    return {
        "seed": seed,
        "f": experiments.named_function(PERTURB_FAMILY),
        "grid_partition": grid_partition_2d(GRID_CELLS),
        "grid_f": funcmodel.FunctionModel(base, (), GRID_MODE),
        "exact_f": funcmodel.FunctionModel(base),
    }


def perturb_run(inputs: dict) -> dict:
    rows, summary = experiments.perturb_table(
        inputs["f"], PERTURB_CELLS, PERTURB_SPIKES, seed=inputs["seed"],
        placement_seeds=PERTURB_SEEDS,
    )
    grid = bounds.bound_set(inputs["grid_f"], inputs["grid_partition"])
    exact = bounds.bound_set(inputs["exact_f"], inputs["grid_partition"])
    return {"summary": summary, "grid": grid, "exact": exact,
            "report": reports.render_csv(rows, reports.PERTURB_COLUMNS)}


def perturb_check(inputs: dict, out: dict, checks: Checks) -> None:
    summary = out["summary"]
    checks.require(summary["bounds_identical"], "spikes moved a bound")
    checks.require(summary["identical_errors"] == PERTURB_SEEDS,
                   f"{summary['identical_errors']} of {PERTURB_SEEDS} errors unchanged")
    grid, exact = out["grid"], out["exact"]
    checks.require(exact.exact and not grid.exact, "exactness flags")
    partition = inputs["grid_partition"]
    n = GRID_MODE.intervals_per_axis
    lipschitz = inputs["grid_f"].base.lipschitz_bound()
    budget = math.fsum(
        m * 2.0 * (lipschitz * max((hi - lo) / n for lo, hi in zip(c.lower, c.upper)) / 2.0)
        for c, m in zip(partition.cells, partition.measures)
    )
    checks.require(abs(grid.corollary2 - exact.corollary2) <= budget,
                   "grid corollary2 outside sum m_j 2 eps_j of exact corollary2")


def perturb_counters(inputs: dict) -> dict:
    grid_cells = inputs["grid_partition"].k
    naive = 2 * PERTURB_CELLS * (PERTURB_RESOLUTION + 1) + PERTURB_SPIKES
    nodes = 2 * PERTURB_SEEDS * PERTURB_CELLS
    samples = grid_cells * (GRID_MODE.intervals_per_axis + 1) ** 2
    return _counters(
        cells=2 * PERTURB_CELLS + 2 * grid_cells,
        nodes=nodes,
        configs=PERTURB_SEEDS,
        node_evals=nodes + naive,
        grid_samples=samples,
        cells_validated=PERTURB_CELLS,
    )


def perturb_parity(inputs: dict, out: dict) -> list:
    return [Parity(
        "perturb",
        ("perturb", "--family", PERTURB_FAMILY, "--cells", str(PERTURB_CELLS),
         "--spikes", str(PERTURB_SPIKES), "--placement-seeds", str(PERTURB_SEEDS),
         "--seed", str(inputs["seed"]), "--out", "perturb.csv"),
        out["report"],
        out_file="perturb.csv",
    )]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cube-refine",
            refine_setup, refine_run, refine_check, refine_counters, refine_parity,
        ),
        Workload(
            "cube-score",
            score_setup, score_run, score_check, score_counters, score_parity,
            once=score_once,
        ),
        Workload(
            "finite-exhaustive",
            finite_setup, finite_run, finite_check, finite_counters, finite_parity,
            uses_scipy=True,
        ),
        Workload(
            "spike-perturb",
            perturb_setup, perturb_run, perturb_check, perturb_counters, perturb_parity,
        ),
    )
}

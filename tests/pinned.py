"""Every byte-pinned CLI command and the inputs it reads.

A pin's reports are its standard output, NAME.stdout, and its --out
file, NAME.out; tests/pins.sha256 holds the sha256 of each, and no other
file holds a digest.  test_cli_bytes.py and test_convergence_bytes.py
run the pins marked in_process in-process.

    python tests/pinned.py DIR
    cd DIR && sha256sum --strict -c .../tests/pins.sha256

runs every pin as a subprocess through .github/scripts/timed_cli.py,
which reports its wall time and peak RSS, then checks every digest.
"""

import hashlib
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from click.testing import CliRunner

from qmcbounds.cli import main as cli
from qmcbounds.instances import load_instances
from qmcbounds.pointsets import (STRATEGIES, STRATEGY_EQUISPACED, STRATEGY_MIDPOINT,
                                 STRATEGY_RANDOM, construct_uniform, save_pointset)
from oracles import hammersley_2d

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Pin:
    args: tuple
    config: Any = None  # the instance JSON that --config reads
    # the --points file: its text, or a function of the partition and N
    # that returns the nodes save_pointset writes
    points: Any = None
    stdout: bool = True  # standard output is a report
    out: bool = False  # so is the --out file
    in_process: bool = True  # the test suite runs it too
    check: Optional[Callable[[str], bool]] = None  # a test of standard output


def seeded(seed, strategy=STRATEGY_RANDOM):
    return lambda partition, n: construct_uniform(partition, n, strategy, seed=seed)


def equal(n):
    """The edges of n equal cells of [0, 1]."""
    return [i / n for i in range(n + 1)]


def grid_cells(*edges, first_axis_fastest=False):
    """Box cells of the product of per-axis edge lists, in row-major
    order: the last axis varies fastest, or the first."""
    spans = [list(zip(e, e[1:])) for e in edges]
    if first_axis_fastest:
        boxes = [box[::-1] for box in itertools.product(*spans[::-1])]
    else:
        boxes = itertools.product(*spans)
    return [{"box": [list(span) for span in box]} for box in boxes]


def cube(instance_id, cells, family, params, n_points, **extra):
    return {"instance_id": instance_id,
            "space": {"kind": "cube", "dimension": len(cells[0]["box"])},
            "partition": {"cells": cells},
            "function": {"family": family, "params": params}, **extra, "N": n_points}


def grid_quadratic(instance_id, sides, n_points, first_axis_fastest=False, **extra):
    """0.1 - 0.7 x + 0.9 x^2 + 0.3 y - 0.6 y^2, cut to the grid's
    dimension, on ``sides[i]`` equal cells along axis i."""
    d = len(sides)
    cells = grid_cells(*map(equal, sides), first_axis_fastest=first_axis_fastest)
    return cube(instance_id, cells, "quadratic", {
        "intercept": 0.1, "linear": [-0.7, 0.3][:d], "quadratic": [0.9, -0.6][:d]},
        n_points, **extra)


def finite_table(instance_id, weights, cell_size, values, n_points):
    """A table on atoms a0, a1, ... of the given weights, in cells of
    ``cell_size`` consecutive atoms."""
    return {"instance_id": instance_id,
            "space": {"kind": "finite", "atoms": [[f"a{i}", w] for i, w in enumerate(weights)]},
            "partition": {"cells": [{"atoms": list(range(j, j + cell_size))}
                                    for j in range(0, len(weights), cell_size)]},
            "function": {"family": "finite_table", "params": {"values": values}},
            "N": n_points}


def seeded_values(seed, n):
    rng = random.Random(seed)
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def null_blowup(stdout):
    """A naive blowup that is not finite prints null, not the Infinity
    token that strict JSON parsers refuse."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    try:
        return json.loads(stdout, parse_constant=refuse)["naive_blowup"] is None
    except ValueError:
        return False


# Seeded-random nodes for the sin-quadrants instance, two per quadrant.
SIN_QUADRANTS_POINTS = """\
# qmcbounds-pointset N=8 partition=4831137b39aadfe6
0.31145084744485096 0.3708934946303647
0.3975967827828483 0.47122514188852516
0.8699492873699654 0.4611624983327085
0.5145026141418074 0.23281132718905267
0.47167835849915685 0.8244872765684621
0.45045024587531135 0.5566029823265721
0.7345345238910819 0.6232864163099152
0.7718804296179652 0.7869705939640503
"""
GRID64 = grid_quadratic("grid-64x64", (64, 64), 8192)

PINS = {}
for family in ("x", "x2", "sin2pix", "const"):
    PINS[f"convergence-{family}-random"] = Pin((
        "convergence", "--family", family, "--depth", "9",
        "--strategy", "seeded-random-in-cell", "--seed", "3"))
    PINS[f"convergence-{family}-midpoint"] = Pin((
        "convergence", "--family", family, "--depth", "9", "--strategy", "cell-midpoint"))
    for strategy in STRATEGIES:
        PINS[f"convergence-d12-{family}-{strategy}"] = Pin((
            "convergence", "--family", family, "--depth", "12",
            "--strategy", strategy, "--seed", "5"))
PINS["convergence-x2-d20"] = Pin(
    ("convergence", "--family", "x2", "--depth", "20"), stdout=False, out=True,
    in_process=False, check=lambda stdout: stdout.count("\n") == 21)
PINS["convergence-x2-d20-seeded"] = Pin(
    ("convergence", "--family", "x2", "--depth", "20",
     "--strategy", "seeded-random-in-cell", "--seed", "1"), stdout=False, out=True,
    in_process=False)
for family in ("x", "sin2pix"):
    PINS[f"perturb-{family}"] = Pin((
        "perturb", "--family", family, "--cells", "16", "--spikes", "4",
        "--placement-seeds", "50", "--seed", "2"), out=True)
PINS["perturb-1000"] = Pin((
    "perturb", "--family", "x", "--cells", "64", "--spikes", "5",
    "--placement-seeds", "1000", "--seed", "1"), stdout=False, out=True)
for fmt in ("csv", "structured"):
    PINS[f"verify-small-exhaustive-{fmt}"] = Pin(
        ("verify", "--suite", "small-exhaustive", "--format", fmt), out=True)
PINS["verify-small-exhaustive-seed7"] = Pin(
    ("verify", "--suite", "small-exhaustive", "--seed", "7"), stdout=False, out=True)
PINS["verify-tied"] = Pin(("verify",), finite_table(
    "tied-1656369", [u / 32 for u in [4, 2, 2, 4, 2, 2, 3, 3, 2, 2, 3, 3]], 6,
    [0.5, -0.25, 0.5, 1.0, -0.25, 0.0, 0.75, 0.75, -1.0, 0.25, -1.0, 0.5], 16),
    stdout=False, out=True)
PINS["verify-cap"] = Pin(("verify",), finite_table(
    "cap-9834496", [1 / 24] * 24, 6, seeded_values(11, 24), 12), stdout=False, out=True)
PINS["verify-near-constant"] = Pin(("verify",), [finite_table(
    f"near-constant-{name}", [1 / 16] * 16, 4,
    [0.5 + i * 2.0**-53 for i in range(16)][::step], 16)
    for name, step in (("rising", 1), ("falling", -1))], stdout=False, out=True)
PINS["bounds-points"] = Pin(("bounds",), cube(
    "sin-quadrants", grid_cells(equal(2), equal(2), first_axis_fastest=True), "sinusoid",
    {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0, "offset": 0.5, "axis": 1}, 8),
    SIN_QUADRANTS_POINTS)
PINS["bounds-grid-mode"] = Pin(("bounds",), grid_quadratic(
    "grid-quadratic", (4, 4), 16, first_axis_fastest=True,
    range_mode={"mode": "grid", "resolution": 8, "levels": 2}))
PINS["bounds-affine-2d"] = Pin(("bounds",), cube(
    "affine-2d", grid_cells(equal(4), equal(4)), "affine",
    {"intercept": 0.375, "slopes": [1.25, -0.5]}, 32), seeded(5))
PINS["bounds-quadratic-3d"] = Pin(("bounds",), cube(
    "quadratic-3d", grid_cells(equal(4), equal(2), equal(2)), "quadratic",
    {"intercept": -0.25, "linear": [-0.7, 0.3, 0.5], "quadratic": [0.9, 0.0, -0.6]}, 32),
    seeded(6))
PINS["bounds-finite-table"] = Pin(("bounds",), {
    "instance_id": "finite-table",
    "space": {"kind": "finite", "atoms": [["a", 0.25], ["b", 0.25], ["c", 0.125],
                                          ["d", 0.125], ["e", 0.125], ["f", 0.125]]},
    "partition": {"cells": [{"atoms": [0, 1]}, {"atoms": [2, 3, 4, 5]}]},
    "function": {"family": "finite_table",
                 "params": {"values": [0.5, -1.25, 3.0, 0.75, -0.5, 2.0]}},
    "N": 8}, seeded(7))
PINS["bounds-piecewise-constant-2d"] = Pin(("bounds",), cube(
    "piecewise-constant-2d", grid_cells(equal(2), equal(2)), "piecewise_constant",
    {"values": [1.5, -0.25, 0.625], "cells": grid_cells([0.0, 0.25, 0.75, 1.0], [0.0, 1.0])},
    8), seeded(8))
# one node per dyadic box of the 4 x 8 grid, on the box's lower faces
PINS["bounds-net"] = Pin(("bounds",), grid_quadratic("hammersley-32", (4, 8), 32),
                         lambda partition, n: hammersley_2d(5))
PINS["bounds-grid32"] = Pin(("bounds",), grid_quadratic(
    "grid-32x32", (32, 32), 1024, first_axis_fastest=True,
    range_mode={"mode": "grid", "resolution": 64, "levels": 2}),
    check=lambda stdout: stdout.splitlines()[-1].split(",")[7] == "false")  # exact
for suffix, strategy in (("", STRATEGY_RANDOM), ("-midpoint", STRATEGY_MIDPOINT),
                         ("-equispaced", STRATEGY_EQUISPACED)):
    PINS[f"bounds-grid64{suffix}"] = Pin(("bounds",), GRID64, seeded(64, strategy))
PINS["bounds-line4096"] = Pin(("bounds",), grid_quadratic("line-4096", (4096,), 8192),
                              seeded(4096))
# no digest: strict JSON on standard output, which test_cli.py checks in-process
PINS["perturb-zero-before"] = Pin((
    "perturb", "--family", "const", "--cells", "2", "--spikes", "1",
    "--placement-seeds", "1"), stdout=False, in_process=False, check=null_blowup)
PINS["perturb-overflowing-quotient"] = Pin((
    "perturb", "--cells", "4", "--spikes", "5", "--spike-magnitude", "1e308",
    "--placement-seeds", "3"), stdout=False, in_process=False, check=null_blowup)


def reports(name):
    """The file names of pin ``name``'s reports."""
    return [f"{name}.stdout"] * PINS[name].stdout + [f"{name}.out"] * PINS[name].out


def manifest():
    """(report, digest) for each line of the manifest but its comments."""
    lines = (ROOT / "tests" / "pins.sha256").read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("  ", 1)[::-1]) for line in lines if not line.startswith("#")]


def command(name, directory):
    """Write pin ``name``'s inputs into ``directory`` and return its CLI
    arguments, which name them and its --out file there."""
    pin = PINS[name]
    args = list(pin.args)
    if pin.config is not None:
        config = directory / f"{name}.json"
        config.write_text(json.dumps(pin.config), encoding="utf-8")
        args += ["--config", str(config)]
    if pin.points is not None:
        points = directory / f"{name}.txt"
        if isinstance(pin.points, str):
            points.write_text(pin.points, encoding="utf-8")
        else:
            partition = load_instances(config)[0].partition
            save_pointset(points, pin.points(partition, pin.config["N"]), partition)
        args += ["--points", str(points)]
    if pin.out:
        args += ["--out", str(directory / f"{name}.out")]
    return args


def assert_pinned(name, directory):
    """Run pin ``name`` in-process in ``directory``, and compare the
    sha256 of each of its reports with the manifest's."""
    result = CliRunner().invoke(cli, command(name, directory))
    assert result.exit_code == 0, result.output
    (directory / f"{name}.stdout").write_bytes(result.stdout_bytes)
    digests = dict(manifest())
    for report in reports(name):
        digest = hashlib.sha256((directory / report).read_bytes()).hexdigest()
        assert digest == digests[report], f"{report}: sha256 {digest}"
    assert PINS[name].check is None or PINS[name].check(result.stdout)


def run_all(directory):
    """Run every pin as a subprocess in ``directory`` through
    timed_cli.py, and return the names of those that fail or whose
    standard output fails its check."""
    directory.mkdir(parents=True, exist_ok=True)
    failed = []
    for name, pin in PINS.items():
        stdout = directory / f"{name}.stdout"
        status = subprocess.run([sys.executable, ".github/scripts/timed_cli.py",
                                 "--stdout", str(stdout), *command(name, directory)],
                                cwd=ROOT).returncode
        if status or not (pin.check is None or pin.check(stdout.read_text(encoding="utf-8"))):
            failed.append(name)
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failures = run_all(Path(sys.argv[1]).resolve())
    sys.exit(f"failed: {', '.join(failures)}" if failures else 0)

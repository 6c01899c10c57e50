"""Mutation fuzz of the command line.

Whatever the instance file, point file or options, a command exits 0,
1 or 2, lets no exception but SystemExit through (a traceback is exit
1 with the exception kept), and every number in an exit-0 CSV report
is an integer or a finite float.  Instance files are valid ones with fields dropped, retyped
or replaced, or cut short; point files are valid ones with a token or a
line changed, or cut short; options are drawn from valid and invalid
values.
"""

import copy
import csv
import functools
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmcbounds import (
    FiniteCell,
    construct_uniform,
    instance_from_json,
    make_partition,
    partition_hash,
    save_pointset,
)
from qmcbounds.cli import main
from qmcbounds.experiments import (
    MAX_PERTURB_CELLS,
    MAX_PERTURB_SPIKES,
    MAX_PLACEMENT_SEEDS,
    NAMED_FUNCTIONS,
)
from qmcbounds.pointsets import STRATEGIES

HALVES = [{"box": [[0.0, 0.5]]}, {"box": [[0.5, 1.0]]}]
QUADRANTS = [{"box": [[i / 2, (i + 1) / 2], [j / 2, (j + 1) / 2]]}
             for j in range(2) for i in range(2)]
THREE_ATOMS = {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.25], ["c", 0.25]]}

BASES = [
    {"instance_id": "affine", "space": {"kind": "cube", "dimension": 1},
     "partition": {"cells": HALVES},
     "function": {"family": "affine", "params": {"intercept": 0.5, "slopes": [1.0]},
                  "spikes": [[[0.25], 3.0]]},
     "N": 4},
    {"instance_id": "quadratic-grid", "space": {"kind": "cube", "dimension": 2},
     "partition": {"cells": QUADRANTS},
     "function": {"family": "quadratic",
                  "params": {"intercept": 0.1, "linear": [-0.7, 0.3],
                             "quadratic": [0.9, -0.6]}},
     "range_mode": {"mode": "grid", "resolution": 4, "levels": 1},
     "N": 4},
    {"instance_id": "sinusoid", "space": {"kind": "cube", "dimension": 2},
     "partition": {"cells": QUADRANTS},
     "function": {"family": "sinusoid",
                  "params": {"amplitude": 1.0, "frequency": 1.0, "phase": 0.5,
                             "offset": 0.25, "axis": 1}},
     "N": 8},
    {"instance_id": "pieces", "space": {"kind": "cube", "dimension": 1},
     "partition": {"cells": HALVES},
     "function": {"family": "piecewise_constant",
                  "params": {"values": [1.0, -2.0, 3.0],
                             "cells": [{"box": [[0.0, 0.25]]}, {"box": [[0.25, 0.75]]},
                                       {"box": [[0.75, 1.0]]}]}},
     "N": 2},
    {"instance_id": "table", "space": THREE_ATOMS,
     "partition": {"cells": [{"atoms": [0]}, {"atoms": [1, 2]}]},
     "function": {"family": "finite_table", "params": {"values": [1.0, -2.0, 0.5]}},
     "N": 4},
    {"instance_id": "finite-pieces", "space": THREE_ATOMS,
     "partition": {"cells": [{"atoms": [0, 1, 2]}]},
     "function": {"family": "piecewise_constant",
                  "params": {"values": [2.0, 1.0],
                             "cells": [{"atoms": [0]}, {"atoms": [1, 2]}]}},
     "N": 2},
]

RAW = "\0raw:"  # a string leaf that is spliced into the JSON text unquoted
LEAVES = [{}, [], None, True, "x", 0.9, -1, 5e-324, math.inf, 10**400, RAW + "1e400"]
POINT_TOKENS = ["nan", "inf", "-inf", "1e400", "5e-324", "-0.0", "1.0", "2", "x", "",
                "0.5 0.5 0.5", "N=99", "partition=0", "a"]
HUGE = "1" + "0" * 400
OPTIONS = {
    "convergence": {
        "--family": [*NAMED_FUNCTIONS, "bogus"],
        "--depth": ["-1", "0", "1", "3", "21", "x", "1e400"],
        "--strategy": [*STRATEGIES, "bogus"],
        "--seed": ["0", "7", "-1", HUGE, "x"],
    },
    "perturb": {
        "--family": [*NAMED_FUNCTIONS, "bogus"],
        # past its limit, a size is refused with exit 2
        "--cells": ["-1", "0", "1", "3", "x", str(MAX_PERTURB_CELLS + 1), "1" + "0" * 33],
        "--spikes": ["-1", "0", "2", "x", str(MAX_PERTURB_SPIKES + 1), "1" + "0" * 32],
        "--spike-magnitude": ["nan", "inf", "-inf", "1e400", "5e-324", "-1.7e308", "1e308",
                              "0", "x"],
        "--seed": ["0", "7", "-1", HUGE, "x"],
    },
}
# text columns; every other column of a report is a number (or empty)
TEXT_COLUMNS = {"instance_id", "exact", "passed", "argmax_configuration", "metric",
                "identical"}


def _paths(value, path=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_DROP = object()


def _mutate(doc, path, leaf):
    """doc with the value at path replaced by leaf, or dropped for _DROP."""
    doc = copy.deepcopy(doc)
    *head, key = path
    parent = functools.reduce(lambda node, k: node[k], head, doc)
    if leaf is _DROP:
        del parent[key]
    else:
        parent[key] = leaf
    return doc


def _text(doc) -> str:
    return re.sub(r'"\\u0000raw:([^"]*)"', r"\1", json.dumps(doc))


def _config(base, path, leaf) -> str:
    return _text(_mutate(BASES[base], path, leaf))


@functools.cache
def _points(base: int) -> str:
    """The text of a valid point file for the base instance."""
    instance = instance_from_json(BASES[base])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "nodes.txt")
        save_pointset(path, construct_uniform(instance.partition, instance.n_points),
                      instance.partition)
        return path.read_text()


@st.composite
def _point_file(draw, base):
    lines = _points(base).splitlines()
    op = draw(st.sampled_from(["token", "drop", "repeat", "cut"]))
    if op == "cut":
        text = "\n".join(lines)
        return text[:draw(st.integers(0, len(text)))]
    i = draw(st.integers(0, len(lines) - 1))
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(POINT_TOKENS))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def cases(draw):
    """(command, instance file text, point file text, options)."""
    command = draw(st.sampled_from(["bounds", "verify", "convergence", "perturb"]))
    if command in OPTIONS:
        options = []
        for name, values in OPTIONS[command].items():
            value = draw(st.sampled_from([None, *values]))
            if value is not None:
                options += [name, value]
        if command == "perturb":  # the default of 1000 sets is slow for a fuzz
            options += ["--placement-seeds", draw(st.sampled_from(
                ["-1", "0", "2", "x", str(MAX_PLACEMENT_SEEDS + 1), "1" + "0" * 23]))]
        return command, None, None, options
    base = draw(st.integers(0, len(BASES) - 1))
    doc = BASES[base]
    mutate_points = command == "bounds" and draw(st.booleans())
    points = draw(_point_file(base)) if mutate_points else None
    if not mutate_points:
        for _ in range(draw(st.integers(0, 2))):
            paths = list(_paths(doc))
            if paths:
                doc = _mutate(doc, draw(st.sampled_from(paths)),
                              draw(st.sampled_from([_DROP, *LEAVES])))
        if command == "bounds" and draw(st.booleans()):
            points = _points(base)
    text = _text(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return command, text, points, []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cases())
# each of these printed a traceback with exit 1
@example(case=("bounds", _config(1, ("partition", "cells", 0, "box", 1), {}), None, []))
@example(case=("verify", _config(4, ("space", "atoms", 0), {}), None, []))
@example(case=("verify", _config(4, ("partition", "cells", 1, "atoms", 0), RAW + "1e400"),
               None, []))
@example(case=("bounds", _config(2, ("function", "params", "axis"), RAW + "1e400"),
               None, []))
@example(case=("verify", _config(4, ("N",), 10**400), None, []))
# json reads no integer of more than 4300 digits, and says so with a ValueError
@example(case=("bounds", _config(0, ("N",), RAW + "1" * 5000), None, []))
def test_cli_survives_mutated_input(case):
    command, config, points, options = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "report.csv")
        args = [command, *options, "--out", str(out)]
        if config is not None:
            Path(tmp, "instance.json").write_text(config)
            args += ["--config", str(Path(tmp, "instance.json"))]
        if points is not None:
            Path(tmp, "nodes.txt").write_text(points)
            args += ["--points", str(Path(tmp, "nodes.txt"))]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            repr(result.exception))
        if result.exit_code == 0:
            with open(out, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    for column, cell in row.items():
                        # an integer (a seed, an N) is exact at any size
                        if column not in TEXT_COLUMNS and not re.fullmatch(r"-?\d*", cell):
                            assert math.isfinite(float(cell)), (column, cell)


FINITE = {"space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
          "partition": {"cells": [{"atoms": [0, 1]}]},
          "function": {"family": "finite_table", "params": {"values": [1.0, 2.0]}},
          "N": 2}
CUBE = {"space": {"kind": "cube", "dimension": 2},
        "partition": {"cells": [{"box": [[0.0, 1.0], [0.0, 1.0]]}]},
        "function": {"family": "sinusoid",
                     "params": {"amplitude": 1.0, "frequency": 1.0, "axis": 0}},
        "N": 1}
# each of the first five printed a traceback with exit 1, and the last
# loaded the atom index 0.9 as atom 0
MALFORMED = {
    "box-object": (CUBE, ("partition", "cells", 0, "box", 1), {}),
    "atom-object": (FINITE, ("space", "atoms", 0), {}),
    "atom-index-1e400": (FINITE, ("partition", "cells", 0, "atoms", 0), RAW + "1e400"),
    "axis-1e400": (CUBE, ("function", "params", "axis"), RAW + "1e400"),
    "n-10e400": (FINITE, ("N",), 10**400),
    "atom-index-0.9": (FINITE, ("partition", "cells", 0, "atoms", 0), 0.9),
}


@pytest.mark.parametrize("command, name", [
    # bounds reads no N, so a huge one is verify's to refuse
    *((command, name) for name in MALFORMED for command in ("bounds", "verify")
      if (command, name) != ("bounds", "n-10e400")),
    # point files that bounds --points reads against the finite instance's
    # partition: a wrong node count, another partition's hash, an unknown
    # label, bytes that are not UTF-8, a directory
    *(("points", name) for name in ("count", "hash", "label", "bytes", "directory")),
])
def test_malformed_files_exit_2_without_a_traceback(tmp_path, command, name):
    config = tmp_path / "instance.json"
    if command == "points":
        config.write_text(json.dumps(FINITE))
        partition = instance_from_json(FINITE).partition
        other = make_partition(partition.space, [FiniteCell((0,)), FiniteCell((1,))])
        points = tmp_path / f"points-{name}"
        if name == "directory":
            points.mkdir()
        elif name == "bytes":
            points.write_bytes(b"\xff\xfe\n")
        else:
            n_points, declared, lines = {"count": (3, partition, "a\nb\n"),
                                         "hash": (2, other, "a\nb\n"),
                                         "label": (2, partition, "a\nc\n")}[name]
            points.write_text(f"# qmcbounds-pointset N={n_points} "
                              f"partition={partition_hash(declared)}\n{lines}")
        args = ["bounds", "--config", str(config), "--points", str(points)]
    else:
        config.write_text(_text(_mutate(*MALFORMED[name])))
        args = [command, "--config", str(config)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))

"""End-to-end command-line behavior through CliRunner."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qmcbounds
from qmcbounds import cli
from qmcbounds import (
    BoundViolationError,
    EnumerationTooLargeError,
    box,
    equal_partition_1d,
    construct_uniform,
    enumerate_uniform,
    instance_to_json,
    make_cube_space,
    make_partition,
    random_instance,
    save_instances,
    save_pointset,
    verify_instances,
)
from qmcbounds.cli import main
from qmcbounds.errors import QmcBoundsError
from qmcbounds.experiments import (
    MAX_PERTURB_CELLS,
    MAX_PERTURB_SPIKES,
    MAX_PLACEMENT_SEEDS,
    named_function,
    perturb_table,
)


X2_INSTANCE = {
    "instance_id": "x2-two",
    "space": {"kind": "cube", "dimension": 1},
    "partition": {"cells": [{"box": [[0.0, 0.5]]}, {"box": [[0.5, 1.0]]}]},
    "function": {
        "family": "quadratic",
        "params": {"intercept": 0.0, "linear": [0.0], "quadratic": [1.0]},
    },
    "N": 2,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    lines = [l for l in text.splitlines() if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_verify_config_passes(runner, tmp_path):
    config = tmp_path / "instances.json"
    save_instances(config, [random_instance(i) for i in range(5)])
    out = tmp_path / "verdicts.csv"
    result = runner.invoke(main, ["verify", "--config", str(config),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["instances"] == 5
    assert summary["passed"] == 5
    assert summary["failed"] == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 5
    assert all(r["passed"] == "true" for r in rows)
    assert set(rows[0]) == {
        "instance_id", "atoms", "k", "N", "configurations", "worst_error",
        "corollary2", "corollary1", "theorem1", "tightness", "passed",
        "argmax_configuration",
    }


def test_verify_rerun_byte_identical(runner, tmp_path):
    config = tmp_path / "instances.json"
    save_instances(config, [random_instance(i) for i in range(3)])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, ["verify", "--config", str(config), "--out", str(out1)])
    r2 = runner.invoke(main, ["verify", "--config", str(config), "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.output == r2.output


def test_verify_structured_output(runner, tmp_path):
    config = tmp_path / "instances.json"
    save_instances(config, [random_instance(0)])
    out = tmp_path / "verdicts.json"
    result = runner.invoke(main, ["verify", "--config", str(config),
                                  "--out", str(out), "--format", "structured"])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "instance_id"
    assert len(payload["rows"]) == 1
    assert payload["summary"]["passed"] == 1


def test_verify_injected_violation_fails(runner, tmp_path, monkeypatch):
    # a verdict that fails, as a real soundness bug would produce one
    def failing(instances, cap):
        return [dataclasses.replace(v, failure=("corollary2", 0.5))
                for v in verify_instances(instances, cap)]

    monkeypatch.setattr(qmcbounds.experiments, "verify_instances", failing)
    config = tmp_path / "instances.json"
    save_instances(config, [random_instance(0)])
    out = tmp_path / "verdicts.csv"
    result = runner.invoke(main, ["verify", "--config", str(config),
                                  "--out", str(out)])
    assert result.exit_code == 1
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["failed"] == 1
    rows = parse_csv(out.read_text())
    assert rows[-1]["instance_id"] == "rand-0"
    assert rows[-1]["passed"] == "false"
    assert result.stderr.startswith("verify: instance 'rand-0' fails corollary2: margin 0.5, ")


def test_verify_refuses_the_first_instance_over_the_cap(runner, tmp_path):
    # the second and third instances exceed the cap; the error names the
    # second, as when each instance was enumerated and scored in turn
    suite = [random_instance(i) for i in range(10)]
    sizes = [len(enumerate_uniform(i.partition, i.n_points)) for i in suite]
    cap = sizes[0]
    over = [i for i, size in enumerate(sizes) if size > cap]
    chosen = [suite[0], suite[over[0]], suite[over[1]]]
    config = tmp_path / "instances.json"
    save_instances(config, chosen)
    result = runner.invoke(main, ["verify", "--config", str(config), "--cap", str(cap)])
    assert result.exit_code == 2
    assert f"{sizes[over[0]]} configurations exceed the cap of {cap}" in result.stderr
    with pytest.raises(EnumerationTooLargeError) as raised:
        verify_instances(chosen, cap)
    assert str(raised.value) == f"{sizes[over[0]]} configurations exceed the cap of {cap}"


def test_verify_needs_exactly_one_source(runner, tmp_path):
    assert runner.invoke(main, ["verify"]).exit_code == 2
    config = write_json(tmp_path / "i.json", instance_to_json(random_instance(0)))
    both = runner.invoke(main, ["verify", "--suite", "small-exhaustive",
                                "--config", config])
    assert both.exit_code == 2


def test_verify_rejects_malformed_config(runner, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{oops")
    result = runner.invoke(main, ["verify", "--config", str(config)])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_config_that_is_not_utf8_exits_2(runner, tmp_path, command):
    config = tmp_path / "utf16.json"
    config.write_bytes(b"\xff\xfe")
    result = runner.invoke(main, [command, "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert f"cannot read {config}:" in result.stderr


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("section, key, value", [("partition", "cells", 5),
                                                 ("function", "spikes", 3)])
def test_config_with_a_field_that_is_no_list_exits_2(runner, tmp_path, command,
                                                     section, key, value):
    # each printed a traceback with exit 1, the "check failed" code
    obj = json.loads(json.dumps(X2_INSTANCE))
    obj[section][key] = value
    config = write_json(tmp_path / "bad.json", obj)
    result = runner.invoke(main, [command, "--config", config])
    assert result.exit_code == 2, result.output
    assert f"{section}: field {key!r} must be a list, got {value}" in result.stderr


def test_verify_rejects_cube_instance(runner, tmp_path):
    config = write_json(tmp_path / "cube.json", X2_INSTANCE)
    result = runner.invoke(main, ["verify", "--config", config])
    assert result.exit_code == 2
    assert "finite-space" in result.output + result.stderr


@pytest.mark.parametrize("command, args", [
    ("verify", ["--config", "BAD"]),
    ("bounds", ["--config", "BAD"]),
    ("convergence", ["--depth", "21"]),
])
def test_library_errors_exit_2_with_the_command_usage_line(runner, tmp_path, command, args):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, [command] + [str(bad) if a == "BAD" else a for a in args])
    assert result.exit_code == 2
    usage = next(line for line in result.stderr.splitlines() if line.startswith("Usage:"))
    assert f" {command} [OPTIONS]" in usage


def test_verify_rejects_missing_n(runner, tmp_path):
    obj = instance_to_json(random_instance(0))
    del obj["N"]
    config = write_json(tmp_path / "no-n.json", obj)
    result = runner.invoke(main, ["verify", "--config", config])
    assert result.exit_code == 2


def test_bounds_values(runner, tmp_path):
    # x^2 on {[0,.5), [.5,1]}: oscillations .25/.75, so the worst-cell
    # bound is .75 and the measure-weighted bound is .5
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    result = runner.invoke(main, ["bounds", "--config", config])
    assert result.exit_code == 0, result.output
    row = parse_csv(result.output)[0]
    assert row["instance_id"] == "x2-two"
    assert row["theorem1"] == "0.75"
    assert row["corollary1"] == "0.75"
    assert row["corollary2"] == "0.5"
    assert row["D"] == "0.375"
    assert row["exact"] == "true"


def test_bounds_with_points_report(runner, tmp_path):
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    partition = equal_partition_1d(2)
    pointset = construct_uniform(partition, 2)  # midpoints .25, .75
    points = tmp_path / "nodes.txt"
    save_pointset(points, pointset, partition)
    result = runner.invoke(main, ["bounds", "--config", config,
                                  "--points", str(points)])
    assert result.exit_code == 0, result.output
    row = parse_csv(result.output)[0]
    assert row["estimate"] == "0.3125"  # (0.0625 + 0.5625) / 2
    assert abs(float(row["integral"]) - 1 / 3) < 1e-15
    assert abs(float(row["error"]) - (1 / 3 - 0.3125)) < 1e-15
    assert row["corollary2"] == "0.5"


def test_bounds_with_points_reads_each_range_once(runner, tmp_path, monkeypatch):
    # the bound table was built for the bounds row and built again by the
    # report: 2k essential_range calls
    k = 8
    instance = dict(X2_INSTANCE, instance_id="x2-eight", N=k, partition={
        "cells": [{"box": [[j / k, (j + 1) / k]]} for j in range(k)]})
    config = write_json(tmp_path / "x2.json", instance)
    partition = equal_partition_1d(k)
    points = tmp_path / "nodes.txt"
    save_pointset(points, construct_uniform(partition, k), partition)
    calls = 0
    essential_range = qmcbounds.FunctionModel.essential_range

    def counting(self, cell):
        nonlocal calls
        calls += 1
        return essential_range(self, cell)

    monkeypatch.setattr(qmcbounds.FunctionModel, "essential_range", counting)
    result = runner.invoke(main, ["bounds", "--config", config, "--points", str(points)])
    assert result.exit_code == 0, result.output
    assert calls == k


def test_bounds_rejects_non_uniform_points(runner, tmp_path):
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    partition = equal_partition_1d(2)
    points = tmp_path / "lopsided.txt"
    save_pointset(points, ((0.1,), (0.2,)), partition)  # both in cell 0
    result = runner.invoke(main, ["bounds", "--config", config,
                                  "--points", str(points)])
    assert result.exit_code == 1
    assert "not uniform" in result.stderr


def test_bounds_reports_a_bound_violation_without_a_traceback(runner, tmp_path,
                                                              monkeypatch):
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    points = tmp_path / "points.txt"
    save_pointset(points, ((0.25,), (0.75,)), equal_partition_1d(2))

    def violating(*args, **kwargs):
        raise BoundViolationError(
            "realized error 0.75 exceeds the certified bound corollary2 = 0.5")

    monkeypatch.setattr(cli, "bound_report", violating)
    result = runner.invoke(main, ["bounds", "--config", config,
                                  "--points", str(points)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == ("bound violation: realized error 0.75 exceeds the "
                             "certified bound corollary2 = 0.5\n")


@pytest.mark.parametrize("bad_line", ["abc", "1.5", "0.5 0.5"])
def test_bounds_rejects_malformed_point_lines(runner, tmp_path, bad_line):
    # a word, a coordinate outside [0, 1] and a 2-D point in a 1-D space
    # each printed a traceback with exit 1, the "check failed" code
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    partition = equal_partition_1d(2)
    points = tmp_path / "bad.txt"
    save_pointset(points, ((0.25,), (0.75,)), partition)
    lines = points.read_text(encoding="utf-8").splitlines()
    lines[2] = bad_line
    points.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["bounds", "--config", config,
                                  "--points", str(points)])
    assert result.exit_code == 2, result.output
    assert f"{points}: line 3:" in result.stderr


@pytest.mark.parametrize("content", [None, b"\xff\xfe\n"])
def test_bounds_rejects_unreadable_point_files(runner, tmp_path, content):
    # a missing file and one that is not UTF-8
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    points = tmp_path / "nodes.txt"
    if content is not None:
        points.write_bytes(content)
    result = runner.invoke(main, ["bounds", "--config", config,
                                  "--points", str(points)])
    assert result.exit_code == 2, result.output
    assert f"cannot read {points}:" in result.stderr


def test_bounds_rejects_non_finite_values(runner, tmp_path):
    # json reads NaN; without the check every bound printed nan with
    # exact=true and exit 0
    obj = {
        "instance_id": "nan-table",
        "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
        "partition": {"cells": [{"atoms": [0]}, {"atoms": [1]}]},
        "function": {"family": "finite_table", "params": {"values": [0.0, float("nan")]}},
        "N": 2,
    }
    config = write_json(tmp_path / "nan.json", obj)
    assert "NaN" in Path(config).read_text()
    result = runner.invoke(main, ["bounds", "--config", config])
    assert result.exit_code == 2
    assert "values[1] is nan" in result.stderr


def _cube_instance(dimension, cells, function):
    return {"instance_id": "big", "space": {"kind": "cube", "dimension": dimension},
            "partition": {"cells": [{"box": box} for box in cells]},
            "function": function, "N": len(cells)}


HALVES = [[[0.0, 0.5]], [[0.5, 1.0]]]


@pytest.mark.parametrize("instance, field", [
    # printed big2,2,2,inf,inf,nan,inf,true with exit 0
    (_cube_instance(1, HALVES, {"family": "affine",
                                "params": {"intercept": 1.7e308, "slopes": [1.7e308]}}),
     "intercept and slopes"),
    # with --points at the node (1, 1), a traceback: intermediate overflow in fsum
    (_cube_instance(2, [[[0.0, 1.0], [0.0, 1.0]]],
                    {"family": "affine", "params": {"intercept": 0.0,
                                                    "slopes": [1e308, 1e308]}}),
     "intercept and slopes"),
    # a traceback: math domain error
    (_cube_instance(1, HALVES, {"family": "sinusoid",
                                "params": {"amplitude": 1.0, "frequency": 1e308}}),
     "frequency and phase"),
], ids=["affine-1d", "affine-2d-points", "sinusoid"])
def test_bounds_rejects_values_that_overflow(runner, tmp_path, instance, field):
    config = write_json(tmp_path / "big.json", instance)
    dimension = instance["space"]["dimension"]
    cells = [box(*c["box"]) for c in instance["partition"]["cells"]]
    points = tmp_path / "points.txt"
    save_pointset(points, [(1.0,) * dimension] * len(cells),
                  make_partition(make_cube_space(dimension), cells))
    for extra in ([], ["--points", str(points)]):
        result = runner.invoke(main, ["bounds", "--config", config, *extra])
        assert result.exit_code == 2, result.output
        assert f"{field}: " in result.stderr
        assert "above the limit" in result.stderr


@pytest.mark.parametrize("levels", [2000, math.inf], ids=["2000", "infinity"])
def test_bounds_rejects_a_grid_finer_than_the_limit(runner, tmp_path, levels):
    # each printed a traceback with exit 1: numpy.linspace's "Maximum
    # allowed size exceeded", and int() of an infinity
    instance = _cube_instance(1, HALVES, {"family": "affine",
                                          "params": {"intercept": 0.0, "slopes": [1.0]}})
    instance["range_mode"] = {"mode": "grid", "resolution": 64, "levels": levels}
    config = write_json(tmp_path / "fine.json", instance)
    result = runner.invoke(main, ["bounds", "--config", config])
    assert result.exit_code == 2, result.output
    assert "range_mode: malformed" in result.stderr


def test_bounds_points_averages_values_whose_sum_overflows(runner, tmp_path):
    # five node values of 4e307 sum past the largest double, and fsum
    # raised OverflowError: intermediate overflow, printed as a traceback
    fifths = [[[i / 5, (i + 1) / 5]] for i in range(5)]
    config = write_json(tmp_path / "big.json", _cube_instance(
        1, fifths, {"family": "affine", "params": {"intercept": 4e307, "slopes": [0.0]}}))
    p = equal_partition_1d(5)
    points = tmp_path / "points.txt"
    save_pointset(points, construct_uniform(p, 5).nodes, p)
    result = runner.invoke(main, ["bounds", "--config", config, "--points", str(points)])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[1] == "big,5,5,4e+307,4e+307,0.0,0.0,0.0,0.0,true"


def test_bounds_rejects_a_range_whose_width_overflows(runner, tmp_path):
    # two pieces of 1.7e308 and -1.7e308 inside one cell printed
    # big,1,1,1.7e+308,0.0,1.7e+308,inf,inf,inf,true with exit 0
    instance = _cube_instance(1, [[[0.0, 1.0]]], {
        "family": "piecewise_constant",
        "params": {"values": [1.7e308, -1.7e308],
                   "cells": [{"box": box} for box in HALVES]}})
    config = write_json(tmp_path / "big.json", instance)
    result = runner.invoke(main, ["bounds", "--config", config])
    assert result.exit_code == 2, result.output
    assert "cell 0 has the range [-1.7e+308, 1.7e+308], whose width overflows" in result.stderr


@pytest.mark.parametrize("values, message", [
    # a traceback: OverflowError: intermediate overflow in fsum
    ([1.7e308, -1.7e308],
     "instance 'big': cell 0 has the range [-1.7e+308, 1.7e+308], whose width overflows"),
    # a finite range, but two nodes of 1.7e308 sum past the largest double
    ([1.7e308, 1.6e308], "instance 'big': N * max|value| = inf could overflow"),
], ids=["width", "sum"])
def test_verify_rejects_sums_that_overflow(runner, tmp_path, values, message):
    instance = {"instance_id": "big",
                "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
                "partition": {"cells": [{"atoms": [0, 1]}]},
                "function": {"family": "finite_table", "params": {"values": values}},
                "N": 2}
    config = write_json(tmp_path / "big.json", instance)
    result = runner.invoke(main, ["verify", "--config", config])
    assert result.exit_code == 2, result.output
    assert message in result.stderr


def test_verify_passes_a_stream_longer_than_an_index(runner, tmp_path):
    # 8 cells of 8 atoms of weight 1/64, N = 64: about 2.9e30 configurations
    instance = {"instance_id": "long",
                "space": {"kind": "finite", "atoms": [[f"a{i}", 1 / 64] for i in range(64)]},
                "partition": {"cells": [{"atoms": list(range(8 * j, 8 * j + 8))}
                                        for j in range(8)]},
                "function": {"family": "finite_table", "params": {
                    "values": [math.sin(i * 7.0) for i in range(64)]}},
                "N": 64}
    config = write_json(tmp_path / "long.json", instance)
    result = runner.invoke(main, ["verify", "--config", config, "--cap", str(10**31)])
    assert result.exit_code == 0, result.output
    assert '"passed": 1, "failed": 0' in result.stdout


def test_verify_accepts_sums_just_below_the_largest_double(runner, tmp_path):
    # every sum of three values is at most 1.797e308, which is finite, so
    # N * max|value| above half the largest double is no reason to refuse
    instance = {"instance_id": "big",
                "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
                "partition": {"cells": [{"atoms": [0, 1]}]},
                "function": {"family": "finite_table", "params": {"values": [0.599e308, 0.3e308]}},
                "N": 3}
    config = write_json(tmp_path / "big.json", instance)
    result = runner.invoke(main, ["verify", "--config", config])
    assert result.exit_code == 0, result.output
    assert '"passed": 1, "failed": 0' in result.stdout


@pytest.mark.parametrize("patched, check", [
    # a corollary2 at a quarter of its value is below the worst error
    ("_bounds_from_table", "corollary2"),
    ("_worst_uniform_error", "worst_uniform_error"),
])
def test_verify_explains_a_failed_verdict(runner, tmp_path, monkeypatch, patched, check):
    real = getattr(qmcbounds.oracle, patched)
    if patched == "_bounds_from_table":
        def broken(table):
            bounds = real(table)
            return dataclasses.replace(bounds, corollary2=bounds.corollary2 / 4)
    else:
        def broken(table, integrals):
            return real(table, integrals) + 1e-6
    monkeypatch.setattr(qmcbounds.oracle, patched, broken)
    config = tmp_path / "instances.json"
    save_instances(config, [random_instance(i) for i in range(3)])
    out = tmp_path / "verdicts.csv"
    result = runner.invoke(main, ["verify", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    verdicts = verify_instances([random_instance(i) for i in range(3)])
    failed = [v for v in verdicts if not v.passed]
    assert failed and all(v.failure[0] == check for v in failed)
    lines = result.stderr.splitlines()
    assert len(lines) == len(failed)
    for line, verdict in zip(lines, failed):
        margin = verdict.failure[1]
        assert margin > verdict.slack
        assert line == (f"verify: instance {verdict.instance.instance_id!r} fails {check}: "
                        f"margin {margin!r}, slack {verdict.slack!r}")
    rows = parse_csv(out.read_text())
    assert [r["passed"] for r in rows] == ["true" if v.passed else "false" for v in verdicts]


def test_verify_passing_run_writes_nothing_to_stderr(runner):
    result = runner.invoke(main, ["verify", "--suite", "small-exhaustive"])
    assert result.exit_code == 0
    assert result.stderr == ""


def test_bounds_rejects_multiple_instances(runner, tmp_path):
    config = tmp_path / "many.json"
    save_instances(config, [random_instance(0), random_instance(1)])
    result = runner.invoke(main, ["bounds", "--config", str(config)])
    assert result.exit_code == 2


def test_convergence_identity_function(runner):
    # f(x) = x on 2^m cells: every bound 1/k, midpoints integrate it
    # exactly, worst edge placement gives 1/(2k)
    result = runner.invoke(main, ["convergence", "--family", "x", "--depth", "3"])
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.output)
    assert [r["k"] for r in rows] == ["2", "4", "8"]
    for r in rows:
        k = int(r["k"])
        assert abs(float(r["corollary2"]) - 1 / k) < 1e-12
        assert abs(float(r["corollary1"]) - 1 / k) < 1e-12
        assert abs(float(r["theorem1"]) - 1 / k) < 1e-12
        assert float(r["realized_error"]) < 1e-15
        assert abs(float(r["adversarial_error"]) - 1 / (2 * k)) < 1e-12
    assert rows[0]["adversarial_error"] == "0.25"


def test_convergence_constant_function(runner):
    result = runner.invoke(main, ["convergence", "--family", "const",
                                  "--depth", "2"])
    assert result.exit_code == 0
    for r in parse_csv(result.output):
        assert float(r["theorem1"]) == 0.0
        assert float(r["realized_error"]) == 0.0
        assert float(r["adversarial_error"]) == 0.0


def test_convergence_depth_limit(runner):
    result = runner.invoke(main, ["convergence", "--depth", "25"])
    assert result.exit_code == 2


def test_convergence_out_deterministic(runner, tmp_path):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    args = ["convergence", "--family", "x2", "--depth", "4",
            "--strategy", "seeded-random-in-cell", "--seed", "7"]
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_perturb_spikes_move_nothing(runner):
    result = runner.invoke(main, [
        "perturb", "--family", "x", "--cells", "4", "--spikes", "5",
        "--spike-magnitude", "1000", "--placement-seeds", "5",
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["bounds_identical"] is True
    assert summary["identical_errors"] == 5
    assert summary["spikes"] == 5
    # worst cell holds a 1000 spike against values in [0, 1]
    assert summary["naive_after"] >= 999.0
    assert summary["naive_blowup"] >= 999.0 / summary["naive_before"]


def test_perturb_without_spikes_matches_certified(runner):
    # no spikes: the naive pointwise sweep of f(x)=x agrees with the
    # worst-cell oscillation 1/k
    result = runner.invoke(main, [
        "perturb", "--family", "x", "--cells", "4", "--spikes", "0",
        "--placement-seeds", "3",
    ])
    assert result.exit_code == 0
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["naive_before"] == 0.25
    assert summary["naive_after"] == 0.25
    assert summary["identical_errors"] == 3


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict JSON parsers do."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args", [
    ["--family", "const", "--cells", "2", "--spikes", "1", "--placement-seeds", "1"],
    ["--cells", "4", "--spikes", "5", "--spike-magnitude", "1e308", "--placement-seeds", "3"],
], ids=["zero-before", "overflowing-quotient"])
def test_perturb_reports_a_blowup_that_is_not_finite_as_null(runner, tmp_path, args):
    # both printed "naive_blowup": Infinity with exit 0
    out = tmp_path / "perturb.json"
    result = runner.invoke(main, ["perturb", *args, "--out", str(out),
                                  "--format", "structured"])
    assert result.exit_code == 0, result.output
    assert strict_json(result.stdout)["naive_blowup"] is None
    assert strict_json(out.read_text())["summary"]["naive_blowup"] is None


@pytest.mark.parametrize("magnitude", ["nan", "inf", "1e400"])
def test_perturb_refuses_a_spike_magnitude_that_is_not_finite(runner, magnitude):
    # each printed a ValueError traceback from the spike values and exited 1
    result = runner.invoke(main, ["perturb", "--spike-magnitude", magnitude])
    assert result.exit_code == 2
    assert "--spike-magnitude" in result.stderr


@pytest.mark.parametrize("option, size", [
    ("--cells", 10**33), ("--cells", MAX_PERTURB_CELLS + 1),
    ("--spikes", 10**32), ("--spikes", MAX_PERTURB_SPIKES + 1),
    ("--placement-seeds", 10**23), ("--placement-seeds", MAX_PLACEMENT_SEEDS + 1),
])
def test_perturb_refuses_a_size_past_its_limit(runner, option, size):
    # 10**33 cells ran out of memory with a traceback, and 10**32 spikes
    # or 10**23 point sets ran without end
    args = ["perturb", option, str(size)]
    if option != "--placement-seeds":
        args += ["--placement-seeds", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"{option} must be in" in result.stderr and str(size) in result.stderr


def test_perturb_refuses_sizes_whose_work_is_past_the_limit(runner):
    # each size is inside its own limit, but 2^20 cells and the default
    # 1000 point sets take about 3.2e9 evaluations
    result = runner.invoke(main, ["perturb", "--cells", str(MAX_PERTURB_CELLS)])
    assert result.exit_code == 2
    assert "point evaluations, more than the limit" in result.stderr


@pytest.mark.parametrize("k, n_spikes, seeds, message", [
    (MAX_PERTURB_CELLS + 1, 0, 0, "k must be in"), (0, 0, 0, "k must be in"),
    (1, MAX_PERTURB_SPIKES + 1, 0, "n_spikes must be in"), (1, -1, 0, "n_spikes must be in"),
    (1, 0, MAX_PLACEMENT_SEEDS + 1, "placement_seeds must be in"),
    (MAX_PERTURB_CELLS, 0, 1000, "point evaluations"),
])
def test_perturb_table_refuses_sizes_past_the_limits(k, n_spikes, seeds, message):
    with pytest.raises(QmcBoundsError, match=message):
        perturb_table(named_function("x"), k, n_spikes, placement_seeds=seeds)


def test_perturb_limits_admit_the_benchmark_study():
    # the benchmark's and CI's 64 cells, 5 spikes and 1000 point sets
    rows, summary = perturb_table(named_function("x"), 64, 5, seed=1, placement_seeds=1000)
    assert summary["identical_errors"] == 1000 and len(rows) == 1004


def test_perturb_rows_layout(runner, tmp_path):
    out = tmp_path / "perturb.csv"
    result = runner.invoke(main, [
        "perturb", "--family", "sin2pix", "--cells", "2", "--spikes", "2",
        "--placement-seeds", "2", "--out", str(out),
    ])
    assert result.exit_code == 0
    rows = parse_csv(out.read_text())
    metrics = [r["metric"] for r in rows]
    assert metrics[:4] == ["theorem1", "corollary1", "corollary2",
                           "naive_pointwise_s"]
    assert metrics[4:] == ["realized_error", "realized_error"]
    for r in rows[:3]:
        assert r["identical"] == "true"
        assert r["before"] == r["after"]


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("verify", "bounds", "convergence", "perturb"):
        assert name in result.output


def test_convergence_leaves_numpy_unloaded():
    # the list passes over edge lists are pure Python; numpy would add
    # about 12 MB of peak memory and 0.15 s of import to every run
    src = Path(qmcbounds.__file__).resolve().parents[1]
    code = ("import sys, qmcbounds\n"
            "from qmcbounds.experiments import convergence_table, named_function\n"
            "convergence_table(named_function('x2'), 10, 'seeded-random-in-cell')\n"
            "print('numpy' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "False"


def test_grid_mode_bounds_leaves_numpy_unloaded(tmp_path):
    # grid mode sampled each axis with numpy.linspace; the sample lists
    # are pure Python, like the rest of the cube path
    src = Path(qmcbounds.__file__).resolve().parents[1]
    cells = [[[i / 2, (i + 1) / 2], [j / 2, (j + 1) / 2]] for j in range(2) for i in range(2)]
    instance = _cube_instance(2, cells, {"family": "quadratic", "params": {
        "intercept": 0.1, "linear": [-0.7, 0.3], "quadratic": [0.9, -0.6]}})
    instance["range_mode"] = {"mode": "grid", "resolution": 8, "levels": 2}
    config = write_json(tmp_path / "grid.json", instance)
    code = ("import sys\n"
            "from qmcbounds.cli import main\n"
            f"main(['bounds', '--config', {config!r}], standalone_mode=False)\n"
            "print('numpy' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    report, loaded = result.stdout.strip().rsplit("\n", 1)
    assert report.endswith(",false")
    assert loaded == "False"


def test_verify_leaves_numpy_unloaded(tmp_path):
    # the exhaustive scorer is pure Python on a stream of any length: two
    # cells of 6 atoms with 8 nodes each hold 1287^2 configurations
    src = Path(qmcbounds.__file__).resolve().parents[1]
    units = [4, 2, 2, 4, 2, 2, 3, 3, 2, 2, 3, 3]
    values = [0.5, -0.25, 0.5, 1.0, -0.25, 0.0, 0.75, 0.75, -1.0, 0.25, -1.0, 0.5]
    config = write_json(tmp_path / "tied.json", {
        "instance_id": "tied",
        "space": {"kind": "finite", "atoms": [[f"a{i}", u / 32] for i, u in enumerate(units)]},
        "partition": {"cells": [{"atoms": list(range(6))}, {"atoms": list(range(6, 12))}]},
        "function": {"family": "finite_table", "params": {"values": values}},
        "N": 16,
    })
    out = tmp_path / "tied.csv"
    code = ("import sys\n"
            "from qmcbounds import oracle\n"
            "from qmcbounds.cli import main\n"
            f"main(['verify', '--config', {config!r}, '--out', {str(out)!r}],"
            " standalone_mode=False)\n"
            "print(oracle.SCAN_LIMIT, 'numpy' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    scan_limit, loaded = result.stdout.strip().rsplit("\n", 1)[-1].split()
    assert 1287**2 > int(scan_limit)
    assert [row["instance_id"] for row in parse_csv(out.read_text())] == ["tied"]
    assert loaded == "False"


def test_cli_import_leaves_numpy_unloaded():
    # no command but the minimax LP, through scipy, needs numpy
    src = Path(qmcbounds.__file__).resolve().parents[1]
    code = "import sys, qmcbounds.experiments, qmcbounds.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "False"

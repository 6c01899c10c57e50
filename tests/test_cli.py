"""End-to-end command-line behavior through CliRunner."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qmcbounds
from qmcbounds import (
    equal_partition_1d,
    construct_uniform,
    instance_to_json,
    random_instance,
    save_instances,
    save_pointset,
    verify_instance,
)
from qmcbounds.cli import main


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
    def failing(instance, cap):
        return dataclasses.replace(verify_instance(instance, cap), passed=False)

    monkeypatch.setattr(qmcbounds.experiments, "verify_instance", failing)
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


def test_verify_rejects_cube_instance(runner, tmp_path):
    config = write_json(tmp_path / "cube.json", X2_INSTANCE)
    result = runner.invoke(main, ["verify", "--config", config])
    assert result.exit_code == 2
    assert "finite-space" in result.output + result.stderr


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


def test_bounds_rejects_non_uniform_points(runner, tmp_path):
    config = write_json(tmp_path / "x2.json", X2_INSTANCE)
    partition = equal_partition_1d(2)
    points = tmp_path / "lopsided.txt"
    save_pointset(points, ((0.1,), (0.2,)), partition)  # both in cell 0
    result = runner.invoke(main, ["bounds", "--config", config,
                                  "--points", str(points)])
    assert result.exit_code == 1
    assert "not uniform" in result.stderr


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


def test_cli_import_leaves_numpy_unloaded():
    # numpy is only needed by grid range mode, which imports it lazily
    src = Path(qmcbounds.__file__).resolve().parents[1]
    code = "import sys, qmcbounds.experiments, qmcbounds.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "False"

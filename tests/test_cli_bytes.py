"""The CLI byte contract: report bytes pinned across commits.

Every case runs one command through CliRunner and compares the sha256
of its stdout and of its --out file (when it writes one) with digests
recorded once and kept here.  Rerun identity is covered in test_cli.py;
this file catches a change that alters the bytes deterministically.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from qmcbounds.cli import main

SIN_QUADRANTS = {
    "instance_id": "sin-quadrants",
    "space": {"kind": "cube", "dimension": 2},
    "partition": {"cells": [
        {"box": [[0.0, 0.5], [0.0, 0.5]]}, {"box": [[0.5, 1.0], [0.0, 0.5]]},
        {"box": [[0.0, 0.5], [0.5, 1.0]]}, {"box": [[0.5, 1.0], [0.5, 1.0]]},
    ]},
    "function": {
        "family": "sinusoid",
        "params": {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0,
                   "offset": 0.5, "axis": 1},
    },
    "N": 8,
}

# Seeded-random nodes for SIN_QUADRANTS, two per quadrant.
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

# A 2-D quadratic on a 4x4 grid of cells with sampled (grid-mode) ranges.
GRID_QUADRATIC = {
    "instance_id": "grid-quadratic",
    "space": {"kind": "cube", "dimension": 2},
    "partition": {"cells": [
        {"box": [[i / 4, (i + 1) / 4], [j / 4, (j + 1) / 4]]}
        for j in range(4) for i in range(4)
    ]},
    "function": {
        "family": "quadratic",
        "params": {"intercept": 0.1, "linear": [-0.7, 0.3],
                   "quadratic": [0.9, -0.6]},
    },
    "range_mode": {"mode": "grid", "resolution": 8, "levels": 2},
    "N": 16,
}

# (case id, arguments, writes an --out file)
CASES = []
for family in ("x", "x2", "sin2pix", "const"):
    CASES.append((f"convergence-{family}-random", [
        "convergence", "--family", family, "--depth", "9",
        "--strategy", "seeded-random-in-cell", "--seed", "3",
    ], False))
    CASES.append((f"convergence-{family}-midpoint", [
        "convergence", "--family", family, "--depth", "9",
        "--strategy", "cell-midpoint",
    ], False))
for family in ("x", "sin2pix"):
    CASES.append((f"perturb-{family}", [
        "perturb", "--family", family, "--cells", "16", "--spikes", "4",
        "--placement-seeds", "50", "--seed", "2",
    ], True))
for fmt in ("csv", "structured"):
    CASES.append((f"verify-small-exhaustive-{fmt}", [
        "verify", "--suite", "small-exhaustive", "--format", fmt,
    ], True))
CASES.append(("bounds-points", ["bounds"], False))
CASES.append(("bounds-grid-mode", ["bounds"], False))

# case id -> (stdout sha256, --out file sha256 or None)
DIGESTS = {
    "convergence-x-random": (
        "e574e7e6d42d4e84d640bc6aabde251c309fee954fd3351a5de338d31380b977", None),
    "convergence-x-midpoint": (
        "681e6536793613fc237092e21db130cb1e6acfe19f7ae6a1d00d96d65e52574e", None),
    "convergence-x2-random": (
        "b944f49cfc6cab708dc62a1882f39b6f45ccf89b9182d73cc7df67d21ab556bb", None),
    "convergence-x2-midpoint": (
        "18bff83ddb50000bfbc5c34d44bf1746a368f4fb013d55b2cd5e005ba0ce7cc0", None),
    "convergence-sin2pix-random": (
        "6669d506590154f9cc93e184929ec578b67af3e18a109a2d2f6f9a5fc76f165c", None),
    "convergence-sin2pix-midpoint": (
        "cb0e43996f60960276c641be08ca452480b7cfe4a236054b92850ca714eedb11", None),
    "convergence-const-random": (
        "19be75e859daedd568861caf88ac54fe190eb27ccd52a7c8c325609d7e4ccdc0", None),
    "convergence-const-midpoint": (
        "19be75e859daedd568861caf88ac54fe190eb27ccd52a7c8c325609d7e4ccdc0", None),
    "perturb-x": (
        "ba4bb4332718b827db7149049a827243ec7815c106fe1d635321c240efec950c",
        "7f00c08e7199230ab13d4bfb70c0207842508999fbcf21b148ff799633d76b31"),
    "perturb-sin2pix": (
        "74fc3e58a6abd56f20cd22a9af545238efe9817a92f8973693df2f6f07b8dbdc",
        "eb4242126120018261cf89bdc6d1720d65943a083390671f124da3d269a32917"),
    "verify-small-exhaustive-csv": (
        "c9e5abdc5755fe46dc7d1b4c8fa725b78fa9c2edd307596b7bc634bc220ce4c8",
        "8fe835a719ee10f7063e14392ddef70438a840f57c4fcb61c7fbb88eed9e8b08"),
    "verify-small-exhaustive-structured": (
        "c9e5abdc5755fe46dc7d1b4c8fa725b78fa9c2edd307596b7bc634bc220ce4c8",
        "7c58d4c50c86ab44d9ee7348bbb6ef88f74016b5922f6f4a97dcee13fc919ab0"),
    "bounds-points": (
        "a7ca7c258d8a710fc1e8ba241706f1d12c20ce995385995d085a352e1fc7c822", None),
    "bounds-grid-mode": (
        "5ad377bd29b9da605d2591b2f52adea6c46c6095a598533f85c862eea03cf0d1", None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case_id,args,writes_out", CASES,
                         ids=[c[0] for c in CASES])
def test_report_bytes_pinned(case_id, args, writes_out, tmp_path):
    args = list(args)
    if case_id == "bounds-points":
        config = tmp_path / "instance.json"
        config.write_text(json.dumps(SIN_QUADRANTS))
        points = tmp_path / "nodes.txt"
        points.write_text(SIN_QUADRANTS_POINTS)
        args += ["--config", str(config), "--points", str(points)]
    if case_id == "bounds-grid-mode":
        config = tmp_path / "instance.json"
        config.write_text(json.dumps(GRID_QUADRATIC))
        args += ["--config", str(config)]
    out = tmp_path / "report"
    if writes_out:
        args += ["--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    want_stdout, want_out = DIGESTS[case_id]
    got_out = _sha(out.read_bytes()) if writes_out else None
    assert (_sha(result.stdout.encode("utf-8")), got_out) == (want_stdout, want_out)

"""Convergence report bytes at depth 12, pinned for every family and strategy.

Depth 12 takes each run through 2 + 4 + ... + 4096 = 8190 cells and as
many nodes, so a change to how the 1-D cube partitions are built, how
nodes are placed or normalised, or how the per-cell ranges and integrals
are taken shows up here as a changed digest.  The digests were recorded
once and are kept here, like those of test_cli_bytes.py.
"""

import hashlib

import pytest
from click.testing import CliRunner

from qmcbounds.cli import main

# (family, strategy) -> sha256 of the report on stdout, at --seed 5
DIGESTS = {
    ("x", "cell-midpoint"):
        "bba2fbf5f8eda7382ea63623f81e4b80267c0473af62917e51c3927a50b743fd",
    ("x", "per-cell-equispaced"):
        "bba2fbf5f8eda7382ea63623f81e4b80267c0473af62917e51c3927a50b743fd",
    ("x", "seeded-random-in-cell"):
        "5b6f102908472af251edadeb3cc593772e0ef936bbad735ef5f2b4d743808146",
    ("x2", "cell-midpoint"):
        "dc6907378f24a2faff79341e7bd111448bab55f2a9dda8639fffbfbc2e5372a9",
    ("x2", "per-cell-equispaced"):
        "dc6907378f24a2faff79341e7bd111448bab55f2a9dda8639fffbfbc2e5372a9",
    ("x2", "seeded-random-in-cell"):
        "e390154bef5e78683c7fc5990fe7742024f4ef85bfadc2cbc4ef80ff17ddc0e7",
    ("sin2pix", "cell-midpoint"):
        "725ed9f4299ad0fbc9ef531dc4b95ea8b01db46e716b042bffde9de9d4d6c0e6",
    ("sin2pix", "per-cell-equispaced"):
        "725ed9f4299ad0fbc9ef531dc4b95ea8b01db46e716b042bffde9de9d4d6c0e6",
    ("sin2pix", "seeded-random-in-cell"):
        "c19ee00fbc9d642292a63557ae4306e6ecf34c586df02da79f2f27ad16308d98",
    ("const", "cell-midpoint"):
        "adf66fa29fb95394c790aabf1f50f21dc287b80fccd5e959e197000fa1fcbddf",
    ("const", "per-cell-equispaced"):
        "adf66fa29fb95394c790aabf1f50f21dc287b80fccd5e959e197000fa1fcbddf",
    ("const", "seeded-random-in-cell"):
        "adf66fa29fb95394c790aabf1f50f21dc287b80fccd5e959e197000fa1fcbddf",
}


@pytest.mark.parametrize("family, strategy", list(DIGESTS),
                         ids=[f"{f}-{s}" for f, s in DIGESTS])
def test_depth_12_report_bytes_pinned(family, strategy):
    result = CliRunner().invoke(main, [
        "convergence", "--family", family, "--depth", "12",
        "--strategy", strategy, "--seed", "5",
    ])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == DIGESTS[family, strategy]

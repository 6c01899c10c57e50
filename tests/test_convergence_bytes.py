"""Convergence report bytes at depth 12, pinned for every family and
strategy: the convergence-d12 pins of pinned.py, run as
test_cli_bytes.py runs the others."""

import pytest

from pinned import PINS, assert_pinned

DEPTH_12 = [name for name in PINS if "-d12-" in name]


@pytest.mark.parametrize("name", DEPTH_12,
                         ids=[name.removeprefix("convergence-d12-") for name in DEPTH_12])
def test_depth_12_report_bytes_pinned(name, tmp_path):
    assert_pinned(name, tmp_path)

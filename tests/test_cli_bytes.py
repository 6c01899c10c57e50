"""The CLI byte contract: report bytes pinned across commits.

Each pin of pinned.py marked in_process runs through CliRunner, and
the sha256 of each of its reports is compared with the one
tests/pins.sha256 records; the depth-12 convergence pins run in
test_convergence_bytes.py.  Rerun identity is covered in test_cli.py;
this file catches a change that alters the bytes deterministically.
"""

from collections import Counter

import pytest

from pinned import PINS, assert_pinned, manifest, reports


@pytest.mark.parametrize("name", [name for name, pin in PINS.items()
                                  if pin.in_process and "-d12-" not in name])
def test_report_bytes_pinned(name, tmp_path):
    assert_pinned(name, tmp_path)


def test_every_pinned_report_has_one_manifest_line():
    # a report with no line would go unchecked, and a line with no
    # report would check nothing
    written = Counter(report for name in PINS for report in reports(name))
    assert Counter(report for report, _ in manifest()) == written

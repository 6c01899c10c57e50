"""Row formats and deterministic file output for the CLI reports.

Column orders are fixed and documented here; floats are rendered with
repr (shortest round-trip form) and booleans as lowercase true/false, so
the same inputs always produce byte-identical files.  Files are written
to a temporary sibling and renamed into place, so a failed run never
leaves a partial file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

from .bounds import BoundSet
from .estimator import BoundReport
from .oracle import VerificationVerdict

BOUNDSET_COLUMNS = (
    "instance_id", "N", "k", "theorem1", "corollary1", "corollary2", "D", "exact",
)
REPORT_COLUMNS = (
    "instance_id", "N", "k", "estimate", "integral", "error",
    "corollary2", "corollary1", "theorem1", "exact",
)
VERDICT_COLUMNS = (
    "instance_id", "atoms", "k", "N", "configurations", "worst_error",
    "corollary2", "corollary1", "theorem1", "tightness", "passed",
    "argmax_configuration",
)
CONVERGENCE_COLUMNS = (
    "k", "corollary2", "corollary1", "theorem1", "realized_error", "adversarial_error",
)
PERTURB_COLUMNS = ("metric", "seed", "before", "after", "identical")


def boundset_row(bounds: BoundSet, instance_id: str, n_points, k: int) -> dict:
    return {
        "instance_id": instance_id,
        "N": "" if n_points is None else n_points,
        "k": k,
        "theorem1": bounds.theorem1,
        "corollary1": bounds.corollary1,
        "corollary2": bounds.corollary2,
        "D": bounds.distance,
        "exact": bounds.exact,
    }


def report_row(report: BoundReport, k: int) -> dict:
    return {
        "instance_id": report.instance_id,
        "N": report.n_points,
        "k": k,
        "estimate": report.estimate,
        "integral": report.integral,
        "error": report.error,
        "corollary2": report.bounds.corollary2,
        "corollary1": report.bounds.corollary1,
        "theorem1": report.bounds.theorem1,
        "exact": report.bounds.exact,
    }


def _serialize_configuration(verdict: VerificationVerdict) -> str:
    labels = verdict.instance.space.labels
    return "|".join(
        ",".join(labels[a] for a in cell_nodes)
        for cell_nodes in verdict.argmax_configuration
    )


def verdict_row(verdict: VerificationVerdict) -> dict:
    instance = verdict.instance
    return {
        "instance_id": instance.instance_id,
        "atoms": instance.space.n_atoms,
        "k": instance.partition.k,
        "N": instance.n_points,
        "configurations": verdict.total_configurations,
        "worst_error": verdict.worst_error,
        "corollary2": verdict.bounds.corollary2,
        "corollary1": verdict.bounds.corollary1,
        "theorem1": verdict.bounds.theorem1,
        "tightness": verdict.tightness,
        "passed": verdict.passed,
        "argmax_configuration": _serialize_configuration(verdict),
    }


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows, columns) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(row.get(c, "")) for c in columns])
    return out.getvalue()


def render_structured(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def write_atomic(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(path, rows, columns, fmt: str, summary: dict | None = None) -> None:
    """Write rows to path in the chosen format (csv or structured)."""
    if fmt == "csv":
        write_atomic(path, render_csv(rows, columns))
        return
    payload = {"columns": list(columns), "rows": [
        {c: row.get(c, "") for c in columns} for row in rows
    ]}
    if summary is not None:
        payload["summary"] = summary
    write_atomic(path, render_structured(payload))

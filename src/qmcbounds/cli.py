"""Command-line reports over the library.

Four subcommands: ``verify`` (exhaustive finite-space soundness sweep),
``bounds`` (bound values for one instance, optionally scored against a
point-set file), ``convergence`` (dyadic refinement study on [0,1]), and
``perturb`` (spike-robustness study).  Reports are CSV or structured
JSON, written atomically; rerunning a command with the same inputs
produces byte-identical files.

Exit codes: 0 on success, 1 when a verification or certification check
fails, 2 for usage and configuration errors.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click

from . import reports
from .bounds import bound_set
from .errors import BoundViolationError, NotUniformError, QmcBoundsError
from .estimator import bound_report
from .experiments import (
    MAX_PERTURB_CELLS,
    MAX_PERTURB_SPIKES,
    MAX_PLACEMENT_SEEDS,
    MAX_REFINEMENT_DEPTH,
    NAMED_FUNCTIONS,
    convergence_table,
    named_function,
    perturb_table,
    run_verification,
)
from .instances import load_instances
from .oracle import small_exhaustive_suite
from .pointsets import DEFAULT_ENUMERATION_CAP, STRATEGIES, load_pointset

FORMAT_CHOICE = click.Choice(["csv", "structured"])


def _usage_errors(command):
    """Turn a library error that the command lets through into a usage
    error, exit 2.  Applied below the click decorators, it raises in the
    command's context, so the usage line names the command."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except QmcBoundsError as exc:
            raise click.UsageError(str(exc)) from None
    return run


def _echo_rows(rows, columns) -> None:
    click.echo(reports.render_csv(rows, columns), nl=False)


def _failure_line(verdict) -> str:
    """Why a verdict failed: its instance, the first check it fails, that
    check's margin and the slack every check allows."""
    check, margin = verdict.failure
    return (f"verify: instance {verdict.instance.instance_id!r} fails {check}: "
            f"margin {margin!r}, slack {verdict.slack!r}")


@click.group()
def main():
    """Uniform point sets with certified integration error bounds."""


@main.command("verify")
@click.option("--suite", type=click.Choice(["small-exhaustive"]), default=None,
              help="Run a built-in instance suite instead of a config file.")
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help="JSON file with one instance or a list of instances.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Write per-instance verdict rows here.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed offset for the built-in suite.")
@click.option("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, show_default=True,
              help="Refuse instances with more configurations than this.")
@_usage_errors
def cmd_verify(suite, config_path, out_path, fmt, seed, cap):
    """Exhaustively verify the bounds on finite-space instances."""
    if (suite is None) == (config_path is None):
        raise click.UsageError("pass exactly one of --suite or --config")
    if suite is not None:
        instances = small_exhaustive_suite(seed_offset=seed)
    else:
        instances = load_instances(config_path)
    verdicts, summary, _ = run_verification(instances, cap=cap)
    rows = [reports.verdict_row(v) for v in verdicts]
    if out_path is not None:
        reports.emit(out_path, rows, reports.VERDICT_COLUMNS, fmt, summary)
    for verdict in verdicts:
        if not verdict.passed:
            click.echo(_failure_line(verdict), err=True)
    click.echo(json.dumps(summary))
    if summary["failed"] > 0:
        sys.exit(1)


@main.command("bounds")
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True,
              help="JSON file with one instance.")
@click.option("--points", "points_path", type=click.Path(path_type=Path), default=None,
              help="Point-set file to score against the bounds.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@_usage_errors
def cmd_bounds(config_path, points_path, out_path, fmt):
    """Bound values for an instance; with --points, the full report."""
    instances = load_instances(config_path)
    if len(instances) != 1:
        raise click.UsageError("bounds needs exactly one instance")
    inst = instances[0]
    if points_path is None:
        rows = [reports.boundset_row(bound_set(inst.function, inst.partition),
                                     inst.instance_id, inst.n_points, inst.partition.k)]
        columns = reports.BOUNDSET_COLUMNS
    else:
        nodes = load_pointset(points_path, inst.partition)
        try:
            report = bound_report(inst.function, inst.partition, nodes,
                                  inst.instance_id)
        except NotUniformError as exc:
            click.echo(f"not uniform: {exc}", err=True)
            sys.exit(1)
        except BoundViolationError as exc:
            click.echo(f"bound violation: {exc}", err=True)
            sys.exit(1)
        rows = [reports.report_row(report, inst.partition.k)]
        columns = reports.REPORT_COLUMNS
    if out_path is not None:
        reports.emit(out_path, rows, columns, fmt)
    _echo_rows(rows, columns)


@main.command("convergence")
@click.option("--family", type=click.Choice(NAMED_FUNCTIONS), default="x",
              show_default=True)
@click.option("--depth", type=int, default=6, show_default=True,
              help=f"Dyadic refinement depth, at most {MAX_REFINEMENT_DEPTH}.")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="cell-midpoint",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@_usage_errors
def cmd_convergence(family, depth, strategy, seed, out_path, fmt):
    """Bounds and realized errors under dyadic refinement of [0,1]."""
    rows = convergence_table(named_function(family), depth, strategy, seed)
    if out_path is not None:
        reports.emit(out_path, rows, reports.CONVERGENCE_COLUMNS, fmt)
    _echo_rows(rows, reports.CONVERGENCE_COLUMNS)


@main.command("perturb")
@click.option("--family", type=click.Choice(NAMED_FUNCTIONS), default="x",
              show_default=True)
@click.option("--cells", "k", type=int, default=4, show_default=True)
@click.option("--spikes", "n_spikes", type=int, default=5, show_default=True)
@click.option("--spike-magnitude", type=float, default=None,
              help="Pin every spike to this value instead of drawing from [1e3, 1e6].")
@click.option("--placement-seeds", type=int, default=1000, show_default=True,
              help="Seeded-random point sets to score before and after.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@_usage_errors
def cmd_perturb(family, k, n_spikes, spike_magnitude, placement_seeds, seed,
                out_path, fmt):
    """Show that spike overrides cannot move the certified bounds."""
    for option, size, least, most in (("--cells", k, 1, MAX_PERTURB_CELLS),
                                      ("--spikes", n_spikes, 0, MAX_PERTURB_SPIKES),
                                      ("--placement-seeds", placement_seeds, 0,
                                       MAX_PLACEMENT_SEEDS)):
        if not least <= size <= most:
            raise click.UsageError(f"{option} must be in {least}..{most}, got {size}")
    if spike_magnitude is not None and not math.isfinite(spike_magnitude):
        raise click.UsageError("--spike-magnitude must be a finite number")
    rows, summary = perturb_table(named_function(family), k, n_spikes, seed=seed,
                                  magnitude=spike_magnitude, placement_seeds=placement_seeds)
    if out_path is not None:
        reports.emit(out_path, rows, reports.PERTURB_COLUMNS, fmt, summary)
    click.echo(json.dumps(summary))
    if not summary["bounds_identical"] or summary["identical_errors"] != placement_seeds:
        sys.exit(1)


if __name__ == "__main__":
    main()

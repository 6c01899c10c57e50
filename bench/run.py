"""Benchmark runner for qmcbounds.

    python3 bench/run.py --workload cube-refine --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One invocation sets the workload up several times (``setup_s`` is the
median, plus the median import time of fresh interpreters), runs one
warm-up pass, then repeats timed passes for ``--seconds`` and reports
medians.  Between passes it times the fixed kernel of reference.py, and
end-to-end timings are passes in units of that kernel's time, which
cancels the host's drifting speed.  Every pass's outputs are checked,
once per invocation the
in-process report is compared byte for byte with the CLI's, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones and nothing is
patched.  With ``--trace 1`` the first part of the time runs untraced
passes as the overhead baseline, the rest runs passes with every layer
function wrapped (see tracer.py), and the metrics are per-layer.  The
full record, with provenance, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 3
MIN_PASSES = 3
# Reference-kernel runs between passes; their median is the host's speed.
KERNEL_REPEATS = 3
# Share of --seconds the traced invocation spends on untraced passes.
TRACE_BASELINE_SHARE = 0.4
SUBPROCESS_TIMEOUT_S = 120
MESSAGE_CHARS = 300

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qmcbounds\n"
    "{scipy}"
    "print(time.perf_counter() - t)\n"
)
SCIPY_WARMUP = (
    "from scipy.optimize import linprog\n"
    "linprog([1.0], bounds=[(0.0, 1.0)], method='highs')\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def import_seconds(uses_scipy: bool) -> float:
    """Import time of qmcbounds (plus a first LP solve) in a fresh interpreter."""
    code = IMPORT_PROBE.format(scipy=SCIPY_WARMUP if uses_scipy else "")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=library_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def run_parity(checks, parity) -> list:
    """Run each CLI command once and compare its report bytes."""
    records = []
    RESULTS.mkdir(exist_ok=True)
    for p in parity:
        workdir = Path(tempfile.mkdtemp(prefix="parity-", dir=RESULTS))
        try:
            for name, write in p.files:
                write(workdir / name)
            done = subprocess.run(
                [sys.executable, "-m", "qmcbounds.cli", *p.args], cwd=workdir,
                env=library_env(), capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
            produced = done.stdout
            if p.out_file is not None and (workdir / p.out_file).is_file():
                produced = (workdir / p.out_file).read_bytes()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expected = p.expected.encode("utf-8")
        same = done.returncode == 0 and produced == expected
        checks.require(same, f"CLI {p.name}: report differs from the in-process one "
                             f"(exit {done.returncode})")
        records.append({
            "name": p.name,
            "command": ["qmcbounds", *p.args],
            "exit_code": done.returncode,
            "identical": same,
            "sha256": hashlib.sha256(produced).hexdigest(),
        })
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmcbounds" / "__init__.py").is_file():
        print(f"error: no qmcbounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qmcbounds

    if Path(qmcbounds.__file__).resolve().parent != SRC / "qmcbounds":
        print(f"error: imported qmcbounds from {qmcbounds.__file__}", file=sys.stderr)
        return 2
    from qmcbounds.errors import QmcBoundsError
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    imports = [import_seconds(wl.uses_scipy) for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)
    counters = wl.counters(inputs)

    checks = workloads.Checks()
    first: dict = {}
    raised: list[str] = []

    def one_pass() -> float | None:
        """Run, time and check one pass; None once the library has raised."""
        if raised:
            return None
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs)
        except QmcBoundsError as exc:
            raised.append(repr(exc)[:MESSAGE_CHARS])
            checks.require(False, f"pass raised {raised[-1]}")
            return None
        elapsed = time.perf_counter() - t0
        wl.check(inputs, out, checks)
        if not first:
            first.update(out)
        else:
            checks.require(out["report"] == first["report"],
                           "report bytes differ between passes")
        return elapsed

    def kernel_seconds() -> float:
        return statistics.median(reference.kernel_seconds() for _ in range(KERNEL_REPEATS))

    def passes(seconds: float, before=None, after=None) -> dict:
        """Timed passes, each also in reference units: its wall time over
        the mean of the reference kernel times just before and after it."""
        times: list[float] = []
        ratios: list[float] = []
        kernels = [kernel_seconds()]
        start = time.perf_counter()
        while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
            if before is not None:
                before()
            elapsed = one_pass()
            if elapsed is None:
                break
            kernels.append(kernel_seconds())
            times.append(elapsed)
            ratios.append(elapsed / ((kernels[-2] + kernels[-1]) / 2.0))
            if after is not None:
                after(elapsed)
        return {"times_s": times, "ref": ratios, "kernel_s": kernels}

    one_pass()  # warm-up
    layers: list[dict] = []
    last_spans: list = []
    baseline: dict = {"times_s": []}
    if args.trace:
        baseline = passes(args.seconds * TRACE_BASELINE_SHARE)
        tracer = tracing.Tracer()

        def keep(elapsed: float) -> None:
            layers.append(tracing.summarize(tracer.spans, elapsed))
            last_spans[:] = tracer.spans

        with tracer.patched():
            timed = passes(args.seconds * (1.0 - TRACE_BASELINE_SHARE),
                           before=tracer.reset, after=keep)
    else:
        timed = passes(args.seconds)
    if not timed["times_s"] or (args.trace and not baseline["times_s"]):
        print("error: no pass completed: " + "; ".join(raised), file=sys.stderr)
        return 1

    wl.once(inputs, checks)
    parity = run_parity(checks, wl.parity(inputs, first))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report_bytes = first["report"].encode("utf-8")
    if args.trace:
        metrics = layer_metrics(layers, counters, len(report_bytes), timed, baseline, checks)
    else:
        run_ref = statistics.median(timed["ref"])
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_ref": (run_ref, "ref"),
            "cells_per_ref": (counters["cells"] / run_ref, "1/ref"),
            "nodes_per_ref": (counters["nodes"] / run_ref, "1/ref"),
            "configs_per_ref": (counters["configs"] / run_ref, "1/ref"),
            "evals_per_ref": (counters["evals"] / run_ref, "1/ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "counters_per_pass": counters,
        "setup": {"import_s": imports, "build_s": builds, "setup_s": setup_s},
        "passes": {"count": len(timed["times_s"]), **timed,
                   "quartiles_s": quartiles(timed["times_s"]),
                   "quartiles_ref": quartiles(timed["ref"])},
        "untraced_baseline": baseline,
        "reports": {"sha256": hashlib.sha256(report_bytes).hexdigest(),
                    "bytes": len(report_bytes)},
        "cli_parity": parity,
        "peak_rss_mb": peak_rss_mb,
        "failures": checks.failures[:50],
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(RESULTS / f"{wl.name}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in last_spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
    for message in checks.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_metrics(layers, counters, report_bytes, timed, baseline, checks) -> dict:
    """Per-layer medians over the traced passes, beside the exact counters."""
    metrics = {}
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.s"] = (statistics.median(l["self_s"][name] for l in layers), "s")
        metrics[f"{name}.calls"] = (layers[-1]["calls"][name], "count")
    calls = layers[-1]["calls"]
    for layer, counter in (("funcmodel.evaluate", "node_evals"),
                           ("funcmodel.essential_range", "cells"),
                           ("spaces.cell_index_of", "nodes_checked")):
        checks.require(calls[layer] == counters[counter],
                       f"{layer}: {calls[layer]} calls, {counters[counter]} {counter}")
    oracle_s = metrics["oracle.worst_case_error.s"][0]
    metrics.update({
        "spaces.cells_validated": (counters["cells_validated"], "count"),
        "pointsets.nodes_checked": (counters["nodes_checked"], "count"),
        "funcmodel.node_evals": (counters["node_evals"], "count"),
        "funcmodel.grid_samples": (counters["grid_samples"], "count"),
        "oracle.configurations": (counters["configurations"], "count"),
        "oracle.configs_per_s": (
            counters["configurations"] / oracle_s if oracle_s > 0 else 0.0, "1/s"),
        "reports.bytes": (report_bytes, "count"),
        "run_s": (statistics.median(baseline["times_s"]), "s"),
        "host.kernel_s": (statistics.median(baseline["kernel_s"] + timed["kernel_s"]), "s"),
        "trace.pass_s": (statistics.median(timed["times_s"]), "s"),
        "trace.overhead": (
            statistics.median(timed["ref"]) / statistics.median(baseline["ref"]), "ratio"),
        "trace.uncovered_s": (statistics.median(l["uncovered_s"] for l in layers), "s"),
        "trace.spans": (layers[-1]["spans"], "count"),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())

"""Run one qmcbounds command and report its wall time and peak RSS.

    python .github/scripts/timed_cli.py [--stdout FILE] SUBCOMMAND [ARGS...]

Runs ``python -m qmcbounds.cli SUBCOMMAND ARGS...`` with ``src`` on the
import path, from the root of a checkout.  The command's standard output
goes to FILE, or is discarded.  One line with the command, its wall time
and its peak RSS is appended to the file that GITHUB_STEP_SUMMARY names,
or written to standard error when that variable is unset.  The exit
status is the command's.  The numbers are reported, not checked.
"""

import os
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    out_path = None
    if argv[:1] == ["--stdout"]:
        out_path, argv = argv[1], argv[2:]
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    with open(out_path or os.devnull, "wb") as out:
        status = subprocess.run([sys.executable, "-m", "qmcbounds.cli", *argv],
                                env=env, stdout=out).returncode
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    line = f"qmcbounds {' '.join(argv)}: {wall:.1f} s, peak RSS {peak_mb:.0f} MB\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(line)
    else:
        sys.stderr.write(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

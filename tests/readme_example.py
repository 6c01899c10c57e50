"""Run README.md's library example and check the values its comments state.

    PYTHONPATH=src python tests/readme_example.py

The example is read from README.md as it stands, not copied.  The
script needs only the standard library and the package, so it also
checks that the runtime imports nothing else; it prints each stated
value and exits 1 when one does not hold.
"""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def example_source(readme: Path = README) -> str:
    """The first fenced python block under the "## Library example" heading."""
    section = readme.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)


def run_example(readme: Path = README) -> dict:
    """The example's names after it has run."""
    names: dict = {}
    exec(compile(example_source(readme), str(readme), "exec"), names)
    return names


def stated_values(names: dict) -> list:
    """(what the comment states, whether it holds) for each stated value."""
    bounds, report = names["bounds"], names["report"]
    return [
        (f"theorem1 = 0.75: {bounds.theorem1!r}", bounds.theorem1 == 0.75),
        (f"corollary1 = 0.75: {bounds.corollary1!r}", bounds.corollary1 == 0.75),
        (f"corollary2 = 0.5: {bounds.corollary2!r}", bounds.corollary2 == 0.5),
        (f"estimate = 0.328125: {report.estimate!r}", report.estimate == 0.328125),
        (f"error ~ 0.0052: {report.error!r}", round(report.error, 4) == 0.0052),
        (f"error <= corollary2: {report.bounds.corollary2!r}",
         report.error <= report.bounds.corollary2),
    ]


def main() -> int:
    failed = 0
    for text, holds in stated_values(run_example()):
        print(("ok    " if holds else "FAIL  ") + text)
        failed += not holds
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

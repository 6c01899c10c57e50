"""Run the library's per-node passes under spies that refuse a keyword flag.

    PYTHONPATH=src python tests/per_node_calls.py

``FunctionModel.evaluate`` and ``Partition.cell_index_of`` run once per
node or per atom, and every library loop passes their ``normal`` flag
positionally: CPython 3.11 and later inline a method call only when it
carries no keyword names.  The script replaces both methods with spies
whose flag is positional-only, so a keyword call raises TypeError, and
runs each pass that makes such calls: ``bound_report`` on built 1-D and
2-D sets and on a raw tuple, ``convergence_table``, ``perturb_table``
with its naive baseline, ``verify_bounds_exhaustive`` on a small finite
instance and ``qmc_estimate`` of a ``PiecewiseConstant`` model.  It
needs only the standard library and the package, prints one line per
pass and exits 1 when one fails or makes no call.
"""

import contextlib
import sys

from qmcbounds import (
    BoxCell,
    FiniteCell,
    FunctionModel,
    Partition,
    PiecewiseConstant,
    Quadratic,
    bound_report,
    construct_uniform,
    equal_partition_1d,
    make_cube_space,
    make_finite_space,
    make_partition,
    qmc_estimate,
)
from qmcbounds.experiments import convergence_table, named_function, perturb_table
from qmcbounds.funcmodel import FiniteTable
from qmcbounds.oracle import verify_bounds_exhaustive


@contextlib.contextmanager
def positional_spies():
    """Patch both per-node methods with forwarding spies whose flag is
    positional-only; yield the calls each one counted, by method name."""
    calls = {"evaluate": 0, "cell_index_of": 0}
    evaluate, cell_index_of = FunctionModel.evaluate, Partition.cell_index_of

    def evaluate_spy(self, point, normal=False, /):
        calls["evaluate"] += 1
        return evaluate(self, point, normal)

    def cell_index_of_spy(self, point, normal=False, /):
        calls["cell_index_of"] += 1
        return cell_index_of(self, point, normal)

    FunctionModel.evaluate, Partition.cell_index_of = evaluate_spy, cell_index_of_spy
    try:
        yield calls
    finally:
        FunctionModel.evaluate, Partition.cell_index_of = evaluate, cell_index_of


def _passes() -> list:
    """(name, the pass, whether it looks nodes up in cells)."""
    line = equal_partition_1d(8)
    plane = make_partition(make_cube_space(2), [
        BoxCell((i / 4, j / 4), ((i + 1) / 4, (j + 1) / 4)) for i in range(4) for j in range(4)])
    quadratic = FunctionModel(Quadratic(0.1, (-0.7, 0.3), (0.9, -0.6)), (((0.5, 0.5), -3.0),))
    atoms = make_finite_space([(str(i), 0.25) for i in range(1, 5)])
    atom_cells = make_partition(atoms, [FiniteCell((0, 1)), FiniteCell((2, 3))])
    table = FunctionModel(FiniteTable((0.0, 1.0, 2.0, 4.0), atoms.labels))
    pieces = FunctionModel(PiecewiseConstant(equal_partition_1d(4), (1.0, -2.0, 3.0, 0.5)))
    x = named_function("x")
    return [
        ("bound_report on a built 1-D set",
         lambda: bound_report(x, line, construct_uniform(line, 16, seed=1)), True),
        ("bound_report on a built 2-D set",
         lambda: bound_report(quadratic, plane, construct_uniform(plane, 32, seed=2)), True),
        ("bound_report on a raw tuple",
         lambda: bound_report(x, line, tuple(construct_uniform(line, 8, seed=3).nodes)), True),
        ("convergence_table of x2 to depth 4",
         lambda: convergence_table(named_function("x2"), 4, "seeded-random-in-cell"), False),
        ("perturb_table with its naive baseline",
         lambda: perturb_table(x, 8, 3, placement_seeds=3), False),
        ("verify_bounds_exhaustive on 4 atoms",
         lambda: verify_bounds_exhaustive(atoms, atom_cells, table, 2), False),
        ("qmc_estimate of a PiecewiseConstant model",
         lambda: qmc_estimate(pieces, [(0.125,), (0.375,), (0.625,), (0.875,)]), True),
    ]


def checked_passes() -> list:
    """(what ran and what it called, whether it held) for each pass."""
    results = []
    for name, run, looks_up in _passes():
        with positional_spies() as calls:
            try:
                run()
            except TypeError as refused:
                results.append((f"{name}: {refused}", False))
                continue
        counted = f"{calls['evaluate']} evaluate, {calls['cell_index_of']} cell_index_of calls"
        holds = calls["evaluate"] > 0 and (calls["cell_index_of"] > 0 or not looks_up)
        results.append((f"{name}: {counted}", holds))
    return results


def main() -> int:
    failed = 0
    for text, holds in checked_passes():
        print(("ok    " if holds else "FAIL  ") + text)
        failed += not holds
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

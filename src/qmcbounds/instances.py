"""Instance descriptors and their JSON schema.

An instance bundles a space, a partition of it, a function model, and
optionally a point-set size N.  The JSON field names below are stable
and safe to script against:

    {
      "instance_id": "example",            optional
      "space":      {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]}
                  | {"kind": "cube", "dimension": 1},
      "partition":  {"cells": [CELL, ...]},
      "function":   {"family": NAME, "params": {...}, "spikes": [[[x...], v], ...]},
      "range_mode": {"mode": "exact"}
                  | {"mode": "grid", "resolution": 64, "levels": 2},
      "N": 4                               optional
    }

    CELL = {"atoms": [0, 1]}               finite spaces (atom indices)
         | {"box": [[lo, hi], ...]}        cube spaces (per-axis extents)

Families and their params:

    affine              {"intercept": c, "slopes": [a1, ...]}
    quadratic           {"intercept": c, "linear": [b1, ...], "quadratic": [q1, ...]}
    sinusoid            {"amplitude": A, "frequency": f, "phase": p,
                         "offset": o, "axis": 0}
    piecewise_constant  {"values": [v1, ...], "cells": [CELL, ...]}
                        (cells form their own partition of the space)
    finite_table        {"values": [v1, ...]}  (aligned with the atoms)

Spikes are cube-space only, like everywhere else.  Every parameter,
value and spike value must be a finite number: Python's json module
reads NaN and Infinity, and the models reject them with a message
naming the field, which the loader passes on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InstanceFormatError, QmcBoundsError
from .funcmodel import (
    Affine,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    PiecewiseConstant,
    Quadratic,
    Sinusoid,
)
from .spaces import (
    BoxCell,
    Cell,
    CubeSpace,
    FiniteCell,
    FiniteSpace,
    Partition,
    Space,
    make_cube_space,
    make_finite_space,
    make_partition,
)


@dataclass(frozen=True)
class Instance:
    instance_id: str
    space: Space
    partition: Partition
    function: FunctionModel
    n_points: int | None = None


def space_to_json(space: Space) -> dict:
    if isinstance(space, FiniteSpace):
        return {
            "kind": "finite",
            "atoms": [[label, w] for label, w in zip(space.labels, space.weights)],
        }
    return {"kind": "cube", "dimension": space.dimension}


def cell_to_json(cell: Cell) -> dict:
    if isinstance(cell, FiniteCell):
        return {"atoms": list(cell.atoms)}
    return {"box": [[lo, hi] for lo, hi in zip(cell.lower, cell.upper)]}


def function_to_json(f: FunctionModel) -> dict:
    base = f.base
    if isinstance(base, Affine):
        family, params = "affine", {
            "intercept": base.intercept,
            "slopes": list(base.slopes),
        }
    elif isinstance(base, Quadratic):
        family, params = "quadratic", {
            "intercept": base.intercept,
            "linear": list(base.linear),
            "quadratic": list(base.quadratic),
        }
    elif isinstance(base, Sinusoid):
        family, params = "sinusoid", {
            "amplitude": base.amplitude,
            "frequency": base.frequency,
            "phase": base.phase,
            "offset": base.offset,
            "axis": base.axis,
        }
    elif isinstance(base, PiecewiseConstant):
        family, params = "piecewise_constant", {
            "values": list(base.values),
            "cells": [cell_to_json(c) for c in base.partition.cells],
        }
    elif isinstance(base, FiniteTable):
        family, params = "finite_table", {"values": list(base.values)}
    else:
        raise QmcBoundsError(f"family {type(base).__name__} has no JSON form")
    out = {"family": family, "params": params}
    if f.spikes:
        out["spikes"] = [[list(point), value] for point, value in f.spikes]
    return out


def range_mode_to_json(mode: GridRangeMode | None) -> dict:
    if mode is None:
        return {"mode": "exact"}
    return {"mode": "grid", "resolution": mode.resolution, "levels": mode.levels}


def instance_to_json(instance: Instance) -> dict:
    out = {
        "instance_id": instance.instance_id,
        "space": space_to_json(instance.space),
        "partition": {"cells": [cell_to_json(c) for c in instance.partition.cells]},
        "function": function_to_json(instance.function),
        "range_mode": range_mode_to_json(instance.function.range_mode),
    }
    if instance.n_points is not None:
        out["N"] = instance.n_points
    return out


def _need(obj: dict, key: str, context: str):
    if not isinstance(obj, dict) or key not in obj:
        raise InstanceFormatError(f"{context}: missing field {key!r}")
    return obj[key]


def space_from_json(obj: dict) -> Space:
    kind = _need(obj, "kind", "space")
    if kind == "finite":
        atoms = _need(obj, "atoms", "space")
        try:
            return make_finite_space([(str(a[0]), float(a[1])) for a in atoms])
        except (TypeError, ValueError, IndexError) as exc:
            raise InstanceFormatError(f"space: malformed atoms {atoms!r}") from exc
    if kind == "cube":
        dimension = _need(obj, "dimension", "space")
        if type(dimension) is not int or dimension < 1:  # bool is an int subclass
            raise InstanceFormatError(f"space: bad dimension {dimension!r}")
        return make_cube_space(dimension)
    raise InstanceFormatError(f"space: unknown kind {kind!r}")


def cell_from_json(obj: dict, space: Space) -> Cell:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"cell: expected an object, got {obj!r}")
    if isinstance(space, FiniteSpace):
        atoms = _need(obj, "atoms", "cell")
        try:
            return FiniteCell(tuple(int(a) for a in atoms))
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"cell: malformed atoms {atoms!r}") from exc
    spans = _need(obj, "box", "cell")
    try:
        lower = tuple(float(s[0]) for s in spans)
        upper = tuple(float(s[1]) for s in spans)
    except (TypeError, ValueError, IndexError) as exc:
        raise InstanceFormatError(f"cell: malformed box {spans!r}") from exc
    return BoxCell(lower, upper)


def range_mode_from_json(obj: dict | None) -> GridRangeMode | None:
    if obj is None:
        return None
    mode = _need(obj, "mode", "range_mode")
    if mode == "exact":
        return None
    if mode == "grid":
        try:
            return GridRangeMode(
                resolution=int(obj.get("resolution", 64)),
                levels=int(obj.get("levels", 2)),
            )
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"range_mode: malformed {obj!r}") from exc
    raise InstanceFormatError(f"range_mode: unknown mode {mode!r}")


def function_from_json(obj: dict, space: Space,
                       range_mode: GridRangeMode | None = None) -> FunctionModel:
    family = _need(obj, "family", "function")
    params = _need(obj, "params", "function")
    try:
        if family == "affine":
            base = Affine(
                float(params["intercept"]),
                tuple(float(a) for a in params["slopes"]),
            )
        elif family == "quadratic":
            base = Quadratic(
                float(params["intercept"]),
                tuple(float(b) for b in params["linear"]),
                tuple(float(q) for q in params["quadratic"]),
            )
        elif family == "sinusoid":
            dimension = space.dimension if isinstance(space, CubeSpace) else 1
            base = Sinusoid(
                amplitude=float(params["amplitude"]),
                frequency=float(params["frequency"]),
                phase=float(params.get("phase", 0.0)),
                offset=float(params.get("offset", 0.0)),
                axis=int(params.get("axis", 0)),
                dimension=dimension,
            )
        elif family == "piecewise_constant":
            cells = [cell_from_json(c, space) for c in params["cells"]]
            inner = make_partition(space, cells)
            base = PiecewiseConstant(inner, tuple(float(v) for v in params["values"]))
        elif family == "finite_table":
            if not isinstance(space, FiniteSpace):
                raise InstanceFormatError("function: finite_table needs a finite space")
            values = tuple(float(v) for v in params["values"])
            if len(values) != space.n_atoms:
                raise InstanceFormatError(
                    f"function: {len(values)} values for {space.n_atoms} atoms"
                )
            base = FiniteTable(values, space.labels)
        else:
            raise InstanceFormatError(f"function: unknown family {family!r}")
    except InstanceFormatError:
        raise
    except (KeyError, TypeError, ValueError, QmcBoundsError) as exc:
        raise InstanceFormatError(
            f"function: malformed params for {family!r}: {exc}"
        ) from exc
    spikes = []
    for entry in obj.get("spikes", []):
        try:
            point, value = entry
            spikes.append((tuple(float(c) for c in point), float(value)))
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"function: malformed spike {entry!r}") from exc
    try:
        return FunctionModel(base, tuple(spikes), range_mode)
    except (QmcBoundsError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"instance: expected an object, got {type(obj).__name__}")
    space = space_from_json(_need(obj, "space", "instance"))
    partition_obj = _need(obj, "partition", "instance")
    cells = [cell_from_json(c, space) for c in _need(partition_obj, "cells", "partition")]
    try:
        partition = make_partition(space, cells)
    except QmcBoundsError as exc:
        raise InstanceFormatError(f"partition: {exc}") from exc
    range_mode = range_mode_from_json(obj.get("range_mode"))
    function = function_from_json(_need(obj, "function", "instance"), space, range_mode)
    n_points = obj.get("N")
    if n_points is not None and (type(n_points) is not int or n_points < 1):  # excludes bool
        raise InstanceFormatError(f"instance: bad N {n_points!r}")
    return Instance(
        instance_id=str(obj.get("instance_id", "")),
        space=space,
        partition=partition,
        function=function,
        n_points=n_points,
    )


def load_instances(path) -> list[Instance]:
    """Read one instance object or a list of them from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "instances" in payload:
        payload = payload["instances"]
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise InstanceFormatError(f"{path}: expected an instance object or list")
    return [instance_from_json(obj) for obj in payload]


def save_instances(path, instances) -> None:
    payload = [instance_to_json(i) for i in instances]
    if len(payload) == 1:
        payload = payload[0]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

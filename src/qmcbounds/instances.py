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

Reading is strict, and a malformed field exits the CLI with 2 and a
message naming its path, such as ``partition: field 'cells[3].box[1]'
must be a two-entry list, got {}``.  An integer (atom index,
dimension, axis, resolution, levels, N) is a JSON integer, not true,
1.0 or "1"; a number is a JSON integer or float, not a boolean or a
string; instance_id, kind, family, mode and atom labels are strings.
Spikes are cube-space only.  Every parameter, value and spike value
must also be finite: Python's json module reads NaN and Infinity, and
the models reject them with a message naming the field.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from functools import partial

from .errors import InstanceFormatError, OutOfDomainError, QmcBoundsError
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

    def __post_init__(self):
        if self.space != self.partition.space:
            raise OutOfDomainError(f"instance {self.instance_id!r}: space is not partition.space")


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


def _scalar(kind: str, types: tuple, convert, value, path: str):
    """convert(value) if its type is exactly one of the types, so a boolean is
    not an integer; finiteness is the models' check, with their messages."""
    if type(value) in types:
        try:
            return convert(value)
        except OverflowError:  # float() of an integer past the largest double
            pass
    section, _, field = path.partition(".")
    raise InstanceFormatError(
        f"{section}: malformed field {field!r}: {reprlib.repr(value)} is not {kind}")


def _misshapen(path: str, value, kind: str) -> InstanceFormatError:
    """The error for a list or object at path that is not of its kind."""
    section, _, field = path.partition(".")
    name = f" field {field!r}" if field else ""
    return InstanceFormatError(f"{section}:{name} must be {kind}, got {reprlib.repr(value)}")


def _field(obj, key: str, path: str, read=None, default=...):
    """read(obj[key], path.key), or obj[key] if read is None; default if key is absent."""
    if type(obj) is not dict:
        raise _misshapen(path, obj, "an object")
    if key in obj:
        return obj[key] if read is None else read(obj[key], f"{path}.{key}")
    if default is ...:  # required
        section, _, field = f"{path}.{key}".partition(".")
        raise InstanceFormatError(f"{section}: missing field {field!r}")
    return default


def _array(item, value, path: str) -> tuple:
    """A JSON list, each entry read by item(entry, path[i])."""
    if type(value) is not list:
        raise _misshapen(path, value, "a list")
    return tuple([item(entry, f"{path}[{i}]") for i, entry in enumerate(value)])


def _pair(first, second, value, path: str) -> tuple:
    if type(value) is not list or len(value) != 2:
        raise _misshapen(path, value, "a two-entry list")
    return first(value[0], f"{path}[0]"), second(value[1], f"{path}[1]")


_number = partial(_scalar, "a number", (int, float), float)
_integer = partial(_scalar, "an integer", (int,), int)
_text = partial(_scalar, "a string", (str,), str)
_numbers = partial(_array, _number)
_indices = partial(_array, _integer)
_atoms = partial(_array, partial(_pair, _text, _number))
_box = partial(_array, partial(_pair, _number, _number))
_spikes = partial(_array, partial(_pair, _numbers, _number))


def _build(section: str, make, *args, **kwargs):
    """make(*args, **kwargs); what it refuses is malformed in the section."""
    try:
        return make(*args, **kwargs)
    except (ValueError, QmcBoundsError) as exc:
        raise InstanceFormatError(f"{section}: malformed: {exc}") from exc


def space_from_json(obj: dict) -> Space:
    kind = _field(obj, "kind", "space", _text)
    if kind == "finite":
        return _build("space", make_finite_space, _field(obj, "atoms", "space", _atoms))
    if kind == "cube":
        return _build("space", make_cube_space, _field(obj, "dimension", "space", _integer))
    raise InstanceFormatError(f"space: unknown kind {kind!r}")


def cell_from_json(obj: dict, space: Space, path: str = "cell") -> Cell:
    if isinstance(space, FiniteSpace):
        return FiniteCell(_field(obj, "atoms", path, _indices))
    spans = _field(obj, "box", path, _box)
    return BoxCell([lo for lo, _ in spans], [hi for _, hi in spans])


def _cells(value, path: str, space: Space) -> Partition:
    cells = _array(lambda cell, at: cell_from_json(cell, space, at), value, path)
    return _build(path.partition(".")[0], make_partition, space, cells)


def range_mode_from_json(obj: dict | None) -> GridRangeMode | None:
    mode = "exact" if obj is None else _field(obj, "mode", "range_mode", _text)
    if mode == "exact":
        return None
    if mode == "grid":
        return _build("range_mode", GridRangeMode,
                      _field(obj, "resolution", "range_mode", _integer, 64),
                      _field(obj, "levels", "range_mode", _integer, 2))
    raise InstanceFormatError(f"range_mode: unknown mode {mode!r}")


def function_from_json(obj: dict, space: Space,
                       range_mode: GridRangeMode | None = None) -> FunctionModel:
    family = _field(obj, "family", "function", _text)
    params = _field(obj, "params", "function")
    def param(key, read=_number, default=...):
        return _field(params, key, "function.params", read, default)
    if family == "affine":
        base = _build("function", Affine, param("intercept"), param("slopes", _numbers))
    elif family == "quadratic":
        base = _build("function", Quadratic, param("intercept"), param("linear", _numbers),
                      param("quadratic", _numbers))
    elif family == "sinusoid":
        base = _build("function", Sinusoid, param("amplitude"), param("frequency"),
                      param("phase", default=0.0), param("offset", default=0.0),
                      param("axis", _integer, 0),
                      space.dimension if isinstance(space, CubeSpace) else 1)
    elif family == "piecewise_constant":
        base = _build("function", PiecewiseConstant, param("cells", partial(_cells, space=space)),
                      param("values", _numbers))
    elif family == "finite_table":
        if not isinstance(space, FiniteSpace):
            raise InstanceFormatError("function: finite_table needs a finite space")
        base = _build("function", FiniteTable, param("values", _numbers), space.labels)
    else:
        raise InstanceFormatError(f"function: unknown family {family!r}")
    spikes = _field(obj, "spikes", "function", _spikes, ())
    return _build("function", FunctionModel, base, spikes, range_mode)


def instance_from_json(obj: dict) -> Instance:
    space = space_from_json(_field(obj, "space", "instance"))
    partition = _field(_field(obj, "partition", "instance"), "cells", "partition",
                       partial(_cells, space=space))
    range_mode = range_mode_from_json(_field(obj, "range_mode", "instance", default=None))
    function = function_from_json(_field(obj, "function", "instance"), space, range_mode)
    n_points = _field(obj, "N", "instance", _integer, None)
    if n_points is not None and n_points < 1:
        raise InstanceFormatError(f"instance: bad N {n_points!r}")
    instance_id = _field(obj, "instance_id", "instance", _text, "")
    return Instance(instance_id, space, partition, function, n_points)


def load_instances(path) -> list[Instance]:
    """Read one instance object or a list of them from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # json's decode errors, and integers past 4300 digits
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

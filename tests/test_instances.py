"""JSON serialization of instance descriptors."""

import json
import math

import pytest
from click.testing import CliRunner

from qmcbounds import (
    Affine,
    FiniteCell,
    FiniteTable,
    FunctionModel,
    GridRangeMode,
    Instance,
    InstanceFormatError,
    PiecewiseConstant,
    Quadratic,
    Sinusoid,
    box,
    equal_partition_1d,
    instance_from_json,
    instance_to_json,
    load_instances,
    make_cube_space,
    make_finite_space,
    make_partition,
    random_instance,
    save_instances,
)
from qmcbounds.cli import main


def roundtrip(instance):
    return instance_from_json(json.loads(json.dumps(instance_to_json(instance))))


def test_roundtrip_finite_table():
    space = make_finite_space([("a", 0.5), ("b", 0.25), ("c", 0.25)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1, 2))])
    f = FunctionModel(FiniteTable((1.0, -2.0, 0.5), space.labels))
    inst = Instance("ft", space, p, f, 4)
    assert roundtrip(inst) == inst


def test_roundtrip_piecewise_constant_finite():
    space = make_finite_space([("a", 0.5), ("b", 0.5)])
    p = make_partition(space, [FiniteCell((0,)), FiniteCell((1,))])
    f = FunctionModel(PiecewiseConstant(p, (3.0, -1.0)))
    inst = Instance("pc-fin", space, p, f, 2)
    assert roundtrip(inst) == inst


def test_roundtrip_affine_cube():
    space = make_cube_space(2)
    p = make_partition(space, [
        box((0.0, 0.5), (0.0, 1.0)), box((0.5, 1.0), (0.0, 1.0)),
    ])
    f = FunctionModel(Affine(0.25, (1.0, -0.5)))
    inst = Instance("affine2d", space, p, f, 8)
    assert roundtrip(inst) == inst


def test_roundtrip_quadratic_with_spikes_and_grid_mode():
    space = make_cube_space(1)
    p = equal_partition_1d(4)
    f = FunctionModel(
        Quadratic(0.0, (0.0,), (1.0,)),
        spikes=(((0.3,), 100.0), ((0.7,), -5.0)),
        range_mode=GridRangeMode(resolution=32, levels=3),
    )
    inst = Instance("spiky", space, p, f, 4)
    back = roundtrip(inst)
    assert back == inst
    assert back.function.spikes == (((0.3,), 100.0), ((0.7,), -5.0))
    assert back.function.range_mode == GridRangeMode(resolution=32, levels=3)


def test_roundtrip_sinusoid():
    space = make_cube_space(1)
    p = equal_partition_1d(3)
    f = FunctionModel(Sinusoid(amplitude=2.0, frequency=1.0, phase=0.5, offset=1.0))
    inst = Instance("sin", space, p, f, None)
    back = roundtrip(inst)
    assert back == inst
    assert back.n_points is None


def test_roundtrip_random_instances():
    for seed in range(10):
        inst = random_instance(seed)
        assert roundtrip(inst) == inst


def test_json_field_names_are_stable():
    inst = random_instance(0)
    obj = instance_to_json(inst)
    assert set(obj) == {"instance_id", "space", "partition", "function",
                        "range_mode", "N"}
    assert obj["space"]["kind"] == "finite"
    assert all(set(c) == {"atoms"} for c in obj["partition"]["cells"])
    assert obj["function"]["family"] == "finite_table"
    assert obj["range_mode"] == {"mode": "exact"}


def test_missing_space_rejected():
    with pytest.raises(InstanceFormatError):
        instance_from_json({"partition": {"cells": []}, "function": {}})


def test_unknown_space_kind_rejected():
    with pytest.raises(InstanceFormatError):
        instance_from_json({
            "space": {"kind": "graph"},
            "partition": {"cells": []},
            "function": {"family": "affine", "params": {}},
        })


def test_unknown_family_rejected():
    space = {"kind": "cube", "dimension": 1}
    with pytest.raises(InstanceFormatError):
        instance_from_json({
            "space": space,
            "partition": {"cells": [{"box": [[0.0, 1.0]]}]},
            "function": {"family": "bessel", "params": {}},
        })


def test_non_covering_partition_rejected():
    with pytest.raises(InstanceFormatError):
        instance_from_json({
            "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
            "partition": {"cells": [{"atoms": [0]}]},
            "function": {"family": "finite_table", "params": {"values": [1.0, 2.0]}},
        })


def test_wrong_table_length_rejected():
    with pytest.raises(InstanceFormatError):
        instance_from_json({
            "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
            "partition": {"cells": [{"atoms": [0, 1]}]},
            "function": {"family": "finite_table", "params": {"values": [1.0]}},
        })


def test_spike_on_finite_space_rejected():
    # spikes only exist on the cube; the model-level rejection surfaces
    # as a format error when it comes from JSON
    with pytest.raises(InstanceFormatError):
        instance_from_json({
            "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
            "partition": {"cells": [{"atoms": [0, 1]}]},
            "function": {
                "family": "finite_table",
                "params": {"values": [1.0, 2.0]},
                "spikes": [[[0], 9.0]],
            },
        })


def line_instance_json():
    return instance_to_json(Instance(
        "line", make_cube_space(1), equal_partition_1d(2),
        FunctionModel(Affine(0.0, (1.0,))), 2,
    ))


def test_spike_outside_the_cube_rejected():
    obj = line_instance_json()
    obj["function"]["spikes"] = [[[1.5], 3.0]]
    with pytest.raises(InstanceFormatError):
        instance_from_json(obj)


def test_bad_n_rejected():
    obj = instance_to_json(random_instance(1))
    obj["N"] = -3
    with pytest.raises(InstanceFormatError):
        instance_from_json(obj)
    obj["N"] = "four"
    with pytest.raises(InstanceFormatError):
        instance_from_json(obj)


def test_boolean_n_rejected():
    # bool is a subclass of int, so true would otherwise load as N = 1
    obj = instance_to_json(random_instance(1))
    obj["N"] = True
    with pytest.raises(InstanceFormatError):
        instance_from_json(obj)


def test_boolean_dimension_rejected():
    obj = line_instance_json()
    obj["space"]["dimension"] = True
    with pytest.raises(InstanceFormatError):
        instance_from_json(obj)


def test_load_single_object(tmp_path):
    inst = random_instance(2)
    path = tmp_path / "one.json"
    save_instances(path, [inst])
    # a single instance is saved as a bare object, not a one-item list
    assert json.loads(path.read_text())["instance_id"] == "rand-2"
    loaded = load_instances(path)
    assert loaded == [inst]


def test_load_list_and_wrapper(tmp_path):
    instances = [random_instance(i) for i in range(3)]
    plain = tmp_path / "list.json"
    save_instances(plain, instances)
    assert load_instances(plain) == instances
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(
        {"instances": [instance_to_json(i) for i in instances]}
    ))
    assert load_instances(wrapped) == instances


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instances(path)


def test_load_wrong_payload_type(tmp_path):
    path = tmp_path / "num.json"
    path.write_text("42")
    with pytest.raises(InstanceFormatError):
        load_instances(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(InstanceFormatError):
        load_instances(tmp_path / "absent.json")


def _finite_json(atoms=(0, 1)):
    return {"instance_id": "two", "space": {"kind": "finite", "atoms": [["a", 0.5], ["b", 0.5]]},
            "partition": {"cells": [{"atoms": list(atoms)}]},
            "function": {"family": "finite_table", "params": {"values": [1.0, 2.0]}}, "N": 2}


def _edited(obj, *path_and_value):
    *path, key, value = path_and_value
    node = obj
    for step in path:
        node = node[step]
    node[key] = value
    return obj


@pytest.mark.parametrize("obj, field", [
    # each loaded, as the cell (0, 1), axis 0, GridRangeMode(8, ...),
    # levels 1, the values (1.0, 1.0) and the intercept 2.5
    (_finite_json([0.9, 1]), "'cells[0].atoms[0]'"),
    (_finite_json([True, 0]), "'cells[0].atoms[0]'"),
    (_finite_json(["1", "0"]), "'cells[0].atoms[0]'"),
    (_edited(line_instance_json(), "function", {
        "family": "sinusoid", "params": {"amplitude": 1.0, "frequency": 1.0, "axis": 0.7}}),
     "'params.axis'"),
    (_edited(line_instance_json(), "range_mode", {"mode": "grid", "resolution": 8.9}),
     "'resolution'"),
    (_edited(line_instance_json(), "range_mode", {"mode": "grid", "levels": True}),
     "'levels'"),
    (_edited(_finite_json(), "function", "params", "values", ["1", True]),
     "'params.values[0]'"),
    (_edited(line_instance_json(), "function", "params", "intercept", "2.5"),
     "'params.intercept'"),
], ids=["atom-0.9", "atom-true", "atom-strings", "axis-0.7", "resolution-8.9",
        "levels-true", "values-strings", "intercept-string"])
def test_loosely_typed_field_exits_2_naming_it(tmp_path, obj, field):
    config = tmp_path / "instance.json"
    config.write_text(json.dumps(obj))
    result = CliRunner().invoke(main, ["bounds", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert f"field {field}" in result.stderr


@pytest.mark.parametrize("edit", [
    # str() made these "None", "inf" and "inf", and the last two reached
    # an exit-0 report
    ("instance_id", None), ("instance_id", math.inf), ("space", "atoms", 0, 0, math.inf),
], ids=["id-null", "id-infinity", "label-infinity"])
def test_non_string_id_or_label_rejected(edit):
    with pytest.raises(InstanceFormatError, match="is not a string"):
        instance_from_json(_edited(_finite_json(), *edit))


def test_omitted_id_loads_as_empty():
    obj = _finite_json()
    del obj["instance_id"]
    assert instance_from_json(obj).instance_id == ""


QUADRANTS = make_partition(make_cube_space(2), [
    box((0.0, 0.5), (0.0, 0.5)), box((0.5, 1.0), (0.0, 0.5)),
    box((0.0, 0.5), (0.5, 1.0)), box((0.5, 1.0), (0.5, 1.0))])


@pytest.mark.parametrize("base", [
    Affine(0.25, (1.0, -0.5)),
    Quadratic(0.1, (-0.7, 0.3), (0.9, -0.6)),
    Sinusoid(2.0, 1.5, 0.5, 1.0, axis=1, dimension=2),
    PiecewiseConstant(QUADRANTS, (1.0, -2.0, 0.5, 3e-300)),
], ids=["affine", "quadratic", "sinusoid", "piecewise_constant"])
@pytest.mark.parametrize("range_mode", [None, GridRangeMode(16, 1)], ids=["exact", "grid"])
def test_saved_cube_instances_load_back_equal(tmp_path, base, range_mode):
    f = FunctionModel(base, spikes=(((0.25, 0.75), 9.0), ((1.0, 0.0), -3.5)),
                      range_mode=range_mode)
    inst = Instance("cube", QUADRANTS.space, QUADRANTS, f, 8)
    path = tmp_path / "cube.json"
    save_instances(path, [inst])
    assert load_instances(path) == [inst]


def test_saved_random_instances_load_back_equal(tmp_path):
    instances = [random_instance(seed) for seed in range(100)]
    path = tmp_path / "random.json"
    save_instances(path, instances)
    assert load_instances(path) == instances

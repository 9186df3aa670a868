"""Model loading, validation, discretization, and derived structure."""

import json
import math

import numpy as np
import pytest

from trusspath.fixtures import DEFAULT_MATERIAL, DEFAULT_SECTION, load_bundled_model
from trusspath.truss import (
    ModelError,
    discretize_element,
    load_model,
    serialize_model,
)


def toy_doc():
    """Two stacked bays: 4 elements, lowest two grounded at the base."""
    return {
        "name": "toy",
        "nodes": [
            {"id": 0, "xyz": [0.0, 0.0, 0.0], "grounded": True},
            {"id": 1, "xyz": [100.0, 0.0, 0.0], "grounded": True},
            {"id": 2, "xyz": [0.0, 0.0, 100.0]},
            {"id": 3, "xyz": [100.0, 0.0, 100.0]},
        ],
        "elements": [
            {"id": 0, "start": 0, "end": 2, "layer": 0},
            {"id": 1, "start": 1, "end": 3, "layer": 0},
            {"id": 2, "start": 2, "end": 3, "layer": 1},
            {"id": 3, "start": 0, "end": 3, "layer": 1},
        ],
        "material": DEFAULT_MATERIAL,
        "section": DEFAULT_SECTION,
    }


def test_load_model_from_dict():
    model = load_model(toy_doc())
    assert model.n_nodes == 4
    assert model.n_elements == 4
    assert model.grounded_node_ids() == [0, 1]
    assert model.layers() == [0, 1]
    assert model.element_length(0) == pytest.approx(100.0)
    assert model.element_length(3) == pytest.approx(math.sqrt(2.0) * 100.0)
    assert np.allclose(model.element_midpoint(2), [50.0, 0.0, 100.0])


def test_serialize_round_trip():
    model = load_model(toy_doc())
    doc = serialize_model(model)
    again = load_model(doc)
    assert serialize_model(again) == doc
    assert again.n_elements == model.n_elements
    assert [n.position for n in again.nodes] == [n.position for n in model.nodes]


def test_load_model_from_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(toy_doc()))
    model = load_model(path)
    assert model.name == "toy"
    assert model.n_elements == 4


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelError, match="not found"):
        load_model(tmp_path / "absent.json")


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ModelError, match="not valid JSON"):
        load_model(path)


def test_load_model_rejects_a_non_object_document():
    with pytest.raises(ModelError, match="must be a JSON object"):
        load_model([])


def test_validation_rejects_bad_models():
    base = toy_doc()

    doc = json.loads(json.dumps(base))
    doc["nodes"].append({"id": 0, "xyz": [1.0, 1.0, 1.0]})
    with pytest.raises(ModelError, match="duplicate node"):
        load_model(doc)

    doc = json.loads(json.dumps(base))
    doc["elements"].append({"id": 9, "start": 3, "end": 0})
    with pytest.raises(ModelError, match="duplicates an existing node pair"):
        load_model(doc)

    doc = json.loads(json.dumps(base))
    doc["elements"][0]["end"] = 77
    with pytest.raises(ModelError, match="unknown node"):
        load_model(doc)

    doc = json.loads(json.dumps(base))
    doc["elements"][0]["end"] = 0
    with pytest.raises(ModelError, match="zero length"):
        load_model(doc)

    doc = json.loads(json.dumps(base))
    for n in doc["nodes"]:
        n["grounded"] = False
    with pytest.raises(ModelError, match="no grounded"):
        load_model(doc)

    doc = json.loads(json.dumps(base))
    del doc["material"]
    with pytest.raises(ModelError, match="missing 'material'"):
        load_model(doc)

    doc = json.loads(json.dumps(base))
    doc["section"]["area"] = -1.0
    with pytest.raises(ModelError):
        load_model(doc)


MODEL_NUMBERS = [
    ("nodes", 0, "id"),
    ("nodes", 2, "xyz", 1),
    ("elements", 1, "start"),
    ("material", "elastic_modulus"),
    ("material", "density"),
    ("section", "area"),
    ("section", "j"),
    ("section", "radius"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "path", MODEL_NUMBERS, ids=["-".join(map(str, p)) for p in MODEL_NUMBERS]
)
def test_load_model_rejects_non_finite_numbers(path, value):
    doc = json.loads(json.dumps(toy_doc()))  # the shared material stays intact
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    # an id read as an integer fails its conversion instead
    with pytest.raises(ModelError, match="not a finite number|cannot convert float"):
        load_model(doc)


@pytest.mark.parametrize("value", ["480", True, None], ids=["string", "bool", "null"])
@pytest.mark.parametrize(
    "path", MODEL_NUMBERS, ids=["-".join(map(str, p)) for p in MODEL_NUMBERS]
)
def test_load_model_rejects_non_numbers(path, value):
    doc = json.loads(json.dumps(toy_doc()))
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ModelError, match="is not a number|is not an integer"):
        load_model(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("elements", 0, "end"), 1.9),
        (("elements", 1, "start"), "1"),
        (("elements", 2, "id"), 2.5),
        (("elements", 0, "layer"), True),
        (("nodes", 1, "id"), 0.7),
        (("nodes", 0, "grounded"), "no"),
        (("nodes", 2, "grounded"), 1),
    ],
    ids=["fractional-end", "string-start", "fractional-id", "bool-layer",
         "fractional-node-id", "string-grounded", "integer-grounded"],
)
def test_load_model_rejects_values_that_are_not_what_they_say(path, value):
    doc = json.loads(json.dumps(toy_doc()))
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ModelError, match="is not an integer|is not true or false"):
        load_model(doc)


def test_load_model_reads_integral_floats_as_integers():
    doc = json.loads(json.dumps(toy_doc()))
    doc["elements"][0]["end"] = 2.0
    doc["elements"][0]["layer"] = 0.0
    element = load_model(doc).element(0)
    assert (element.end, element.layer) == (2, 0)
    assert type(element.end) is int


def test_validation_rejects_floating_parts():
    doc = toy_doc()
    # island: two nodes and an element with no path to ground
    doc["nodes"] += [
        {"id": 10, "xyz": [500.0, 500.0, 0.0]},
        {"id": 11, "xyz": [600.0, 500.0, 0.0]},
    ]
    doc["elements"].append({"id": 9, "start": 10, "end": 11})
    with pytest.raises(ModelError, match="not connected to ground"):
        load_model(doc)


def test_discretize_spacing_and_endpoints():
    model = load_model(toy_doc())
    for spacing in (5.0, 7.3, 33.0, 250.0):
        pts = discretize_element(model, 3, spacing)
        seg = model.element_segment(3)
        assert np.allclose(pts[0], seg[0])
        assert np.allclose(pts[-1], seg[1])
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert steps.max() <= spacing + 1e-9
        assert steps.std() < 1e-9  # uniform
        length = model.element_length(3)
        assert len(pts) == int(np.ceil(length / spacing)) + 1


def test_discretize_start_node_flips_direction():
    model = load_model(toy_doc())
    fwd = discretize_element(model, 2, 10.0, start_node=2)
    rev = discretize_element(model, 2, 10.0, start_node=3)
    assert np.allclose(fwd[0], model.node_position(2))
    assert np.allclose(fwd, rev[::-1])
    with pytest.raises(ModelError, match="not an endpoint"):
        discretize_element(model, 2, 10.0, start_node=0)
    with pytest.raises(ModelError, match="spacing"):
        discretize_element(model, 2, 0.0)


def test_bundled_cube_loads():
    model = load_bundled_model("cube")
    assert model.n_elements == 23
    assert len(model.grounded_node_ids()) >= 3
    assert len(model.layers()) > 1
    # all elements reachable, ids dense from 0
    assert [e.id for e in model.elements] == list(range(23))

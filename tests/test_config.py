"""Configuration defaults, overrides, and validation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from trusspath.config import (
    PlannerConfig,
    PlannerConfigError,
    TransitionSettings,
    finite,
    integer,
    load_config,
)
from trusspath.fixtures import load_bundled_model, load_bundled_robot
from trusspath.sequence import plan_sequence


def test_defaults_are_valid():
    cfg = load_config()
    assert cfg.direction_count == 72
    assert cfg.rotation_samples == 16
    assert cfg.use_decomposition is True
    assert cfg.collision_cost_ordering is False
    assert cfg.clearance == 2.0
    assert cfg.path_spacing == 5.0
    assert cfg.retraction_length == 25.0
    assert cfg.jump_limit == 0.15
    assert cfg.capsule_budget == 6
    assert cfg.seed == 0
    assert cfg.transition.max_iterations == 3000
    cfg.validate()  # must not raise


def test_load_config_from_dict_and_file(tmp_path):
    cfg = load_config({"direction_count": 16, "seed": 5})
    assert cfg.direction_count == 16
    assert cfg.seed == 5
    assert cfg.rotation_samples == 16  # untouched default

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"clearance": 3.5, "transition": {"step": 0.1}}))
    cfg = load_config(path)
    assert cfg.clearance == 3.5
    assert cfg.transition.step == 0.1
    assert cfg.transition.max_iterations == 3000


def test_load_config_rejects_unknown_keys():
    with pytest.raises(PlannerConfigError, match="unknown config keys"):
        load_config({"direction_cout": 16})
    with pytest.raises(PlannerConfigError, match="unknown transition keys"):
        load_config({"transition": {"stepp": 0.1}})
    with pytest.raises(PlannerConfigError, match="must be an object"):
        load_config({"transition": 7})
    with pytest.raises(PlannerConfigError, match="JSON object"):
        load_config([])  # type: ignore[arg-type]


def test_load_config_missing_or_bad_file(tmp_path):
    with pytest.raises(PlannerConfigError, match="not found"):
        load_config(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("nope{")
    with pytest.raises(PlannerConfigError, match="not valid JSON"):
        load_config(bad)


def test_validation_bounds():
    bad_values = [
        {"direction_count": 3},
        {"rotation_samples": 0},
        {"kinematics_timeout": 0.0},
        {"search_timeout": -1.0},
        {"displacement_tolerance": 0.0},
        {"clearance": -0.5},
        {"path_spacing": 0.0},
        {"retraction_length": 0.0},
        {"jump_limit": 0.0},
        {"prismatic_jump_limit": -2.0},
        {"capsule_budget": 0},
        {"full_graph_vertex_cap": 0},
        {"seed": -1},
    ]
    for overrides in bad_values:
        with pytest.raises(PlannerConfigError):
            load_config(overrides)
    for overrides in [
        {"max_iterations": 0},
        {"step": 0.0},
        {"smoothing_iterations": -1},
        {"direct_timeout": 0.0},
    ]:
        with pytest.raises(PlannerConfigError):
            load_config({"transition": overrides})


def test_sequence_search_validates_its_config():
    # plan_sequence is public too, so it may not search with a config the
    # pipeline would have refused
    cube, arm = load_bundled_model("cube"), load_bundled_robot("arm")
    with pytest.raises(PlannerConfigError, match="rotation_samples"):
        plan_sequence(cube, arm, PlannerConfig(direction_count=24, rotation_samples=0))


def test_load_config_rejects_mistyped_values():
    # values are rejected, never converted, so a config's fingerprint is
    # always of the values as given
    for doc in [
        {"jump_limit": "a"},
        {"direction_count": 24.0},
        {"seed": True},
        {"use_decomposition": 1},
        {"search_timeout": None},
        {"transition": {"step": None}},
        {"transition": {"max_iterations": "3000"}},
    ]:
        with pytest.raises(PlannerConfigError, match="must be"):
            load_config(doc)
    cfg = load_config({"jump_limit": 1, "transition": {"direct_timeout": 2}})
    assert cfg.jump_limit == 1 and type(cfg.jump_limit) is int
    assert cfg.to_dict()["transition"]["direct_timeout"] == 2
    with pytest.raises(PlannerConfigError, match="clearance must be float"):
        PlannerConfig().replace(clearance="2")


# every float field of the config and of its transition block, so a new
# field is covered here without editing the test
FLOAT_FIELDS = [
    (block, f.name)
    for block, settings in ((None, PlannerConfig), ("transition", TransitionSettings))
    for f in dataclasses.fields(settings)
    if type(f.default) is float
]


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"]
)
@pytest.mark.parametrize(
    "block,name", FLOAT_FIELDS, ids=[f"{b}.{n}" if b else n for b, n in FLOAT_FIELDS]
)
def test_load_config_rejects_non_finite_numbers(tmp_path, block, name, value):
    doc = {name: value} if block is None else {block: {name: value}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens
    with pytest.raises(PlannerConfigError, match=f"{name} must be finite"):
        load_config(path)
    with pytest.raises(PlannerConfigError, match="must be finite"):
        load_config(doc)


def test_load_config_unreadable_file(tmp_path):
    with pytest.raises(PlannerConfigError, match="cannot be read"):
        load_config(tmp_path)
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xff\xfe")
    with pytest.raises(PlannerConfigError, match="not valid JSON"):
        load_config(bom)


def test_replace_revalidates():
    cfg = PlannerConfig()
    changed = cfg.replace(seed=9, clearance=1.0)
    assert changed.seed == 9 and changed.clearance == 1.0
    assert cfg.seed == 0  # original untouched
    with pytest.raises(PlannerConfigError):
        cfg.replace(path_spacing=-1.0)


def test_to_dict_round_trips():
    cfg = PlannerConfig(seed=3, transition=TransitionSettings(step=0.5))
    doc = cfg.to_dict()
    assert doc["seed"] == 3
    assert doc["transition"]["step"] == 0.5
    again = load_config(doc)
    assert again == cfg
    # the dict is JSON serializable as-is
    json.dumps(doc)


def test_integer_takes_integral_numbers_only():
    assert integer(3) == 3 and type(integer(3)) is int
    assert integer(3.0) == 3 and type(integer(3.0)) is int  # JSON typing
    assert integer(np.int64(2)) == 2
    for bad in (True, False, 1.9, 0.5, "1", None, [1]):
        with pytest.raises(ValueError, match="is not an integer"):
            integer(bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not a finite number"):
            integer(bad)


def test_finite_takes_ints_and_floats_only():
    assert finite(3) == 3.0 and type(finite(3)) is float
    assert finite(-0.5) == -0.5
    for bad in ("480", "1e3", True, False, None, [1.0], b"1"):
        with pytest.raises(ValueError, match="is not a number"):
            finite(bad)
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="not a finite number"):
            finite(bad)

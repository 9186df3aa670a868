"""The benchmark's plan checker: it passes a real plan, fails corrupted ones,
and its forward kinematics agrees with trusspath's.

Run from the repository root: python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import trusspath  # noqa: E402

DATA = ROOT / "src" / "trusspath" / "data"
CONFIG = trusspath.PlannerConfig(direction_count=24, rotation_samples=2)


@pytest.fixture(scope="module")
def robot_doc():
    return json.loads((DATA / "kr6_like.json").read_text())


@pytest.fixture(scope="module")
def model_doc():
    """The cube's ground ring plus one braced post: six elements."""
    cube = json.loads((DATA / "cube_23.json").read_text())
    keep = {0, 1, 2, 3, 4, 16}
    doc = dict(cube, name="ring-and-post")
    doc["nodes"] = [n for n in cube["nodes"] if n["id"] <= 4]
    doc["elements"] = [e for e in cube["elements"] if e["id"] in keep]
    return doc


@pytest.fixture(scope="module")
def planned(model_doc, robot_doc):
    model = trusspath.load_model(model_doc)
    robot = trusspath.load_robot(robot_doc)
    plan, report = trusspath.run_pipeline(model, robot, CONFIG)
    return trusspath.plan_to_dict(plan), report


def check(plan, model_doc, robot_doc):
    return checker.check_plan(plan, model_doc, robot_doc, CONFIG.jump_limit)


def test_planned_model_passes_and_costs_match_report(planned, model_doc, robot_doc):
    plan, report = planned
    assert check(plan, model_doc, robot_doc) == []
    cart = checker.cartesian_cost(plan, robot_doc)
    assert cart == pytest.approx(report.cartesian_cost, rel=1e-9)
    assert checker.transition_cost(plan, robot_doc) == pytest.approx(
        report.transition_cost, rel=1e-9
    )


def _extrusion(task):
    return next(s for s in task["subprocesses"] if s["kind"] == "extrusion")


def test_perturbed_joint_row_fails(planned, model_doc, robot_doc):
    plan = copy.deepcopy(planned[0])
    rows = _extrusion(plan["tasks"][1])["joints"]
    rows[len(rows) // 2][1] += 1e-3
    errors = check(plan, model_doc, robot_doc)
    assert any("off element" in e for e in errors), errors


def test_dropped_task_fails(planned, model_doc, robot_doc):
    plan = copy.deepcopy(planned[0])
    dropped = plan["tasks"].pop(2)
    errors = check(plan, model_doc, robot_doc)
    assert any("coverage" in e and str(dropped["element_id"]) in e for e in errors), errors


def test_swapped_tasks_fail(planned, model_doc, robot_doc):
    plan = copy.deepcopy(planned[0])
    tasks = plan["tasks"]
    tasks[1], tasks[2] = tasks[2], tasks[1]
    errors = check(plan, model_doc, robot_doc)
    assert any("from the previous row" in e for e in errors), errors


def test_unbuilt_anchor_fails(planned, model_doc, robot_doc):
    """An element whose nodes nothing placed before it can fail only on order."""
    doc = copy.deepcopy(model_doc)
    for n in doc["nodes"]:
        n["grounded"] = False
    errors = check(planned[0], doc, robot_doc)
    assert any("touches no built node" in e for e in errors), errors


def test_forward_kinematics_matches_trusspath(robot_doc):
    robot = trusspath.load_robot(robot_doc)
    lower, upper = checker.joint_limits(robot_doc)
    qs = np.random.default_rng(7).uniform(lower, upper, size=(200, len(lower)))
    ours = checker.forward_kinematics(robot_doc, qs)
    theirs = np.array([trusspath.fk_frames(robot, q)[-1] for q in qs])
    assert np.abs(ours - theirs).max() < 1e-9

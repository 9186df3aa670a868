"""End-to-end planning runs and the independent plan validator."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from dense_collision import dense_config_collides_batch, dense_ee_sweep_collision_batch
import trusspath
from trusspath import (
    cartesian,
    geometry,
    kinematics,
    pipeline,
    sequence as sequence_module,
    transition,
)
from trusspath.cartesian import CartesianPlanningError, retraction_points
from trusspath.config import PlannerConfig
from trusspath.fixtures import (
    bracing_tower,
    fixture_path,
    load_bundled_model,
    load_bundled_robot,
)
from trusspath.geometry import (
    CapsuleShape,
    EEGeometry,
    direction_rotation_from_frame,
    ee_self_collision,
    sample_directions,
)
from trusspath.kinematics import CapsuleSet, config_collides_batch, load_robot
from trusspath.pipeline import (
    PipelineError,
    input_fingerprints,
    run_pipeline,
    validate_plan,
)
from trusspath.postprocess import load_plan, save_plan
from trusspath.sequence import SequencePlanner, plan_sequence, rotation_sequence
from trusspath.truss import TrussModel, load_model, serialize_model

CFG = PlannerConfig(direction_count=24, rotation_samples=2)
CHECK_NAMES = [
    "format",
    "fingerprints",
    "continuity",
    "joint validity",
    "tool consistency",
    "clearance",
    "structure",
]


@pytest.fixture(scope="module")
def robot():
    return load_bundled_robot("arm")


@pytest.fixture(scope="module")
def model():
    return load_bundled_model("cube")


@pytest.fixture(scope="module")
def sequence(model, robot):
    return plan_sequence(model, robot, CFG)


@pytest.fixture(scope="module")
def planned(model, robot, sequence):
    return run_pipeline(model, robot, CFG, sequence=sequence)


def check_map(report):
    return {c.name: c for c in report.checks}


def test_plan_passes_every_validator_check(model, robot, planned):
    plan, _ = planned
    report = validate_plan(plan, model, robot, CFG)
    assert [c.name for c in report.checks] == CHECK_NAMES
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert report.passed
    table = report.table()
    assert "pass" in table and "FAIL" not in table


def test_document_layout(model, robot, planned):
    doc, _ = planned
    assert doc["version"] == "1"
    assert doc["dof"] == robot.dof
    assert len(doc["tasks"]) == len(model.elements)
    expect_kinds = ["transition", "retraction-approach", "extrusion", "retraction-depart"]
    sid = 0
    for task in doc["tasks"]:
        kinds = [s["kind"] for s in task["subprocesses"]]
        assert kinds == expect_kinds
        for sub in task["subprocesses"]:
            assert sub["id"] == sid
            sid += 1
            if sub["kind"] == "transition":
                assert sub["data_kind"] == "joint" and sub["tcp"] is None
            else:
                assert sub["data_kind"] == "tcp"
                assert len(sub["tcp"]) == len(sub["joints"])
            if sub["kind"] == "extrusion":
                assert sub["io_anchors"] == {
                    "extruder_on": 0,
                    "extruder_off": len(sub["joints"]) - 1,
                }
            else:
                assert sub["io_anchors"] is None
    # every element exactly once
    ids = sorted(t["element_id"] for t in doc["tasks"])
    assert ids == sorted(e.id for e in model.elements)


def test_report_accounting(planned):
    doc, report = planned
    n = len(doc["tasks"])
    assert report.transition_count == n
    assert 0 < report.capsules_built <= report.capsules_attempted
    assert report.cartesian_cost > 0.0
    assert report.transition_cost >= 0.0
    assert report.retraction_fallbacks == 0
    table = report.table()
    for word in ("sequence", "cartesian", "transitions", "total"):
        assert word in table
    total = next(line for line in table.splitlines() if line.startswith("total"))
    assert total.endswith(f"| {sum(len(t['subprocesses']) for t in doc['tasks'])} subprocesses")


def test_report_times_a_passed_in_sequence_by_its_own_stats(sequence, planned):
    _, report = planned
    assert report.sequence_stats is sequence.stats and sequence.stats.total_time > 0.0
    rows = {line.split(" |")[0].strip(): line for line in report.table().splitlines()}
    assert f"| {sequence.stats.total_time:9.2f} |" in rows["sequence"]
    total = sequence.stats.total_time + report.cartesian_time + report.transition_time
    assert f"| {total:9.2f} |" in rows["total"]


def test_report_counts_the_sampled_capsules(model, robot, sequence, monkeypatch):
    sampled = []

    def recording(*args, **kwargs):
        sampled.append(cartesian.expand_and_search(*args, **kwargs))
        return sampled[-1]

    monkeypatch.setattr(pipeline, "expand_and_search", recording)
    _, report = run_pipeline(model, robot, CFG, sequence=sequence)
    [sparse] = sampled
    assert report.capsules_built == sum(len(column) for column in sparse.columns)
    assert report.capsules_attempted == sparse.attempted
    assert f"{report.capsules_built}/{report.capsules_attempted} capsules" in report.table()


def test_culled_collision_tests_match_dense_oracles_on_a_cube_run(model, robot, monkeypatch):
    """Every robot-collision and extruder-sweep query that a 24 x 2 cube
    plan and its validation make gets the dense oracle's booleans."""
    oracles = {
        "config_collides_batch": (kinematics, dense_config_collides_batch),
        "ee_sweep_collision_batch": (geometry, dense_ee_sweep_collision_batch),
    }
    queries = {name: [] for name in oracles}
    for name, (home, _) in oracles.items():
        original = getattr(home, name)

        def recorded(*args, _original=original, _calls=queries[name], **kwargs):
            result = _original(*args, **kwargs)
            _calls.append((args, kwargs, result))
            return result

        for mod in (kinematics, geometry, pipeline, sequence_module, transition):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, recorded)

    plan, _ = run_pipeline(model, robot, CFG)
    assert validate_plan(plan, model, robot, CFG).passed
    for name, (_, oracle) in oracles.items():
        # rows decided: configs of a robot query, jobs of a stacked sweep
        assert sum(len(result) for _, _, result in queries[name]) > 100, name
        for args, kwargs, result in queries[name]:
            assert np.array_equal(result, oracle(*args, **kwargs)), name
        hits = np.concatenate([result.ravel() for _, _, result in queries[name]])
        assert hits.any() and not hits.all(), name


def test_retraction_fallbacks_are_counted(model, robot, sequence, monkeypatch):
    # every retraction fails, so each pass gets a one-row approach and depart
    monkeypatch.setattr(pipeline, "plan_retraction", lambda *args, **kwargs: None)
    plan, report = run_pipeline(model, robot, CFG, sequence=sequence)
    assert report.retraction_fallbacks == 2 * len(plan["tasks"])
    assert f"{report.retraction_fallbacks} retraction fallbacks" in report.table()
    verdict = validate_plan(plan, model, robot, CFG)
    assert verdict.passed, verdict.table()


def test_retraction_time_is_billed_to_the_cartesian_row(model, robot, sequence, monkeypatch):
    # the pipeline's clock moves only while a retraction is planned
    clock = [0.0]

    def slow_retraction(*args, **kwargs):
        clock[0] += 1.0
        return None

    monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(pipeline, "plan_retraction", slow_retraction)
    plan, report = run_pipeline(model, robot, CFG, sequence=sequence)
    assert report.cartesian_time == 2.0 * len(plan["tasks"])
    assert report.transition_time == 0.0


def test_tool_poses_are_billed_to_the_cartesian_row(model, robot, sequence, monkeypatch):
    # the pipeline's clock moves only while tool poses are computed: the
    # approach, extrusion and depart legs carry them, a transition does not
    clock = [0.0]
    tcp = pipeline.tcp_entries

    def slow_tcp(*args):
        clock[0] += 1.0
        return tcp(*args)

    monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(pipeline, "tcp_entries", slow_tcp)
    plan, report = run_pipeline(model, robot, CFG, sequence=sequence)
    assert report.cartesian_time == 3.0 * len(plan["tasks"])
    assert report.transition_time == 0.0


def test_static_capsule_is_an_obstacle_everywhere(model, robot, planned, monkeypatch):
    # a workcell static that wraps the first printed element: every pass
    # over it now touches the workcell
    doc, _ = planned
    first = doc["tasks"][0]
    eid = first["element_id"]
    p0, p1 = model.element_segment(eid)
    robot_doc = json.loads(fixture_path("kr6_like.json").read_text())
    robot_doc["static_capsules"] = [{"p0": list(p0), "p1": list(p1), "radius": 50.0}]
    walled = load_robot(robot_doc)
    assert len(walled.static_capsules) == 1

    rows = next(
        np.array(s["joints"]) for s in first["subprocesses"] if s["kind"] == "extrusion"
    )
    assert not config_collides_batch(robot, rows, CapsuleSet(()), clearance=CFG.clearance).any()
    assert config_collides_batch(walled, rows, CapsuleSet(()), clearance=CFG.clearance).all()

    assert SequencePlanner(model, robot, CFG)._ee_pose_exists(eid) is not None
    # the probe tests the static exactly once per config: with nothing
    # placed yet, at most one exact-kernel pass per collision query meets
    # the static, and the static is the one obstacle of that pass
    static = walled.static_scene
    queries, passes = [], []
    collides, contacts = kinematics.config_collides_batch, kinematics.mark_contacts

    def query(*args, **kwargs):
        queries.append(args)
        return collides(*args, **kwargs)

    def recording(hit, rows, segments, limit):
        _, _, q0, q1 = segments
        is_static = (q0 == static.a).all(axis=-1) & (q1 == static.b).all(axis=-1)
        if is_static.any():
            passes.append(bool(is_static.all()))
        contacts(hit, rows, segments, limit)

    monkeypatch.setattr(kinematics, "config_collides_batch", query)
    monkeypatch.setattr(kinematics, "mark_contacts", recording)
    assert SequencePlanner(model, walled, CFG)._ee_pose_exists(eid) is None
    monkeypatch.undo()
    assert passes and all(passes) and len(passes) <= len(queries)

    verdict = check_map(validate_plan(doc, model, walled, CFG))
    assert not verdict["clearance"].passed
    assert "colliding configs" in verdict["clearance"].detail


def test_rerun_is_byte_identical(model, robot, planned):
    doc, _ = planned
    plan2, _ = run_pipeline(model, robot, CFG)
    text1 = json.dumps(doc, sort_keys=True, indent=2)
    text2 = json.dumps(plan2, sort_keys=True, indent=2)
    assert text1 == text2


def test_plan_is_its_document(model, robot, planned, tmp_path):
    # the plan run_pipeline returns is the document save_plan writes and
    # load_plan reads back, and the validator cannot tell them apart
    plan, _ = planned
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    reloaded = load_plan(path)
    assert reloaded == plan
    in_memory = validate_plan(plan, model, robot, CFG)
    assert in_memory.passed
    assert validate_plan(reloaded, model, robot, CFG).table() == in_memory.table()


def test_railed_robot_plans_and_validates():
    # the bundled arm on a y rail, -500..500 mm, solved on its 100 mm grid
    doc = json.loads(fixture_path("kr6_like.json").read_text())
    doc["track"] = {"direction": [0.0, 1.0, 0.0], "lower": -500.0, "upper": 500.0, "step": 100.0}
    doc["home"]["track"] = 0.0
    railed = load_robot(doc)
    tower = bracing_tower(stories=1)
    plan, _ = run_pipeline(tower, railed, CFG)
    assert plan["dof"] == 7
    report = validate_plan(plan, tower, railed, CFG)
    assert report.passed, report.table()
    rail = np.array(
        [
            row[0]
            for t in plan["tasks"]
            for s in t["subprocesses"]
            if s["data_kind"] == "tcp"
            for row in s["joints"]
        ]
    )
    assert np.isin(rail, railed.track.positions()).all()
    again, _ = run_pipeline(tower, railed, CFG)
    text1 = json.dumps(plan, sort_keys=True, indent=2)
    text2 = json.dumps(again, sort_keys=True, indent=2)
    assert text1 == text2


def test_pipeline_accepts_precomputed_sequence(model, robot, planned):
    doc, _ = planned
    sequence = plan_sequence(model, robot, CFG)
    plan2, _ = run_pipeline(model, robot, CFG, sequence=sequence)
    assert plan2 == doc
    with pytest.raises(PipelineError, match="directions"):
        run_pipeline(model, robot, CFG.replace(direction_count=16), sequence=sequence)


def test_fingerprints_bind_inputs(model, robot, planned):
    plan, _ = planned
    base = input_fingerprints(model, robot, CFG)
    other = input_fingerprints(model, robot, CFG.replace(seed=CFG.seed + 1))
    assert base["model"] == other["model"]
    assert base["robot"] == other["robot"]
    assert base["config"] != other["config"]

    report = validate_plan(plan, model, robot, CFG.replace(seed=CFG.seed + 1))
    checks = check_map(report)
    assert not checks["fingerprints"].passed
    assert "config" in checks["fingerprints"].detail
    assert not report.passed


def test_robot_fingerprint_is_taken_at_load(model):
    doc = json.loads(fixture_path("kr6_like.json").read_text())
    robot = load_robot(doc)
    before = input_fingerprints(model, robot, CFG)["robot"]
    doc["name"] = "renamed after load"
    assert robot.name == "kr6-like"
    assert input_fingerprints(model, robot, CFG)["robot"] == before


def test_validator_catches_tampered_joints(model, robot, planned):
    doc, _ = planned
    bad = copy.deepcopy(doc)
    sub = bad["tasks"][2]["subprocesses"][2]
    assert sub["kind"] == "extrusion"
    row = len(sub["joints"]) // 2
    sub["joints"][row][2] += 0.4
    report = validate_plan(bad, model, robot, CFG)
    checks = check_map(report)
    assert not checks["joint validity"].passed
    assert "oversized steps" in checks["joint validity"].detail
    assert not checks["tool consistency"].passed
    assert not report.passed


def test_clearance_probe_is_bounded_by_the_joint_limits(model, robot, planned, monkeypatch):
    # a transition row far outside the limits must not size the probe: the
    # edges into and out of it are not interpolated, and the subprocess is
    # listed as not probed
    sizes = []

    def counting_stub(robot, configs, scene, clearance, upto=None):
        sizes.append(len(configs))
        return np.zeros(len(configs), dtype=bool)

    monkeypatch.setattr(pipeline, "config_collides_batch", counting_stub)
    doc, _ = planned
    report = validate_plan(doc, model, robot, CFG)
    assert check_map(report)["clearance"].passed
    clean = sum(sizes)  # the rows are stacked, so the probe is their total
    bad = copy.deepcopy(doc)
    sub = next(
        s for t in bad["tasks"] for s in t["subprocesses"]
        if s["kind"] == "transition" and len(s["joints"]) > 2
    )
    sub["joints"][1][0] = 1e4
    sizes.clear()
    checks = check_map(validate_plan(bad, model, robot, CFG))
    assert sum(sizes) <= clean
    assert not checks["joint validity"].passed
    assert not checks["clearance"].passed
    assert f"subprocess {sub['id']} (transition): not probed" in checks["clearance"].detail


def test_validator_checks_each_subprocess_by_position_not_id(model, robot, planned):
    # an out-of-limits row in a transition that carries its approach's id:
    # keyed by id, the approach's rows would be checked twice and the
    # transition's never
    doc, _ = planned
    bad = copy.deepcopy(doc)
    transition, approach = bad["tasks"][1]["subprocesses"][:2]
    assert (transition["kind"], approach["kind"]) == ("transition", "retraction-approach")
    transition["joints"].insert(1, [50.0] * robot.dof)
    transition["id"] = approach["id"]
    report = validate_plan(bad, model, robot, CFG)
    checks = check_map(report)
    assert checks["format"].passed
    assert checks["continuity"].passed, checks["continuity"].detail
    assert not checks["joint validity"].passed
    assert checks["joint validity"].detail.startswith("1 rows out of limits")
    assert not report.passed


def test_validator_catches_reordered_tasks(model, robot, planned):
    doc, _ = planned
    bad = copy.deepcopy(doc)
    bad["tasks"] = [bad["tasks"][-1]] + bad["tasks"][:-1]
    report = validate_plan(bad, model, robot, CFG)
    checks = check_map(report)
    assert not checks["structure"].passed
    assert "touches no built node" in checks["structure"].detail
    assert not report.passed


def test_validator_catches_fingerprint_edit(model, robot, planned):
    doc, _ = planned
    bad = copy.deepcopy(doc)
    fp = bad["fingerprints"]["model"]
    bad["fingerprints"]["model"] = ("0" if fp[0] != "0" else "1") + fp[1:]
    report = validate_plan(bad, model, robot, CFG)
    checks = check_map(report)
    assert not checks["fingerprints"].passed
    assert "model" in checks["fingerprints"].detail
    assert not report.passed


def test_format_failure_short_circuits(model, robot, planned):
    doc, _ = planned
    old_version = copy.deepcopy(doc)
    old_version["version"] = "999"
    null_tcp = copy.deepcopy(doc)
    null_tcp["tasks"][0]["subprocesses"][1]["tcp"] = None
    for bad, detail in ((old_version, "version"), (null_tcp, "tcp is not a list")):
        report = validate_plan(bad, model, robot, CFG)
        assert len(report.checks) == 1
        assert report.checks[0].name == "format"
        assert detail in report.checks[0].detail
        assert not report.passed


def test_non_finite_joint_values_fail_the_format_check(model, robot, planned):
    doc, _ = planned
    for value in (10**400, float("nan"), float("inf")):
        bad = copy.deepcopy(doc)
        bad["tasks"][2]["subprocesses"][0]["joints"][0][1] = value
        report = validate_plan(bad, model, robot, CFG)
        assert [c.name for c in report.checks] == ["format"]
        assert "joint rows are not all 6 wide number lists" in report.checks[0].detail
        assert not report.passed


def test_unknown_element_fails_the_structure_check(model, robot, planned):
    doc, _ = planned
    bad = copy.deepcopy(doc)
    bad["tasks"][3]["element_id"] = 999
    report = validate_plan(bad, model, robot, CFG)
    assert [c.name for c in report.checks] == CHECK_NAMES[:4] + ["structure"]
    assert all(c.passed for c in report.checks[:4])
    assert "elements [999] are not in the model" in report.checks[-1].detail
    assert not report.passed


def test_repeated_element_fails_the_structure_check(model, robot, planned):
    # task 1 lists task 0's element again: a failed check, not an exception
    doc, _ = planned
    bad = copy.deepcopy(doc)
    first, dropped = doc["tasks"][0]["element_id"], doc["tasks"][1]["element_id"]
    bad["tasks"][1]["element_id"] = first
    report = validate_plan(bad, model, robot, CFG)
    assert [c.name for c in report.checks] == CHECK_NAMES
    structure = check_map(report)["structure"]
    assert not structure.passed
    assert structure.detail == (
        f"plan does not cover the model: missing elements [{dropped}]; "
        f"repeated elements [{first}]"
    )
    assert not report.passed


def drop_last_joint(doc):
    """A well-formed copy of `doc` whose rows have one joint fewer."""
    bad = copy.deepcopy(doc)
    bad["dof"] -= 1
    for t in bad["tasks"]:
        for s in t["subprocesses"]:
            s["joints"] = [row[:-1] for row in s["joints"]]
    return bad


def test_dof_mismatch_fails_the_dof_check(model, robot, planned):
    doc, _ = planned
    report = validate_plan(drop_last_joint(doc), model, robot, CFG)
    assert [c.name for c in report.checks] == CHECK_NAMES[:2] + ["dof"]
    assert all(c.passed for c in report.checks[:2])
    assert report.checks[-1].detail == f"plan has {robot.dof - 1} joints, robot has {robot.dof}"
    assert not report.passed


def test_bead_check_poses_the_extruder_at_the_pass_roll(robot):
    # one upright strut; the default lattice plans its pass at a roll far
    # from 0, so a capsule off the tool axis hangs on a different side of
    # the nozzle than it would at roll 0
    strut = serialize_model(load_bundled_model("cube"))
    strut["nodes"] = [
        {"id": 0, "xyz": [480.0, -70.0, 0.0], "grounded": True},
        {"id": 1, "xyz": [480.0, -70.0, 140.0], "grounded": False},
    ]
    strut["elements"] = [{"id": 0, "start": 0, "end": 1, "layer": 0}]
    model = load_model(strut)
    cfg = PlannerConfig()
    doc = run_pipeline(model, robot, cfg)[0]
    sub = doc["tasks"][0]["subprocesses"][2]
    origins = np.array([e["origin"] for e in sub["tcp"]])
    rotation = np.array(sub["tcp"][0]["rotation"])
    assert 0.5 < direction_rotation_from_frame(rotation)[1] < 5.8

    # hang the capsule 40 mm behind the nozzle at the pass's own rotation,
    # where it drags through the bead laid so far
    back = (origins[0] - origins[-1]) / np.linalg.norm(origins[-1] - origins[0])
    up = -rotation[:, 2]
    arm = CapsuleShape(
        tuple(rotation.T @ (40.0 * back + 5.0 * up)),
        tuple(rotation.T @ (40.0 * back + 30.0 * up)),
        5.0,
    )
    ee = EEGeometry(robot.ee.capsules + (arm,), robot.ee.clearance)
    radius = model.section.radius
    assert not ee_self_collision(origins, up, 0.0, radius, ee, cfg.clearance)

    report = validate_plan(doc, model, dataclasses.replace(robot, ee=ee), cfg)
    clearance = check_map(report)["clearance"]
    assert not clearance.passed
    assert f"subprocess {sub['id']}: extruder body crosses its own bead" in clearance.detail
    assert validate_plan(doc, model, robot, cfg).passed


def test_clearance_catches_the_extruder_on_a_placed_element(model, robot, planned):
    # move the node of the first printed element that the second does not
    # share onto the barrel of the second task's extruder: the unchanged
    # plan now drives that barrel through the first element
    doc, _ = planned
    first, second = (model.element(t["element_id"]) for t in doc["tasks"][:2])
    node = next(n for n in (first.start, first.end) if n not in (second.start, second.end))
    sub = doc["tasks"][1]["subprocesses"][2]
    assert sub["kind"] == "extrusion"
    mid = sub["tcp"][len(sub["tcp"]) // 2]
    barrel = robot.ee.capsules[0]
    target = np.array(mid["origin"]) + np.array(mid["rotation"]) @ (
        0.5 * (barrel.a + barrel.b)
    )
    moved = serialize_model(model)
    for n in moved["nodes"]:
        if n["id"] == node:
            n["xyz"] = [float(v) for v in target]
    report = validate_plan(doc, load_model(moved), robot, CFG)
    clearance = check_map(report)["clearance"]
    assert not clearance.passed
    assert any(
        e.startswith(f"subprocess {sub['id']} (extrusion): ") and e.endswith("colliding configs")
        for e in clearance.detail.split("; ")
    )


def test_validator_enforces_the_route_rule(model, robot, sequence):
    # re-route the first pass that can be planned from an endpoint nothing
    # built so far touches; the planner plans the route it is given, the
    # validator must refuse it
    built = {n.id for n in model.nodes if n.grounded}
    for k, task in enumerate(sequence.tasks):
        e = model.element(task.element)
        other = e.end if task.start_node == e.start else e.start
        if other not in built:
            tasks = list(sequence.tasks)
            tasks[k] = dataclasses.replace(task, start_node=other)
            try:
                plan, _ = run_pipeline(
                    model, robot, CFG, sequence=dataclasses.replace(sequence, tasks=tasks)
                )
                break
            except CartesianPlanningError:
                pass
        built.update((e.start, e.end))
    else:
        pytest.fail("no pass could be planned from an unbuilt node")
    checks = check_map(validate_plan(plan, model, robot, CFG))
    assert not checks["structure"].passed
    assert (
        f"task {plan['tasks'][k]['task_id']}: extrusion starts at an unbuilt node"
        in checks["structure"].detail
    )
    assert all(c.passed for name, c in checks.items() if name != "structure")


def per_subprocess_checks(plan, model, robot, config):
    """The tool-consistency and clearance checks as `validate_plan` made them
    one subprocess at a time: one forward-kinematics call per tcp
    subprocess and one robot-collision query per subprocess, each against a
    scene looked up by the subprocess's own task and kind.  The oracle for
    the batched checks; returns {check name: (passed, detail)}."""
    tasks = plan["tasks"]
    subs = [
        (k, s, np.array(s["joints"], dtype=float))
        for k, t in enumerate(tasks)
        for s in t["subprocesses"]
    ]
    tol = pipeline.LIMIT_TOLERANCE
    within = [
        ((rows >= robot.lower - tol) & (rows <= robot.upper + tol)).all(1) for _, _, rows in subs
    ]
    order = [t["element_id"] for t in tasks]

    worst_tcp = 0.0
    coverage_errors = []
    for k, s, rows in subs:
        if s["data_kind"] != "tcp":
            continue
        frames = kinematics.fk_frames_batch(robot, rows)[:, -1]
        origins = np.array([e["origin"] for e in s["tcp"]])
        zaxes = np.array([e["zaxis"] for e in s["tcp"]])
        rots = np.array([e["rotation"] for e in s["tcp"]])
        worst_tcp = max(
            worst_tcp,
            float(np.abs(frames[:, :3, 3] - origins).max()),
            float(np.abs(frames[:, :3, 2] - zaxes).max()),
            float(np.abs(frames[:, :3, :3] - rots).max()),
        )
        if s["kind"] == "extrusion":
            t = tasks[k]
            elem = model.element(t["element_id"])
            a = model.node(elem.start).position
            b = model.node(elem.end).position
            length = float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
            expect_rows = int(np.ceil(length / config.path_spacing)) + 1
            ends = origins[[0, -1]]
            fwd = max(float(np.abs(ends[0] - a).max()), float(np.abs(ends[1] - b).max()))
            rev = max(float(np.abs(ends[0] - b).max()), float(np.abs(ends[1] - a).max()))
            if min(fwd, rev) > pipeline.TCP_TOLERANCE:
                coverage_errors.append(f"task {t['task_id']} does not span element {elem.id}")
            if origins.shape[0] != expect_rows:
                coverage_errors.append(
                    f"task {t['task_id']} has {origins.shape[0]} waypoints, expected {expect_rows}"
                )
    checks = {
        "tool consistency": (
            worst_tcp <= pipeline.TCP_TOLERANCE and not coverage_errors,
            f"worst pose error {worst_tcp:.2e}"
            + ("" if not coverage_errors else "; " + "; ".join(coverage_errors)),
        )
    }

    collision_errors = []
    ratio = config.prismatic_jump_limit / config.jump_limit
    fine_step = 0.5 * config.transition.step * robot.jump_limits(1.0, ratio)
    scenes = [model.scene(order[:k]) for k in range(len(tasks) + 1)]
    for (k, s, rows), inside in zip(subs, within):
        if s["kind"] == "transition":
            probe = [rows[0]]
            for a, b, ok in zip(rows[:-1], rows[1:], inside[:-1] & inside[1:]):
                n = max(2, int(np.ceil((np.abs(b - a) / fine_step).max())) + 1) if ok else 2
                probe.extend(np.linspace(a, b, n)[1:])
            if not inside.all():
                collision_errors.append(f"subprocess {s['id']} (transition): not probed past limits")
            probe = np.array(probe)
            hits = config_collides_batch(robot, probe, scenes[k], clearance=config.clearance)
        else:
            scene = scenes[k + 1] if s["kind"] == "retraction-depart" else scenes[k]
            hits = config_collides_batch(robot, rows, scene, clearance=config.clearance)
        if hits.any():
            collision_errors.append(
                f"subprocess {s['id']} ({s['kind']}): {int(hits.sum())} colliding configs"
            )
        if s["kind"] == "extrusion":
            origins = np.array([e["origin"] for e in s["tcp"]])
            rotation = np.array(s["tcp"][0]["rotation"])
            if geometry.ee_sweep_collision_batch(
                origins[1:], rotation[None], origins[0], origins[1:],
                model.section.radius, robot.ee, config.clearance,
            )[0, 0]:
                collision_errors.append(
                    f"subprocess {s['id']}: extruder body crosses its own bead"
                )
    checks["clearance"] = (
        not collision_errors,
        "all subprocesses clear the partial structure"
        if not collision_errors
        else "; ".join(collision_errors[:4]),
    )
    return checks


@pytest.fixture(scope="module")
def touching(model, robot, planned):
    """(k, q): the middle extrusion row q of the first task k whose extruder
    touches the element it is printing there and nothing else placed."""
    doc, _ = planned
    order = [t["element_id"] for t in doc["tasks"]]
    for k, t in enumerate(doc["tasks"][:-2]):
        joints = t["subprocesses"][2]["joints"]
        q = np.array([joints[len(joints) // 2]])
        before, after = (
            config_collides_batch(robot, q, model.scene(order[:j]), CFG.clearance)[0]
            for j in (k, k + 1)
        )
        if after and not before:
            return k, q[0].tolist()
    pytest.fail("no extrusion row touches its own element")


def put_row(sub, q):
    """Replace the middle joint row of `sub` with `q`, or insert `q` after
    the first row of a two-row transition."""
    rows = sub["joints"]
    if sub["kind"] == "transition" and len(rows) < 3:
        rows.insert(1, q)
    else:
        rows[len(rows) // 2] = q


TAMPERED = {
    # task k + 1's scene holds task k's element, which q touches
    "transition into a placed element": [(1, 0)],
    "approach into a placed element": [(1, 1)],
    "extrusion into a placed element": [(1, 2)],
    "depart into a placed element": [(1, 3)],
    "depart touching the element just printed": [(0, 3)],
    "approach touching the element about to be printed": [(0, 1)],
    "transition out of limits": ["limits"],
    "all at once": [(1, 0), (1, 1), (1, 2), (1, 3), (0, 3), (0, 1), "limits"],
}


@pytest.mark.parametrize("case", TAMPERED)
def test_batched_checks_equal_the_per_subprocess_oracle(model, robot, planned, touching, case):
    doc, _ = planned
    k, q = touching
    bad = copy.deepcopy(doc)
    for edit in TAMPERED[case]:
        if edit == "limits":
            put_row(bad["tasks"][-1]["subprocesses"][0], [50.0] * robot.dof)
        else:
            put_row(bad["tasks"][k + edit[0]]["subprocesses"][edit[1]], q)
    checks = check_map(validate_plan(bad, model, robot, CFG))
    oracle = per_subprocess_checks(bad, model, robot, CFG)
    for name, (passed, detail) in oracle.items():
        assert checks[name].detail == detail, name
        assert checks[name].passed == passed, name
    clearance = checks["clearance"]
    if case == "approach touching the element about to be printed":
        assert clearance.passed
    elif case == "transition out of limits":
        sid = bad["tasks"][-1]["subprocesses"][0]["id"]
        assert clearance.detail.startswith(f"subprocess {sid} (transition): not probed")
    elif case != "all at once":
        task, index = TAMPERED[case][0]
        sub = bad["tasks"][k + task]["subprocesses"][index]
        assert clearance.detail.startswith(f"subprocess {sub['id']} ({sub['kind']}): ")
        assert clearance.detail.endswith("colliding configs")
    else:
        assert len(clearance.detail.split("; ")) == 4


def test_validator_queries_row_stacks_of_one_scene_and_poses_once_per_task(
    model, robot, planned, monkeypatch
):
    queries, poses = [], []
    real_query, real_fk = pipeline.config_collides_batch, pipeline.fk_frames_batch

    def counting_query(robot, qs, scene, *args, upto=None, **kwargs):
        queries.append((len(qs), len(scene), upto))
        return real_query(robot, qs, scene, *args, upto=upto, **kwargs)

    def counting_fk(*args):
        poses.append(args)
        return real_fk(*args)

    monkeypatch.setattr(pipeline, "config_collides_batch", counting_query)
    monkeypatch.setattr(pipeline, "fk_frames_batch", counting_fk)
    doc, _ = planned
    assert validate_plan(doc, model, robot, CFG).passed
    assert len(poses) == len(doc["tasks"])
    # every query sees the whole build order, cut into full stacks of rows
    rows = [n for n, _, _ in queries]
    assert len(rows) > 1
    assert rows[:-1] == [pipeline.CLEARANCE_ROWS] * (len(rows) - 1)
    assert 0 < rows[-1] <= pipeline.CLEARANCE_ROWS
    assert {m for _, m, _ in queries} == {len(doc["tasks"])}
    # in document order, each row's prefix is its task's, one more for a depart
    seen = np.concatenate([upto for _, _, upto in queries])
    assert seen[0] == 0 and seen[-1] == len(doc["tasks"])
    assert np.all(np.diff(seen) >= 0)


# ---------------------------------------------------------------------------
# the stacked motion stage against the per-task loops it replaced


def per_task_motion(model, sequence):
    """`expand_and_search` and `rebuild_picks` as the motion stage ran them
    task by task, each against the task's own scene `model.scene(order[:k])`:
    one `build_rungs_batch` call per chunk of a task's candidates, then one
    `build_rungs` call per picked block and one per first-choice slide."""
    order = [t.element for t in sequence.tasks]
    scenes = [model.scene(order[:k]) for k in range(len(order) + 1)]

    def expand_and_search(robot, tasks, config, rng=None, max_capsules=None):
        rng = rng or np.random.default_rng(config.seed)
        directions = sample_directions(config.direction_count)
        rotations = rotation_sequence(config.rotation_samples)
        queues = [list(cartesian._candidate_grid(t, rotations)) for t in tasks]
        for q in queues:
            rng.shuffle(q)
        for q, t in zip(queues, tasks):
            w = (t.preferred_direction, float(t.preferred_rotation))
            q.remove(w)
            q.insert(0, w)
        limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)
        columns, attempted = [], 0
        for task, queue in zip(tasks, queues):
            budget = max_capsules if max_capsules is not None else len(queue)
            column, done = [], 0
            while done < len(queue) and len(column) < budget:
                chunk = queue[done : done + budget - len(column)]
                done += len(chunk)
                built = kinematics.build_rungs_batch(
                    robot, [task.waypoints] * len(chunk),
                    [(directions[a], rot) for a, rot in chunk],
                    scenes[task.prefix], config.clearance,
                )
                for (a, rot), rungs in zip(chunk, built):
                    if rungs is None:
                        continue
                    cap = cartesian.capsules_from_rungs(
                        [(task.prefix, a, rot, rungs)], robot.weights, limits
                    )[0]
                    if cap is not None:
                        column.append(cap)
            attempted += done
            columns.append(column)
        cost, picks = cartesian.chain_search(columns, robot.weights, robot.home)
        return cartesian.SparseSearchResult(cost, picks, columns, attempted)

    def rebuild_picks(robot, tasks, picks, directions, config):
        out = []
        for task, (cap, _, _) in zip(tasks, picks):
            v, k = directions[cap.direction_index], task.prefix
            block = kinematics.build_rungs(
                robot, task.waypoints, v, cap.rotation, scenes[k], config.clearance
            )
            slides = [
                kinematics.build_rungs(
                    robot, retraction_points(node, v, config), v, cap.rotation, scene,
                    config.clearance,
                )
                for node, scene in (
                    (task.waypoints[0], scenes[k]),
                    (task.waypoints[-1], scenes[k + 1]),
                )
            ]
            out.append((block, *slides))
        return out

    return expand_and_search, rebuild_picks


@pytest.mark.parametrize(
    "config",
    [PlannerConfig(kinematics_timeout=600.0), CFG],
    ids=["cube-dense", "cube-sparse"],
)
def test_stacked_motion_stage_does_the_per_task_work_in_fewer_calls(
    model, robot, config, monkeypatch, tmp_path
):
    sequence = plan_sequence(model, robot, config)
    runs = {}
    for name in ("per task", "stacked"):
        work = {"calls": 0, "poses": 0, "configs": 0}
        real_batch, real_sweep = kinematics.build_rungs_batch, kinematics.ik_sweep
        real_query = kinematics.config_collides_batch

        def batch(*args, _work=work, _real=real_batch, **kwargs):
            _work["calls"] += 1
            return _real(*args, **kwargs)

        def sweep(robot, rotation, origins, _work=work, _real=real_sweep):
            _work["poses"] += len(origins)
            return _real(robot, rotation, origins)

        def query(robot, qs, *args, _work=work, _real=real_query, **kwargs):
            _work["configs"] += len(qs)
            return _real(robot, qs, *args, **kwargs)

        with monkeypatch.context() as patch:
            for module in (kinematics, cartesian):
                patch.setattr(module, "build_rungs_batch", batch)
            patch.setattr(kinematics, "ik_sweep", sweep)
            patch.setattr(kinematics, "config_collides_batch", query)
            if name == "per task":
                expand, rebuild = per_task_motion(model, sequence)
                patch.setattr(pipeline, "expand_and_search", expand)
                patch.setattr(pipeline, "rebuild_picks", rebuild)
            plan, report = run_pipeline(model, robot, config, sequence=sequence)
        save_plan(plan, tmp_path / "plan.json")
        runs[name] = (tmp_path / "plan.json").read_bytes(), report, work
    (want, old, before), (got, new, after) = runs["per task"], runs["stacked"]
    assert got == want
    assert new.capsules_built == old.capsules_built
    assert new.capsules_attempted == old.capsules_attempted
    assert new.cartesian_cost == old.cartesian_cost
    assert (after["poses"], after["configs"]) == (before["poses"], before["configs"])
    # one call per chunk, picked block and slide before: 121 on cube-dense
    assert before["calls"] > 2 * len(sequence.tasks)
    assert 3 * after["calls"] <= before["calls"]


@pytest.fixture(
    scope="module",
    params=[PlannerConfig(kinematics_timeout=600.0), CFG],
    ids=["cube-dense", "cube-sparse"],
)
def scene_builds(request, model, robot):
    """(config, build order, plan, element lists of every scene built while
    `run_pipeline` plans the cube from a given sequence)."""
    config = request.param
    sequence = plan_sequence(model, robot, config)
    built, real_scene = [], TrussModel.scene

    def counting_scene(self, element_ids):
        built.append(list(element_ids))
        return real_scene(self, element_ids)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TrussModel, "scene", counting_scene)
        plan, _ = run_pipeline(model, robot, config, sequence=sequence)
    return config, [t.element for t in sequence.tasks], plan, built


def test_motion_stage_builds_one_scene_per_plan(scene_builds):
    _, order, _, built = scene_builds
    assert built == [order]


def test_transitions_plan_alike_in_a_prefix_view_and_a_built_scene(model, robot, scene_builds):
    """Each task's transition, planned again against its prefix of the
    ordered scene and against a scene built from the same elements: the
    same path, iterations and route, and the path is the plan's."""
    config, order, plan, _ = scene_builds
    ordered = model.scene(order)
    searched = 0
    for k, task in enumerate(plan["tasks"]):
        rows = task["subprocesses"][0]["joints"]
        start, goal = np.array(rows[0]), np.array(rows[-1])
        view, built = (
            transition.plan_transition(
                robot, start, goal, scene, config, np.random.default_rng((config.seed, k))
            )
            for scene in (ordered.prefix(k), model.scene(order[:k]))
        )
        assert view.path.tobytes() == built.path.tobytes(), k
        assert (view.iterations, view.via_home) == (built.iterations, built.via_home), k
        assert view.path.tolist() == rows, k
        searched += view.iterations > 0
    assert searched  # some transitions leave the straight line


PLAN_AND_VALIDATE = """
import sys
from trusspath.config import PlannerConfig
from trusspath.fixtures import load_bundled_model, load_bundled_robot
from trusspath.pipeline import run_pipeline, validate_plan
from trusspath.postprocess import load_plan, save_plan

config = PlannerConfig(direction_count=24, rotation_samples=2)
model, robot = load_bundled_model("cube"), load_bundled_robot("arm")
plan, _ = run_pipeline(model, robot, config)
save_plan(plan, sys.argv[1])
assert validate_plan(load_plan(sys.argv[1]), model, robot, config).passed
print("numpy.ma" in sys.modules)
"""


def test_planning_and_validation_never_import_numpy_ma(tmp_path):
    # `numpy.ma` is imported lazily, by `np.unique(..., axis=0)` among
    # others, and its first import costs milliseconds and most of a MB
    src = str(Path(trusspath.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PLAN_AND_VALIDATE, str(tmp_path / "plan.json")],
        env=env, check=True, capture_output=True, text=True,
    )
    assert out.stdout.strip() == "False"

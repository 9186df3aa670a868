"""Plan checker that shares no code with trusspath.

It reads three parsed JSON documents only: the truss model, the robot
description and the plan file.  Forward kinematics is its own standard-DH
chain, so a fault in trusspath's kinematics, validator or plan writer cannot
hide itself here.  Every check returns human-readable failure strings; an
empty list means the plan passed.

The two cost functions recompute the planner's objectives from the joint
rows in the file, so they can be compared with the totals the planner
reports for itself.
"""

from __future__ import annotations

import math

import numpy as np

SEAM_TOLERANCE = 1e-9  # rad, joint gap allowed between subprocesses
LIMIT_TOLERANCE = 1e-9  # rad, slack on joint limits and jump limits
TIP_TOLERANCE = 1e-6  # mm, tool tip off its element, and unit-vector drift


def _rpy_transform(origin, rpy_deg) -> np.ndarray:
    """4x4 from a translation and roll/pitch/yaw, R = Rz(yaw) Ry(pitch) Rx(roll)."""
    roll, pitch, yaw = (math.radians(v) for v in rpy_deg)
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    t = np.eye(4)
    t[:3, :3] = rz @ ry @ rx
    t[:3, 3] = origin
    return t


def _arm_rows(robot: dict) -> list[dict]:
    if robot.get("track") is not None:
        raise ValueError("the checker handles fixed-base arms only")
    return robot["dh"]


def joint_limits(robot: dict) -> tuple[np.ndarray, np.ndarray]:
    rows = _arm_rows(robot)
    lower = np.radians([r["lower_deg"] for r in rows])
    upper = np.radians([r["upper_deg"] for r in rows])
    return lower, upper


def joint_weights(robot: dict) -> np.ndarray:
    return np.array([float(r.get("weight", 1.0)) for r in _arm_rows(robot)])


def home(robot: dict) -> np.ndarray:
    return np.radians(robot["home"]["joints_deg"])


def forward_kinematics(robot: dict, qs: np.ndarray) -> np.ndarray:
    """Tool frames (n, 4, 4) of joint rows (n, dof).

    Each DH row is A = Rotz(q + theta_offset) Transz(d) Transx(a) Rotx(alpha);
    the chain is base_pose * A1 ... An * tool.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    base = robot.get("base_pose", {})
    tool = robot.get("tool", {})
    frames = np.broadcast_to(
        _rpy_transform(base.get("origin", (0, 0, 0)), base.get("rpy_deg", (0, 0, 0))),
        (qs.shape[0], 4, 4),
    ).copy()
    for i, row in enumerate(_arm_rows(robot)):
        theta = qs[:, i] + math.radians(row.get("theta_offset_deg", 0.0))
        ct, st = np.cos(theta), np.sin(theta)
        alpha = math.radians(row["alpha_deg"])
        ca, sa = math.cos(alpha), math.sin(alpha)
        a = np.zeros((qs.shape[0], 4, 4))
        a[:, 0] = np.stack([ct, -st * ca, st * sa, row["a"] * ct], axis=1)
        a[:, 1] = np.stack([st, ct * ca, -ct * sa, row["a"] * st], axis=1)
        a[:, 2, 1:] = (sa, ca, row["d"])
        a[:, 3, 3] = 1.0
        frames = frames @ a
    return frames @ _rpy_transform(tool.get("origin", (0, 0, 0)), tool.get("rpy_deg", (0, 0, 0)))


def _subprocesses(plan: dict):
    for task in plan["tasks"]:
        for sub in task["subprocesses"]:
            yield task, sub, np.asarray(sub["joints"], dtype=float)


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    t = np.clip((p - a) @ d / (d @ d), 0.0, 1.0)
    return np.linalg.norm(p - (a + t[:, None] * d), axis=1)


def check_plan(plan: dict, model: dict, robot: dict, jump_limit: float) -> list[str]:
    """Every way the plan breaks the rules, as one message per finding."""
    errors: list[str] = []
    nodes = {n["id"]: n for n in model["nodes"]}
    elements = {e["id"]: e for e in model["elements"]}

    planned = [t["element_id"] for t in plan["tasks"]]
    missing = sorted(set(elements) - set(planned))
    repeated = sorted({e for e in planned if planned.count(e) > 1})
    unknown = sorted(set(planned) - set(elements))
    if missing or repeated or unknown:
        errors.append(
            f"coverage: missing {missing}, repeated {repeated}, unknown {unknown}"
        )

    built = {nid for nid, n in nodes.items() if n.get("grounded", False)}
    for task in plan["tasks"]:
        elem = elements.get(task["element_id"])
        if elem is None:
            continue
        if elem["start"] not in built and elem["end"] not in built:
            errors.append(
                f"task {task['task_id']}: element {elem['id']} touches no built node"
            )
        built.update((elem["start"], elem["end"]))

    lower, upper = joint_limits(robot)
    prev_end = home(robot)
    for task, sub, rows in _subprocesses(plan):
        where = f"task {task['task_id']} {sub['kind']}"
        gap = float(np.abs(rows[0] - prev_end).max())
        if gap > SEAM_TOLERANCE:
            errors.append(f"{where}: starts {gap:.3g} rad from the previous row")
        prev_end = rows[-1]
        outside = (rows < lower - LIMIT_TOLERANCE) | (rows > upper + LIMIT_TOLERANCE)
        if outside.any():
            errors.append(f"{where}: {int(outside.any(axis=1).sum())} rows out of limits")
        if sub["kind"] != "transition" and rows.shape[0] > 1:
            steps = np.abs(np.diff(rows, axis=0)).max()
            if steps > jump_limit + LIMIT_TOLERANCE:
                errors.append(f"{where}: joint step {steps:.4g} exceeds {jump_limit}")
        if sub["kind"] == "extrusion" and task["element_id"] in elements:
            errors.extend(_check_extrusion(where, rows, elements[task["element_id"]], nodes, robot))

    kinds = [[s["kind"] for s in t["subprocesses"]] for t in plan["tasks"]]
    if any(k.count("extrusion") != 1 for k in kinds):
        errors.append("every task must hold exactly one extrusion")
    return errors


def _check_extrusion(where, rows, elem, nodes, robot) -> list[str]:
    frames = forward_kinematics(robot, rows)
    tips, zaxes = frames[:, :3, 3], frames[:, :3, 2]
    a = np.asarray(nodes[elem["start"]]["xyz"], dtype=float)
    b = np.asarray(nodes[elem["end"]]["xyz"], dtype=float)
    errors = []
    off = float(_point_segment_distance(tips, a, b).max())
    if off > TIP_TOLERANCE:
        errors.append(f"{where}: tool tip {off:.3g} mm off element {elem['id']}")
    # the pass may run either way along the element, but end to end
    ends = min(
        max(float(np.linalg.norm(tips[0] - a)), float(np.linalg.norm(tips[-1] - b))),
        max(float(np.linalg.norm(tips[0] - b)), float(np.linalg.norm(tips[-1] - a))),
    )
    if ends > TIP_TOLERANCE:
        errors.append(f"{where}: pass does not run node to node ({ends:.3g} mm)")
    drift = float(np.abs(zaxes - zaxes[0]).max())
    if drift > TIP_TOLERANCE:
        errors.append(f"{where}: tool axis drifts by {drift:.3g}")
    return errors


def _path_cost(rows: np.ndarray, weights: np.ndarray) -> float:
    if rows.shape[0] < 2:
        return 0.0
    return float((np.abs(np.diff(rows, axis=0)) * weights).sum())


def transition_cost(plan: dict, robot: dict) -> float:
    """Weighted L1 joint travel of every transition subprocess."""
    weights = joint_weights(robot)
    total = 0.0
    for _, sub, rows in _subprocesses(plan):
        if sub["kind"] == "transition":
            total += _path_cost(rows, weights)
    return total


def cartesian_cost(plan: dict, robot: dict) -> float:
    """The extrusion objective the chain search minimises.

    Each pass costs the weighted L1 distance from home (first pass) or from
    the previous pass's last row to its own first row, plus its own path.
    """
    weights = joint_weights(robot)
    prev = home(robot)
    total = 0.0
    for _, sub, rows in _subprocesses(plan):
        if sub["kind"] == "extrusion":
            total += float((np.abs(rows[0] - prev) * weights).sum())
            total += _path_cost(rows, weights)
            prev = rows[-1]
    return total

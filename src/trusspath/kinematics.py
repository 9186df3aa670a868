"""Robot model, forward/inverse kinematics, and capsule collision queries.

The supported robot is a six-revolute arm with a spherical wrist (joint axes
4, 5, 6 intersect in one point), described by standard DH rows
A_i = Rotz(theta) * Transz(d) * Transx(a) * Rotx(alpha), optionally riding on
one leading prismatic rail.  Every DH row is revolute; the rail is the only
prismatic axis.  It translates the arm base along a fixed direction, and
inverse kinematics solves the arm at every position of its `step` grid.
`ik_sweep` is the one IK path: it treats a fixed arm as a rail with a single
position, verifies every closed-form branch in one vectorised pass, and
returns each tool position's solutions as one sorted (k, dof) array.

The wrist decomposition needs a specific DH shape: alpha pattern
(-90, 0, -90, +90, -90, 0) degrees with a4 = a5 = a6 = 0 and d2 = d3 = d5 = 0.
That covers the usual industrial geometry (shoulder offset a1, upper arm a2,
elbow offset a3, forearm d4, flange d6).  `load_robot` rejects anything else
up front instead of failing math deep in a search.

Angles are radians and lengths millimetres everywhere in memory; the JSON
config uses degrees for human editing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import finite, integer, read_document
from .geometry import (
    CULL_MARGIN,
    CapsuleShape,
    EEGeometry,
    GeometryError,
    bounding_spheres,
    default_ee_geometry,
    direction_rotation_from_frame,
    distance3,
    mark_contacts,
    pose_from_direction,
    tool_rotations,
)

_EXPECTED_ALPHA = np.deg2rad([-90.0, 0.0, -90.0, 90.0, -90.0, 0.0])
_POSE_TOL = 1e-6


class KinematicsError(Exception):
    pass


class RobotConfigError(KinematicsError):
    """Robot description file is malformed or outside the solvable family."""


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class Joint:
    """One revolute DH row."""

    a: float
    alpha: float
    d: float
    theta: float  # fixed offset added to the joint variable
    lower: float
    upper: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.lower >= self.upper:
            raise RobotConfigError("joint lower limit must be below upper limit")
        if self.weight <= 0.0:
            raise RobotConfigError("joint weight must be positive")


@dataclass(frozen=True)
class TrackSpec:
    """Leading prismatic rail that carries the arm base."""

    direction: tuple[float, float, float]  # unit vector in the base frame
    lower: float
    upper: float
    step: float = 10.0  # IK enumeration step, mm
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.lower >= self.upper:
            raise RobotConfigError("track lower limit must be below upper limit")
        if self.step <= 0.0:
            raise RobotConfigError("track step must be positive")
        norm = math.sqrt(sum(c * c for c in self.direction))
        if abs(norm - 1.0) > 1e-6:
            raise RobotConfigError("track direction must be a unit vector")

    def positions(self) -> np.ndarray:
        count = int(math.floor((self.upper - self.lower) / self.step)) + 1
        grid = self.lower + self.step * np.arange(count)
        if grid[-1] < self.upper - 1e-9:
            grid = np.append(grid, self.upper)
        return grid


@dataclass(frozen=True)
class LinkCapsule:
    frame: int  # 0 = arm base, 1..6 = after joint i, 7 = tool frame
    shape: CapsuleShape


@dataclass(frozen=True)
class RobotModel:
    name: str
    joints: tuple[Joint, ...]  # the six DH rows
    base_pose: np.ndarray  # (4, 4) world pose of the rail/arm base
    tool: np.ndarray  # (4, 4) flange -> tool tip
    home: np.ndarray  # (dof,)
    link_capsules: tuple[LinkCapsule, ...]
    ee: EEGeometry
    source: dict  # a copy of the parsed document, taken at load
    track: TrackSpec | None = None
    static_capsules: tuple[CapsuleShape, ...] = ()

    @property
    def dof(self) -> int:
        return len(self.joints) + (1 if self.track else 0)

    @property
    def lower(self) -> np.ndarray:
        arm = [j.lower for j in self.joints]
        return np.array(([self.track.lower] if self.track else []) + arm)

    @property
    def upper(self) -> np.ndarray:
        arm = [j.upper for j in self.joints]
        return np.array(([self.track.upper] if self.track else []) + arm)

    @property
    def weights(self) -> np.ndarray:
        arm = [j.weight for j in self.joints]
        return np.array(([self.track.weight] if self.track else []) + arm)

    def jump_limits(self, revolute: float, prismatic: float) -> np.ndarray:
        arm = [revolute] * len(self.joints)
        return np.array(([prismatic] if self.track else []) + arm)

    def within_limits(self, q: np.ndarray, tol: float = 1e-9) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.lower - tol) and np.all(q <= self.upper + tol))

    @cached_property
    def capsule_table(self):
        """Link and extruder capsules packed for `config_collides_batch`,
        built once per model (see `_robot_capsule_table`)."""
        return _robot_capsule_table(self)

    @cached_property
    def static_scene(self) -> "CapsuleSet":
        return CapsuleSet(self.static_capsules)


# ---------------------------------------------------------------------------
# poses


@dataclass(frozen=True)
class EEPose:
    """Tool pose: tip position plus (clearance direction, roll) orientation."""

    position: np.ndarray
    direction: np.ndarray  # unit vector from nozzle tip towards the body
    rotation: float  # roll about the tool axis, [0, 2*pi)

    @classmethod
    def from_frame(cls, frame: np.ndarray) -> "EEPose":
        direction, rotation = direction_rotation_from_frame(frame)
        return cls(frame[:3, 3].copy(), direction, rotation)

    def frame(self) -> np.ndarray:
        return pose_from_direction(self.position, self.direction, self.rotation)


def make_transform(origin: Sequence[float], rpy: Sequence[float]) -> np.ndarray:
    """4x4 from a translation and roll/pitch/yaw (Rz(yaw) Ry(pitch) Rx(roll))."""
    roll, pitch, yaw = rpy
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    r = np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )
    t = np.eye(4)
    t[:3, :3] = r
    t[:3, 3] = np.asarray(origin, dtype=float)
    return t


def invert_transform(t: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    r = t[:3, :3]
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t[:3, 3]
    return out


def _dh_matrix_batch(joint: Joint, values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    theta = joint.theta + values
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = math.cos(joint.alpha), math.sin(joint.alpha)
    out = np.zeros((n, 4, 4))
    out[:, 0, 0] = ct
    out[:, 0, 1] = -st * ca
    out[:, 0, 2] = st * sa
    out[:, 0, 3] = joint.a * ct
    out[:, 1, 0] = st
    out[:, 1, 1] = ct * ca
    out[:, 1, 2] = -ct * sa
    out[:, 1, 3] = joint.a * st
    out[:, 2, 1] = sa
    out[:, 2, 2] = ca
    out[:, 2, 3] = joint.d
    out[:, 3, 3] = 1.0
    return out


def fk_frames(robot: RobotModel, q: np.ndarray) -> np.ndarray:
    """All chain frames for one configuration: (2 + n_joints, 4, 4).

    Index 0 is the arm base (rail displacement applied), index i is the frame
    after joint i, the last index is the tool tip frame.
    """
    return fk_frames_batch(robot, np.asarray(q, dtype=float)[None, :])[0]


def fk_frames_batch(robot: RobotModel, qs: np.ndarray) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != robot.dof:
        raise KinematicsError(f"expected (n, {robot.dof}) joint array")
    n = qs.shape[0]
    frames = np.zeros((n, len(robot.joints) + 2, 4, 4))

    base = np.broadcast_to(robot.base_pose, (n, 4, 4)).copy()
    if robot.track is not None:
        shift = np.eye(4)[None, :, :].repeat(n, axis=0)
        axis = np.asarray(robot.track.direction, dtype=float)
        shift[:, :3, 3] = qs[:, 0, None] * axis[None, :]
        base = base @ shift
        arm_q = qs[:, 1:]
    else:
        arm_q = qs
    frames[:, 0] = base
    cur = base
    for i, joint in enumerate(robot.joints):
        cur = cur @ _dh_matrix_batch(joint, arm_q[:, i])
        frames[:, i + 1] = cur
    frames[:, -1] = cur @ robot.tool
    return frames


def fk(robot: RobotModel, q: np.ndarray) -> EEPose:
    """Tool pose of a configuration."""
    return EEPose.from_frame(fk_frames(robot, q)[-1])


def jacobian(robot: RobotModel, q: np.ndarray) -> np.ndarray:
    """Geometric Jacobian of the tool tip, rows (v; omega), columns per DOF."""
    frames = fk_frames(robot, q)
    tip = frames[-1][:3, 3]
    cols = []
    if robot.track is not None:
        axis = robot.base_pose[:3, :3] @ np.asarray(robot.track.direction)
        cols.append(np.concatenate([axis, np.zeros(3)]))
    for origin_frame in frames[: len(robot.joints)]:  # frame before each joint
        z = origin_frame[:3, 2]
        cols.append(np.concatenate([np.cross(z, tip - origin_frame[:3, 3]), z]))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# inverse kinematics


def _wrap(angle: np.ndarray) -> np.ndarray:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _family_params(robot: RobotModel) -> tuple[float, float, float, float, float, float]:
    j = robot.joints
    return (j[0].a, j[1].a, j[2].a, j[0].d, j[3].d, j[5].d)


def _check_solvable_family(joints: Sequence[Joint]) -> None:
    if len(joints) != 6:
        raise RobotConfigError("analytic IK needs exactly six DH rows")
    alphas = np.array([j.alpha for j in joints])
    if np.max(np.abs(_wrap(alphas - _EXPECTED_ALPHA))) > 1e-9:
        raise RobotConfigError(
            "DH alpha pattern must be (-90, 0, -90, 90, -90, 0) degrees"
        )
    for idx in (3, 4, 5):
        if abs(joints[idx].a) > 1e-9:
            raise RobotConfigError("wrist rows must have a = 0")
    for idx in (1, 2, 4):
        if abs(joints[idx].d) > 1e-9:
            raise RobotConfigError("rows 2, 3 and 5 must have d = 0")


def _ik_arm(
    robot: RobotModel, rot: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All closed-form branches for flange targets.

    rot is (n, 3, 3), pos is (n, 3), both in the arm base frame.  Returns
    (n, 8, 6) joint values plus an (n, 8) validity mask.  Branch layout is
    (shoulder, elbow, wrist) binary flags; invalid branches are zero-filled.
    The caller still has to verify against forward kinematics and limits.
    """
    a1, a2, a3, d1, d4, d6 = _family_params(robot)
    l3sq = a3 * a3 + d4 * d4
    n = pos.shape[0]
    sols = np.zeros((n, 8, 6))
    valid = np.zeros((n, 8), dtype=bool)

    wrist = pos - d6 * rot[:, :, 2]
    wx, wy, wz = wrist[:, 0], wrist[:, 1], wrist[:, 2]
    hyp = np.hypot(wx, wy)
    base_angle = np.where(hyp > 1e-12, np.arctan2(wy, wx), 0.0)

    offsets = np.array([j.theta for j in robot.joints])

    for shoulder in (0, 1):
        theta1 = base_angle + (math.pi if shoulder else 0.0)
        rho = -hyp if shoulder else hyp
        p = rho - a1
        q = d1 - wz
        u = (p * p + q * q - a2 * a2 - l3sq) / (2.0 * a2)
        disc = l3sq - u * u
        reach = disc >= -1e-9 * l3sq
        root = np.sqrt(np.maximum(disc, 0.0))
        for elbow in (0, 1):
            v = -root if elbow else root
            theta3 = np.arctan2(a3 * v - d4 * u, a3 * u + d4 * v)
            big_a = a2 + u
            denom_ok = (p * p + q * q) > 1e-12
            theta2 = np.arctan2(big_a * q - v * p, big_a * p + v * q)

            c1, s1 = np.cos(theta1), np.sin(theta1)
            c23 = np.cos(theta2 + theta3)
            s23 = np.sin(theta2 + theta3)
            # columns of R3 = Rz(t1) Rx(-90) Rz(t2+t3) Rx(-90), written out
            r3 = np.empty((n, 3, 3))
            r3[:, 0, 0] = c1 * c23
            r3[:, 1, 0] = s1 * c23
            r3[:, 2, 0] = -s23
            r3[:, 0, 1] = s1
            r3[:, 1, 1] = -c1
            r3[:, 2, 1] = 0.0
            r3[:, 0, 2] = -c1 * s23
            r3[:, 1, 2] = -s1 * s23
            r3[:, 2, 2] = -c23
            r36 = np.einsum("nji,njk->nik", r3, rot)

            cos_b = np.clip(r36[:, 2, 2], -1.0, 1.0)
            beta = np.arccos(cos_b)
            sin_b = np.sin(beta)
            regular = sin_b > 1e-12

            alpha = np.arctan2(r36[:, 1, 2], r36[:, 0, 2])
            gamma = np.arctan2(r36[:, 2, 1], -r36[:, 2, 0])
            gamma_sing = np.arctan2(r36[:, 1, 0], r36[:, 1, 1])

            for wrist_flip in (0, 1):
                slot = 4 * shoulder + 2 * elbow + wrist_flip
                if wrist_flip == 0:
                    t4 = np.where(regular, alpha, 0.0)
                    t5 = -beta
                    t6 = np.where(regular, gamma, gamma_sing)
                    ok = reach & denom_ok
                else:
                    t4 = alpha + math.pi
                    t5 = beta
                    t6 = gamma + math.pi
                    ok = reach & denom_ok & regular  # singular twin is a duplicate

                branch = np.stack(
                    [theta1, theta2, theta3, t4, t5, t6], axis=1
                ) - offsets[None, :]
                sols[:, slot, :] = _wrap(branch)
                valid[:, slot] = ok
    return sols, valid


def _flange_targets(
    robot: RobotModel, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """World tool frames -> flange frames in the arm base frame."""
    inv_base = invert_transform(robot.base_pose)
    inv_tool = invert_transform(robot.tool)
    flange = np.einsum("ij,njk,kl->nil", inv_base, frames, inv_tool)
    return flange[:, :3, :3].copy(), flange[:, :3, 3].copy()


def ik(robot: RobotModel, target: EEPose | np.ndarray) -> list[np.ndarray]:
    """All analytic solutions reaching a world tool pose, sorted and verified.

    The rows of `ik_sweep`'s family for this one pose, as a list.
    """
    frame = target.frame() if isinstance(target, EEPose) else np.asarray(target, float)
    return list(ik_sweep(robot, frame[:3, :3], frame[:3, 3])[0])


def ik_sweep(
    robot: RobotModel, rotation: np.ndarray, origins: np.ndarray
) -> list[np.ndarray]:
    """IK families for many tool positions, one tool rotation each.

    This is the inner loop of Cartesian planning: an extrusion pass keeps the
    tool orientation fixed while the tip slides along the element, so a
    sweep passes one (3, 3) `rotation` shared by every origin; a stack of
    (n, 3, 3) rotations, one per origin, solves several orientations' sweeps
    in one call.  Each origin's family depends only on its own pose, so both
    forms give the same rows.  With a rail, every origin is
    solved at each position of the rail's `track.step` grid
    (`TrackSpec.positions`), the only rail positions a plan uses; a fixed
    arm is a rail with the one position 0 along a zero axis.  Every
    (origin, rail position, branch) candidate is checked against the joint
    limits; the survivors must reproduce the world tool pose within 1e-6
    through `fk_frames_batch`, the one forward-kinematics chain.
    Returns one (k, dof) array per origin (k may be 0), rows in
    lexicographic order of their joint values.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    n = origins.shape[0]
    frames = np.zeros((n, 4, 4))
    frames[:, 3, 3] = 1.0
    rotation = np.broadcast_to(rotation, (n, 3, 3))
    frames[:, :3, :3] = rotation
    frames[:, :3, 3] = origins
    rot, pos = _flange_targets(robot, frames)

    if robot.track is None:
        grid, axis = np.zeros(1), np.zeros(3)
    else:
        grid = robot.track.positions()
        axis = np.asarray(robot.track.direction, dtype=float)
    s = grid.shape[0]
    pos = (pos[:, None, :] - grid[None, :, None] * axis[None, None, :]).reshape(n * s, 3)
    rot = np.repeat(rot, s, axis=0)
    sols, valid = _ik_arm(robot, rot, pos)
    branches = sols.shape[1]
    flat = sols.reshape(n * s * branches, 6)

    lows = np.array([j.lower for j in robot.joints])
    highs = np.array([j.upper for j in robot.joints])
    ok = valid.reshape(-1) & np.all((flat >= lows - 1e-9) & (flat <= highs + 1e-9), axis=1)
    rows = flat[ok]
    if robot.track is not None:
        rows = np.column_stack([np.repeat(np.tile(grid, n), branches)[ok], rows])
    owner = np.repeat(np.arange(n), s * branches)[ok]
    tip = fk_frames_batch(robot, rows)[:, -1]
    pos_err = np.linalg.norm(tip[:, :3, 3] - origins[owner], axis=1)
    rot_err = np.linalg.norm(tip[:, :3, :3] - rotation[owner], axis=(1, 2)) / math.sqrt(2.0)
    hit = (pos_err < _POSE_TOL) & (rot_err < _POSE_TOL)
    rows, owner = rows[hit], owner[hit]
    # stable, so equal rows keep (rail position, branch) order
    order = np.lexsort((*rows.T[::-1], owner))
    return _pieces(rows[order], np.bincount(owner, minlength=n))


def _pieces(items, sizes) -> list:
    """Consecutive slices of `items` with the given lengths: the views
    `np.split` returns for an array, without its per-piece overhead."""
    stops = np.cumsum(sizes).tolist()
    return [items[a:b] for a, b in zip([0, *stops[:-1]], stops)]


# ---------------------------------------------------------------------------
# distances and collision


class CapsuleSet:
    """Static scene capsules packed into arrays for batch distance tests."""

    def __init__(self, capsules: Sequence[CapsuleShape]):
        self.capsules = tuple(capsules)
        if self.capsules:
            self.a = np.array([c.p0 for c in self.capsules], dtype=float)
            self.b = np.array([c.p1 for c in self.capsules], dtype=float)
            self.radii = np.array([c.radius for c in self.capsules], dtype=float)
        else:
            self.a = np.zeros((0, 3))
            self.b = np.zeros((0, 3))
            self.radii = np.zeros(0)
        self.mid, self.half = bounding_spheres(self.a, self.b)

    def __len__(self) -> int:
        return len(self.capsules)


def _robot_capsule_table(robot: RobotModel):
    """(frame index, local end a, local end b, radius) per robot capsule,
    plus the (P, 2) self-collision pairs; `RobotModel.capsule_table` caches it."""
    entries = [(lc.frame, lc.shape) for lc in robot.link_capsules]
    tool_frame = len(robot.joints) + 1
    entries.extend((tool_frame, cap) for cap in robot.ee.capsules)
    frames_idx = np.array([e[0] for e in entries], dtype=int)
    local_a = np.array([e[1].p0 for e in entries], dtype=float)
    local_b = np.array([e[1].p1 for e in entries], dtype=float)
    radii = np.array([e[1].radius for e in entries], dtype=float)
    # self-collision pairs: links at least two frames apart
    i, j = np.triu_indices(len(entries), k=1)
    far = np.abs(frames_idx[i] - frames_idx[j]) >= 2
    pairs = np.column_stack([i[far], j[far]])  # (P, 2)
    return frames_idx, local_a, local_b, radii, pairs


def config_collides_batch(
    robot: RobotModel,
    qs: np.ndarray,
    scene: CapsuleSet,
    clearance: float,
    *,
    upto: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized collision test; True rows collide.

    Checks every robot/EE capsule against the scene plus non-adjacent
    self-collision pairs.  The robot's own static workcell capsules are
    always part of the scene, so callers pass only what they add to them.
    Rows are independent: testing configs in one call or in several gives
    the same booleans.  `clearance` is added to every capsule pair.

    `upto` gives each row a prefix of one ordered scene: row i sees only
    the obstacles `[0, upto[i])` (and the statics), so rows of many
    partial structures of one build order share a call.  Each pair is
    decided on its own, so a row's boolean is the one a call with the
    `CapsuleSet` of its prefix gives.  Only the first `max(upto)`
    obstacles enter the bound array.

    Three passes run in turn (scene, static capsules, self pairs), and each
    tests only the configs that no earlier pass has hit.  Within a pass a
    pair goes to the exact kernel (`mark_contacts`, in blocks of
    `EXACT_BLOCK` pairs) only when its bounding-sphere bound is below the
    contact limit plus `CULL_MARGIN`; pairs near contact are decided exactly.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))

    frames_idx, local_a, local_b, radii, pairs = robot.capsule_table
    frames = fk_frames_batch(robot, qs)  # (n, F, 4, 4)
    rot = frames[:, :, :3, :3][:, frames_idx]  # (n, c, 3, 3)
    shift = frames[:, :, :3, 3][:, frames_idx]  # (n, c, 3)
    world_a = np.einsum("ncij,cj->nci", rot, local_a) + shift
    world_b = np.einsum("ncij,cj->nci", rot, local_b) + shift
    mid, half = bounding_spheres(world_a, world_b)  # (n, c, 3), (n, c)

    hit = np.zeros(qs.shape[0], dtype=bool)
    for obstacles, seen in ((scene, upto), (robot.static_scene, None)):
        live = np.flatnonzero(~hit)
        m = len(obstacles)
        if seen is not None:
            seen = np.broadcast_to(seen, hit.shape)
            live = live[seen[live] > 0]
            m = min(m, int(seen.max(initial=0)))
        if not m or not len(live):
            continue
        o_a, o_b, o_mid = obstacles.a[:m], obstacles.b[:m], obstacles.mid[:m]
        limit = radii[:, None] + obstacles.radii[None, :m] + clearance  # (c, m)
        bound = distance3(mid[live, :, None, :], o_mid)  # (l, c, m)
        bound -= half[live, :, None]
        bound -= obstacles.half[:m]
        close = bound < limit + CULL_MARGIN
        if seen is not None:
            close &= np.arange(m) < seen[live, None, None]
        k, c, o = np.nonzero(close)
        rows = live[k]
        mark_contacts(
            hit, rows, (world_a[rows, c], world_b[rows, c], o_a[o], o_b[o]), limit[c, o]
        )
    live = np.flatnonzero(~hit)
    i, j = pairs[:, 0], pairs[:, 1]
    limit = radii[i] + radii[j] + clearance  # (P,)
    mid, half = mid[live], half[live]
    bound = distance3(mid[:, i], mid[:, j])  # (l, P)
    bound -= half[:, i]
    bound -= half[:, j]
    k, p = np.nonzero(bound < limit + CULL_MARGIN)
    rows, i, j = live[k], i[p], j[p]
    mark_contacts(
        hit, rows,
        (world_a[rows, i], world_b[rows, i], world_a[rows, j], world_b[rows, j]),
        limit[p],
    )
    return hit


def build_rungs_batch(
    robot: RobotModel,
    waypoints: Sequence[np.ndarray],
    orientations: Sequence[tuple[np.ndarray, float]],
    scene: CapsuleSet,
    clearance: float,
    *,
    upto: Sequence[int] | None = None,
) -> list[list[np.ndarray] | None]:
    """Collision-free IK configs per waypoint for each (direction, rotation)
    orientation: its rungs, or None if any of them is empty.

    `waypoints` holds one (k, 3) array per orientation, so orientations of
    different passes share a call; `upto`, if given, holds one prefix of
    the ordered `scene` per orientation (see `config_collides_batch`).
    All orientations' tool rotations come from one `tool_rotations` call and
    go through one `ik_sweep` as a stack.  None means some waypoint has no
    IK solution (then the orientation is not collision-tested) or no
    collision-free one.  The solutions of every orientation whose rungs all
    have IK solutions are tested in one `config_collides_batch` call and
    split back per waypoint; since rows are independent, each orientation's
    rungs are the same as when it is built alone.
    """
    sizes = [len(w) for w in waypoints]
    rots = tool_rotations([d for d, _ in orientations], [r for _, r in orientations])
    families = ik_sweep(robot, np.repeat(rots, sizes, axis=0), np.concatenate(waypoints))
    blocks = _pieces(families, sizes)
    reached = [all(len(fam) for fam in block) for block in blocks]
    tested = [fam for block, ok in zip(blocks, reached) if ok for fam in block]
    if not tested:
        return [None] * len(blocks)
    seen = None
    if upto is not None:
        counts = [sum(map(len, block)) for block, ok in zip(blocks, reached) if ok]
        seen = np.repeat([u for u, ok in zip(upto, reached) if ok], counts)
    free = ~config_collides_batch(
        robot, np.concatenate(tested), scene, clearance=clearance, upto=seen
    )
    masks = iter(_pieces(free, [len(fam) for fam in tested]))
    out: list[list[np.ndarray] | None] = []
    for block, ok in zip(blocks, reached):
        rungs = [fam[next(masks)] for fam in block] if ok else None
        out.append(rungs if rungs is not None and all(len(r) for r in rungs) else None)
    return out


def build_rungs(
    robot: RobotModel,
    waypoints: np.ndarray,
    direction: np.ndarray,
    rotation: float,
    scene: CapsuleSet,
    clearance: float,
    *,
    upto: int | None = None,
) -> list[np.ndarray] | None:
    """`build_rungs_batch` for one (direction, rotation) orientation."""
    return build_rungs_batch(
        robot, [waypoints], [(direction, rotation)], scene, clearance,
        upto=None if upto is None else [upto],
    )[0]


# ---------------------------------------------------------------------------
# loading


def _capsule(row: dict) -> CapsuleShape:
    """A capsule from its `{p0, p1, radius}` row."""
    return CapsuleShape(
        tuple(finite(v) for v in row["p0"]),
        tuple(finite(v) for v in row["p1"]),
        finite(row["radius"]),
    )


def load_robot(source: str | Path | dict) -> RobotModel:
    """Build a RobotModel from a JSON path or parsed document; every number
    in it must be finite and every link-capsule `frame` an integer."""
    doc = read_document(source, RobotConfigError, "robot")
    try:
        name = str(doc.get("name", "robot"))
        dh_rows = doc["dh"]
        joints = tuple(
            Joint(
                a=finite(row["a"]),
                alpha=math.radians(finite(row["alpha_deg"])),
                d=finite(row["d"]),
                theta=math.radians(finite(row.get("theta_offset_deg", 0.0))),
                lower=math.radians(finite(row["lower_deg"])),
                upper=math.radians(finite(row["upper_deg"])),
                weight=finite(row.get("weight", 1.0)),
            )
            for row in dh_rows
        )
        _check_solvable_family(joints)

        for key in ("base_pose", "tool", "home"):
            if not isinstance(doc.get(key, {}), dict):
                raise TypeError(f"'{key}' is not a JSON object")
        base = doc.get("base_pose", {})
        base_pose = make_transform(
            [finite(v) for v in base.get("origin", (0.0, 0.0, 0.0))],
            [math.radians(finite(v)) for v in base.get("rpy_deg", (0.0, 0.0, 0.0))],
        )
        tool_doc = doc.get("tool", {})
        tool = make_transform(
            [finite(v) for v in tool_doc.get("origin", (0.0, 0.0, 0.0))],
            [math.radians(finite(v)) for v in tool_doc.get("rpy_deg", (0.0, 0.0, 0.0))],
        )

        track = None
        if "track" in doc and doc["track"] is not None:
            tr = doc["track"]
            track = TrackSpec(
                direction=tuple(finite(v) for v in tr["direction"]),
                lower=finite(tr["lower"]),
                upper=finite(tr["upper"]),
                step=finite(tr.get("step", 10.0)),
                weight=finite(tr.get("weight", 1.0)),
            )

        home_doc = doc.get("home", {})
        home_arm = [math.radians(finite(v)) for v in home_doc.get("joints_deg", [0.0] * 6)]
        if track is not None:
            home = np.array([finite(home_doc.get("track", track.lower))] + home_arm)
        else:
            home = np.array(home_arm)

        link_capsules = tuple(
            LinkCapsule(frame=integer(row["frame"]), shape=_capsule(row))
            for row in doc.get("link_capsules", [])
        )
        clearance = finite(doc.get("clearance", 2.0))
        if "ee" in doc and doc["ee"] != "default":
            caps = tuple(_capsule(row) for row in doc["ee"]["capsules"])
            ee = EEGeometry(caps, clearance)
        else:
            ee = default_ee_geometry(clearance)
        static = tuple(_capsule(row) for row in doc.get("static_capsules", []))
    except (KeyError, TypeError, ValueError, OverflowError, GeometryError) as exc:
        raise RobotConfigError(f"bad robot document: {exc}") from exc

    robot = RobotModel(
        name=name,
        joints=joints,
        base_pose=base_pose,
        tool=tool,
        home=home,
        link_capsules=link_capsules,
        ee=ee,
        track=track,
        static_capsules=static,
        source=copy.deepcopy(doc),
    )
    max_frame = len(joints) + 1
    for lc in link_capsules:
        if not 0 <= lc.frame <= max_frame:
            raise RobotConfigError(f"link capsule frame {lc.frame} out of range")
    if not robot.within_limits(home):
        raise RobotConfigError("home configuration violates joint limits")
    return robot

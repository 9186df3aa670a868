"""The dense collision kernels, kept as the oracles for the culled ones.

`dense_config_collides_batch`, `dense_obstacle_contacts` and
`dense_ee_sweep_collision_batch` are `kinematics.config_collides_batch`,
`kinematics.obstacle_contacts` and `geometry.ee_sweep_collision_batch`
without their culls: every segment pair goes to the exact kernel, a row's
scene prefix is a mask over all pairs, and the sweep's stacked jobs are
decided one at a time.  Tests compare their
booleans with the library's.
"""

import numpy as np

from trusspath.geometry import EEGeometry, segment_distance_batch
from trusspath.kinematics import CapsuleSet, RobotModel, fk_frames_batch


def _dense_posed(robot: RobotModel, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World ends a and b, (n, c, 3) each, of every robot capsule."""
    frames_idx, local_a, local_b, _, _ = robot.capsule_table
    sel = fk_frames_batch(robot, np.atleast_2d(qs))[:, frames_idx]  # (n, c, 4, 4)
    world_a = np.einsum("ncij,cj->nci", sel[:, :, :3, :3], local_a) + sel[:, :, :3, 3]
    world_b = np.einsum("ncij,cj->nci", sel[:, :, :3, :3], local_b) + sel[:, :, :3, 3]
    return world_a, world_b


def dense_obstacle_contacts(
    robot: RobotModel, qs: np.ndarray, obstacles: CapsuleSet, clearance: float
) -> np.ndarray:
    """(n, m): whether config i comes within contact of obstacle j."""
    world_a, world_b = _dense_posed(robot, qs)
    radii = robot.capsule_table[3]
    dist = segment_distance_batch(
        world_a[:, :, None, :],
        world_b[:, :, None, :],
        obstacles.a[None, None, :, :],
        obstacles.b[None, None, :, :],
    )  # (n, c, m)
    limit = radii[None, :, None] + obstacles.radii[None, None, :] + clearance
    return np.any(dist < limit, axis=1)


def dense_config_collides_batch(
    robot: RobotModel,
    qs: np.ndarray,
    scene: CapsuleSet,
    clearance: float,
    *,
    upto: np.ndarray | None = None,
    frames: np.ndarray | None = None,
) -> np.ndarray:
    """Row i sees the scene obstacles `[0, upto[i])` (all of them when
    `upto` is None) and every static capsule.  `frames` is ignored: the
    oracle always poses `qs` itself, so a caller's frames are checked too."""
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    n = qs.shape[0]
    hit = np.zeros(n, dtype=bool)
    for obstacles, seen in ((scene, upto), (robot.static_scene, None)):
        if not len(obstacles):
            continue
        close = dense_obstacle_contacts(robot, qs, obstacles, clearance)  # (n, m)
        if seen is not None:
            close &= np.arange(len(obstacles)) < np.broadcast_to(seen, n)[:, None]
        hit |= close.any(axis=1)
    world_a, world_b = _dense_posed(robot, qs)
    _, _, _, radii, pairs = robot.capsule_table
    i, j = pairs[:, 0], pairs[:, 1]
    dist = segment_distance_batch(
        world_a[:, i], world_b[:, i], world_a[:, j], world_b[:, j]
    )  # (n, P)
    hit |= np.any(dist < radii[i] + radii[j] + clearance, axis=1)
    return hit


def dense_ee_sweep_collision_batch(
    path_points: np.ndarray,
    rotations: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    segment_radius: float,
    ee: EEGeometry,
    clearance: float,
    owner: np.ndarray | None = None,
) -> np.ndarray:
    n = len(path_points)
    owner = np.zeros(n, dtype=int) if owner is None else owner
    hit = np.zeros((int(owner.max(initial=0)) + 1, len(rotations)), dtype=bool)
    for cap in ee.capsules:
        a = path_points + (rotations @ cap.a)[:, None, :]  # (m, n, 3)
        b = path_points + (rotations @ cap.b)[:, None, :]
        close = segment_distance_batch(a, b, q0, q1) < cap.radius + segment_radius + clearance
        for job in range(len(hit)):
            hit[job] |= close[:, owner == job].any(axis=1)
    return hit

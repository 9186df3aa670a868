"""The dense collision kernels, kept as the oracles for the culled ones.

`dense_config_collides_batch` and `dense_ee_sweep_collision_batch` are
`kinematics.config_collides_batch` and `geometry.ee_sweep_collision_batch`
without their culls: every segment pair goes to the exact kernel, a row's
scene prefix is a mask over all pairs, and the sweep's stacked jobs are
decided one at a time.  Tests compare their
booleans with the library's.
"""

import numpy as np

from trusspath.geometry import EEGeometry, segment_distance_batch
from trusspath.kinematics import CapsuleSet, RobotModel, fk_frames_batch


def dense_config_collides_batch(
    robot: RobotModel,
    qs: np.ndarray,
    scene: CapsuleSet,
    clearance: float,
    *,
    upto: np.ndarray | None = None,
) -> np.ndarray:
    """Row i sees the scene obstacles `[0, upto[i])` (all of them when
    `upto` is None) and every static capsule."""
    qs = np.atleast_2d(np.asarray(qs, dtype=float))

    frames_idx, local_a, local_b, radii, pairs = robot.capsule_table
    frames = fk_frames_batch(robot, qs)  # (n, F, 4, 4)
    n = qs.shape[0]
    sel = frames[:, frames_idx]  # (n, c, 4, 4)
    world_a = np.einsum("ncij,cj->nci", sel[:, :, :3, :3], local_a) + sel[:, :, :3, 3]
    world_b = np.einsum("ncij,cj->nci", sel[:, :, :3, :3], local_b) + sel[:, :, :3, 3]

    hit = np.zeros(n, dtype=bool)
    for obstacles, seen in ((scene, upto), (robot.static_scene, None)):
        if not len(obstacles):
            continue
        dist = segment_distance_batch(
            world_a[:, :, None, :],
            world_b[:, :, None, :],
            obstacles.a[None, None, :, :],
            obstacles.b[None, None, :, :],
        )  # (n, c, m)
        limit = radii[None, :, None] + obstacles.radii[None, None, :] + clearance
        close = dist < limit
        if seen is not None:
            close &= np.arange(len(obstacles)) < np.broadcast_to(seen, n)[:, None, None]
        hit |= np.any(close, axis=(1, 2))
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

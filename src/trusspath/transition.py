"""Free-space joint motions connecting the extrusion segments.

Between the depart of one element and the approach of the next, the robot
moves through whatever free space is left by the partially built structure.
These moves are planned directly in joint space with a bidirectional
RRT-Connect, then tightened with random shortcut smoothing (which can only
ever shorten a weighted-L1 path, by the triangle inequality).

A direct straight-line check runs first since most transitions are short;
its grid and both endpoints' own checks share one collision query.
When the bidirectional search fails inside its budget, a second attempt
routes through the home configuration, which by convention must be free in
every scene; if even that fails, planning for the whole element ordering is
considered infeasible and an error carries the failing pair outward.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import PlannerConfig
from .kinematics import CapsuleSet, RobotModel, config_collides_batch


class TransitionPlanningError(Exception):
    pass


@dataclass
class TransitionResult:
    path: np.ndarray  # (m, dof), first row = start, last row = goal
    iterations: int
    cost: float
    via_home: bool


def path_cost(path: np.ndarray, weights: np.ndarray) -> float:
    if path.shape[0] < 2:
        return 0.0
    return float((np.abs(np.diff(path, axis=0)) * weights).sum())


def _interpolate(a: np.ndarray, b: np.ndarray, step_vec: np.ndarray) -> np.ndarray:
    """Collision-check sample grid for the segment a..b.

    The grid carries twice the intervals of the half-step audit grid that
    pipeline.validate_plan probes, and shares its endpoints and spacing, so
    every configuration the audit will test lies on a grid certified here.
    """
    ratio = float((np.abs(b - a) / step_vec).max())
    m = max(1, int(math.ceil(2.0 * ratio)))
    return np.linspace(a, b, 2 * m + 1)


def _segment_free(
    robot: RobotModel,
    a: np.ndarray,
    b: np.ndarray,
    scene: CapsuleSet,
    step_vec: np.ndarray,
    clearance: float,
) -> bool:
    qs = _interpolate(a, b, step_vec)
    return not config_collides_batch(robot, qs, scene, clearance=clearance).any()


class _Tree:
    def __init__(self, root: np.ndarray):
        self.nodes = [np.asarray(root, dtype=float)]
        self.parents = [-1]

    def nearest(self, q: np.ndarray, weights: np.ndarray) -> int:
        block = np.array(self.nodes)
        return int(np.argmin((np.abs(block - q[None, :]) * weights).sum(axis=1)))

    def add(self, q: np.ndarray, parent: int) -> int:
        self.nodes.append(q)
        self.parents.append(parent)
        return len(self.nodes) - 1

    def trace(self, index: int) -> list[np.ndarray]:
        out = []
        while index >= 0:
            out.append(self.nodes[index])
            index = self.parents[index]
        out.reverse()
        return out


def _steer(src: np.ndarray, dst: np.ndarray, step_vec: np.ndarray) -> np.ndarray:
    delta = dst - src
    scale = np.abs(delta) / step_vec
    m = scale.max()
    if m <= 1.0:
        return dst.copy()
    return src + delta / m


def rrt_connect(
    robot: RobotModel,
    start: np.ndarray,
    goal: np.ndarray,
    scene: CapsuleSet,
    step_vec: np.ndarray,
    max_iterations: int,
    timeout: float,
    rng: np.random.Generator,
    clearance: float,
) -> tuple[np.ndarray, int] | None:
    """Bidirectional tree search; returns (path, iterations) or None.

    The iteration cap is the primary budget, the timeout a secondary guard
    for scenes where collision checks are expensive.
    """
    weights = robot.weights
    lower, upper = robot.lower, robot.upper
    tree_a, tree_b = _Tree(start), _Tree(goal)
    a_is_start = True
    deadline = time.monotonic() + timeout

    for it in range(1, max_iterations + 1):
        if time.monotonic() > deadline:
            return None
        q_rand = rng.uniform(lower, upper)
        ni = tree_a.nearest(q_rand, weights)
        q_new = _steer(tree_a.nodes[ni], q_rand, step_vec)
        if _segment_free(robot, tree_a.nodes[ni], q_new, scene, step_vec, clearance):
            na = tree_a.add(q_new, ni)
            # greedily connect the other tree to the fresh node
            nb = tree_b.nearest(q_new, weights)
            while True:
                q_next = _steer(tree_b.nodes[nb], q_new, step_vec)
                if not _segment_free(robot, tree_b.nodes[nb], q_next, scene, step_vec, clearance):
                    break
                nb = tree_b.add(q_next, nb)
                if np.abs(q_next - q_new).max() < 1e-12:
                    half_a = tree_a.trace(na)
                    half_b = tree_b.trace(nb)
                    half_b.reverse()
                    path = half_a + half_b[1:]
                    if not a_is_start:
                        path.reverse()
                    return np.array(path), it
        tree_a, tree_b = tree_b, tree_a
        a_is_start = not a_is_start
    return None


def shortcut(
    robot: RobotModel,
    path: np.ndarray,
    scene: CapsuleSet,
    step_vec: np.ndarray,
    iterations: int,
    rng: np.random.Generator,
    clearance: float,
) -> np.ndarray:
    """Random shortcut smoothing; the result never costs more than the input.

    An edge `(pts[i], pts[j])` found blocked stays blocked for the whole
    call, so it is remembered (keyed by the rows' bytes) and a repeat draw
    skips its collision query.  The rng draws are the same either way, so
    the memory changes no result.
    """
    pts = [row for row in path]
    blocked: set[tuple[bytes, bytes]] = set()
    for _ in range(iterations):
        if len(pts) < 3:
            break
        i = int(rng.integers(0, len(pts) - 2))
        j = int(rng.integers(i + 2, len(pts)))
        edge = (pts[i].tobytes(), pts[j].tobytes())
        if edge in blocked:
            continue
        if _segment_free(robot, pts[i], pts[j], scene, step_vec, clearance):
            pts = pts[: i + 1] + pts[j:]
        else:
            blocked.add(edge)
    return np.array(pts)


def plan_transition(
    robot: RobotModel,
    start: np.ndarray,
    goal: np.ndarray,
    scene: CapsuleSet,
    config: PlannerConfig,
    rng: np.random.Generator | None = None,
) -> TransitionResult:
    """Collision-free joint path from `start` to `goal` within `scene`."""
    rng = rng or np.random.default_rng(config.seed)
    settings = config.transition
    weights = robot.weights
    ratio = config.prismatic_jump_limit / config.jump_limit
    step_vec = settings.step * robot.jump_limits(1.0, ratio)

    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    # one query for both endpoints and, when both are within the limits
    # (which bound its length), the direct segment's grid
    inside = robot.within_limits(start), robot.within_limits(goal)
    qs = [start[None, :], goal[None, :]]
    if all(inside):
        qs.append(_interpolate(start, goal, step_vec))
    hits = config_collides_batch(robot, np.concatenate(qs), scene, clearance=config.clearance)
    for name, ok, hit in zip(("start", "goal"), inside, hits):
        if not ok:
            raise TransitionPlanningError(f"transition {name} violates joint limits")
        if hit:
            raise TransitionPlanningError(f"transition {name} config collides")

    if not hits[2:].any():
        path = np.array([start, goal])
        return TransitionResult(path, 0, path_cost(path, weights), False)

    found = rrt_connect(
        robot, start, goal, scene, step_vec,
        settings.max_iterations, settings.direct_timeout, rng,
        config.clearance,
    )
    via_home = False
    if found is None:
        home = robot.home
        if config_collides_batch(robot, home[None, :], scene, clearance=config.clearance)[0]:
            raise TransitionPlanningError(
                "home configuration collides with the partial structure; "
                "no fallback route exists"
            )
        first = rrt_connect(
            robot, start, home, scene, step_vec,
            settings.max_iterations, settings.fallback_timeout, rng,
            config.clearance,
        )
        second = rrt_connect(
            robot, home, goal, scene, step_vec,
            settings.max_iterations, settings.fallback_timeout, rng,
            config.clearance,
        ) if first is not None else None
        if first is None or second is None:
            raise TransitionPlanningError(
                "no transition found, even through the home configuration"
            )
        path = np.concatenate([first[0], second[0][1:]], axis=0)
        iterations = first[1] + second[1]
        via_home = True
    else:
        path, iterations = found

    path = shortcut(
        robot, path, scene, step_vec, settings.smoothing_iterations, rng,
        config.clearance,
    )
    return TransitionResult(path, iterations, path_cost(path, weights), via_home)

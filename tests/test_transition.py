"""Free-space joint moves: direct connects, detours, smoothing, fallbacks."""

import numpy as np
import pytest

from trusspath import transition
from trusspath.config import PlannerConfig, TransitionSettings
from trusspath.fixtures import load_bundled_robot
from trusspath.geometry import CapsuleShape, pose_from_direction
from trusspath.kinematics import CapsuleSet, config_collides_batch, fk, ik
from trusspath.transition import (
    TransitionPlanningError,
    _interpolate,
    _segment_free,
    path_cost,
    plan_transition,
    rrt_connect,
    shortcut,
)

CFG = PlannerConfig()
UP = np.array([0.0, 0.0, 1.0])
EMPTY = CapsuleSet(())


@pytest.fixture(scope="module")
def robot():
    return load_bundled_robot("arm")


def nearest_ik(robot, point):
    """IK solution closest to home for an upward tool pose at `point`."""
    sols = ik(robot, pose_from_direction(np.asarray(point, dtype=float), UP, 0.0))
    assert sols, "test pose must be reachable"
    dists = [float((np.abs(q - robot.home) * robot.weights).sum()) for q in sols]
    return sols[int(np.argmin(dists))]


def step_vector(robot, cfg):
    ratio = cfg.prismatic_jump_limit / cfg.jump_limit
    return cfg.transition.step * robot.jump_limits(1.0, ratio)


@pytest.fixture(scope="module")
def blocked_pair(robot):
    """Two reachable configs whose straight joint-space line hits a ball."""
    qa = nearest_ik(robot, [450.0, -180.0, 250.0])
    qb = nearest_ik(robot, [450.0, 180.0, 250.0])
    step_vec = step_vector(robot, CFG)
    sweep = _interpolate(qa, qb, step_vec)
    mid_tip = fk(robot, sweep[len(sweep) // 2]).position
    ball = CapsuleShape(tuple(mid_tip - 1.0), tuple(mid_tip + 1.0), 80.0)
    scene = CapsuleSet((ball,))
    # the scenario is only meaningful if the line is blocked but both
    # endpoints and the home config stay free
    assert not _segment_free(robot, qa, qb, scene, step_vec, CFG.clearance)
    ends = np.array([qa, qb, robot.home])
    assert not config_collides_batch(robot, ends, scene, clearance=CFG.clearance).any()
    return qa, qb, scene


def test_path_cost_and_interpolation(robot):
    weights = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    path = np.array([[0.0] * 6, [0.1, -0.2, 0.0, 0.0, 0.0, 0.3]])
    assert path_cost(path, weights) == pytest.approx(0.1 + 0.4 + 0.3)
    assert path_cost(path[:1], weights) == 0.0

    a = np.zeros(3)
    b = np.array([1.0, -0.5, 0.2])
    step_vec = np.array([0.3, 0.3, 0.3])
    qs = _interpolate(a, b, step_vec)
    assert np.array_equal(qs[0], a) and np.array_equal(qs[-1], b)
    assert np.all(np.abs(np.diff(qs, axis=0)) <= step_vec[None, :] + 1e-12)


def test_direct_connect_in_free_space(robot):
    goal = nearest_ik(robot, [450.0, -180.0, 250.0])
    result = plan_transition(robot, robot.home, goal, EMPTY, CFG)
    assert result.path.shape == (2, robot.dof)
    assert np.array_equal(result.path[0], robot.home)
    assert np.array_equal(result.path[-1], goal)
    assert result.iterations == 0
    assert not result.via_home
    direct = float((np.abs(goal - robot.home) * robot.weights).sum())
    assert result.cost == pytest.approx(direct, abs=1e-12)


def test_endpoints_are_validated(robot):
    bad = robot.home.copy()
    bad[1] = robot.upper[1] + 1.0
    with pytest.raises(TransitionPlanningError, match="violates joint limits"):
        plan_transition(robot, bad, robot.home, EMPTY, CFG)

    goal = nearest_ik(robot, [450.0, -180.0, 250.0])
    tip = fk(robot, goal).position
    ball = CapsuleSet((CapsuleShape(tuple(tip - 1.0), tuple(tip + 1.0), 60.0),))
    with pytest.raises(TransitionPlanningError, match="goal config collides"):
        plan_transition(robot, robot.home, goal, ball, CFG)
    with pytest.raises(TransitionPlanningError, match="start config collides"):
        plan_transition(robot, goal, robot.home, ball, CFG)


def test_blocked_line_forces_collision_free_detour(robot, blocked_pair):
    qa, qb, scene = blocked_pair
    result = plan_transition(robot, qa, qb, scene, CFG, rng=np.random.default_rng(11))
    assert np.array_equal(result.path[0], qa)
    assert np.array_equal(result.path[-1], qb)
    assert result.iterations > 0
    direct = float((np.abs(qb - qa) * robot.weights).sum())
    assert result.cost >= direct - 1e-9
    assert result.cost == pytest.approx(path_cost(result.path, robot.weights), abs=1e-12)

    # every segment must stay collision-free under a finer sweep than the
    # planner's own resolution
    fine = step_vector(robot, CFG) / 4.0
    for a, b in zip(result.path[:-1], result.path[1:]):
        assert _segment_free(robot, a, b, scene, fine, CFG.clearance)


def test_detour_is_deterministic_per_seed(robot, blocked_pair):
    qa, qb, scene = blocked_pair
    one = plan_transition(robot, qa, qb, scene, CFG, rng=np.random.default_rng(11))
    two = plan_transition(robot, qa, qb, scene, CFG, rng=np.random.default_rng(11))
    assert np.array_equal(one.path, two.path)
    assert one.cost == two.cost
    assert one.iterations == two.iterations


def test_shortcut_never_increases_cost(robot, blocked_pair):
    qa, qb, scene = blocked_pair
    step_vec = step_vector(robot, CFG)
    raw = rrt_connect(
        robot, qa, qb, scene, step_vec, 3000, 5.0,
        np.random.default_rng(3), CFG.clearance,
    )
    assert raw is not None
    raw_path, _ = raw
    raw_cost = path_cost(raw_path, robot.weights)
    improved = False
    for seed in range(5):
        smooth = shortcut(
            robot, raw_path, scene, step_vec, 200,
            np.random.default_rng(seed), CFG.clearance,
        )
        cost = path_cost(smooth, robot.weights)
        assert cost <= raw_cost + 1e-9
        improved = improved or cost < raw_cost - 1e-9
        assert np.array_equal(smooth[0], qa) and np.array_equal(smooth[-1], qb)
        for a, b in zip(smooth[:-1], smooth[1:]):
            assert _segment_free(robot, a, b, scene, step_vec, CFG.clearance)
    assert improved, "at least one seed should find a shortcut on a detour"


def reference_shortcut(robot, path, scene, step_vec, iterations, rng, clearance):
    """`shortcut` without its blocked-edge memory: every draw asks."""
    pts = [row for row in path]
    for _ in range(iterations):
        if len(pts) < 3:
            break
        i = int(rng.integers(0, len(pts) - 2))
        j = int(rng.integers(i + 2, len(pts)))
        if transition._segment_free(robot, pts[i], pts[j], scene, step_vec, clearance):
            pts = pts[: i + 1] + pts[j:]
    return np.array(pts)


def test_shortcut_memory_changes_no_result(robot, blocked_pair, monkeypatch):
    qa, qb, scene = blocked_pair
    step_vec = step_vector(robot, CFG)
    raw_path, _ = rrt_connect(
        robot, qa, qb, scene, step_vec, 3000, 5.0,
        np.random.default_rng(3), CFG.clearance,
    )
    calls = []
    segment_free = transition._segment_free

    def counted(*args):
        calls.append(args)
        return segment_free(*args)

    monkeypatch.setattr(transition, "_segment_free", counted)
    for seed in range(5):
        runs = []
        for smooth in (shortcut, reference_shortcut):
            rng = np.random.default_rng(seed)
            calls.clear()
            path = smooth(robot, raw_path, scene, step_vec, 200, rng, CFG.clearance)
            runs.append((path, rng.bit_generator.state, len(calls)))
        (path, state, asked), (ref_path, ref_state, ref_asked) = runs
        assert np.array_equal(path, ref_path)
        assert state == ref_state  # the same draws
        assert asked < ref_asked, (seed, asked, ref_asked)


def test_no_route_raises_after_home_fallback(robot, blocked_pair):
    qa, qb, scene = blocked_pair
    starved = CFG.replace(
        transition=TransitionSettings(
            max_iterations=1, direct_timeout=1e-9, fallback_timeout=1e-9
        )
    )
    with pytest.raises(TransitionPlanningError, match="even through the home"):
        plan_transition(robot, qa, qb, scene, starved, rng=np.random.default_rng(0))


def test_colliding_home_disables_fallback(robot, blocked_pair):
    qa, qb, scene = blocked_pair
    home_tip = fk(robot, robot.home).position
    plug = CapsuleShape(tuple(home_tip - 1.0), tuple(home_tip + 1.0), 60.0)
    scene2 = CapsuleSet(scene.capsules + (plug,))
    assert not config_collides_batch(
        robot, np.array([qa, qb]), scene2, clearance=CFG.clearance
    ).any()
    starved = CFG.replace(
        transition=TransitionSettings(
            max_iterations=1, direct_timeout=1e-9, fallback_timeout=1e-9
        )
    )
    with pytest.raises(TransitionPlanningError, match="no fallback route"):
        plan_transition(robot, qa, qb, scene2, starved, rng=np.random.default_rng(0))

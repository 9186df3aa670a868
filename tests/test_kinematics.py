"""Forward/inverse kinematics, Jacobian, limits, and collision queries."""

import dataclasses
import json
import math

import numpy as np
import pytest

from dense_collision import dense_config_collides_batch, dense_obstacle_contacts
from trusspath.fixtures import fixture_path, load_bundled_model, load_bundled_robot
from trusspath import kinematics
from trusspath.geometry import (
    CapsuleShape,
    direction_rotation_from_frame,
    sample_directions,
    tool_rotations,
)
from trusspath.kinematics import (
    CapsuleSet,
    EEPose,
    RobotConfigError,
    TrackSpec,
    _POSE_TOL,
    _dh_matrix_batch,
    _flange_targets,
    _ik_arm,
    build_rungs,
    build_rungs_batch,
    clear_rows,
    config_collides_batch,
    fk,
    fk_frames,
    fk_frames_batch,
    ik,
    ik_sweep,
    invert_transform,
    jacobian,
    load_robot,
    make_transform,
    obstacle_contacts,
)
from trusspath.truss import discretize_element

IK_MATCH_TOL = 1e-9
IK_POSE_TOL = 1e-6
JAC_TOL = 1e-5


def bundled_doc():
    return json.loads(fixture_path("kr6_like.json").read_text())


def tracked_doc():
    doc = bundled_doc()
    doc["track"] = {"direction": [0.0, 1.0, 0.0], "lower": -500.0, "upper": 500.0, "step": 100.0}
    doc["home"]["track"] = 0.0
    return doc


def pose_error(robot, q, target):
    got = fk(robot, q)
    pos = float(np.linalg.norm(got.position - target.position))
    direction = float(np.linalg.norm(got.direction - target.direction))
    roll = abs((got.rotation - target.rotation + math.pi) % (2 * math.pi) - math.pi)
    return max(pos, direction, roll)


def test_fk_home_is_sane():
    robot = load_bundled_robot("arm")
    pose = fk(robot, robot.home)
    assert np.all(np.isfinite(pose.position))
    assert np.linalg.norm(pose.direction) == pytest.approx(1.0, abs=1e-12)
    frames = fk_frames(robot, robot.home)
    assert frames.shape == (len(robot.joints) + 2, 4, 4)
    for f in frames:
        r = f[:3, :3]
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)


def test_ik_round_trip_recovers_configuration():
    robot = load_bundled_robot("arm")
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(robot.lower, robot.upper)
        target = fk(robot, q)
        solutions = ik(robot, target)
        assert solutions, "reachable pose lost by IK"
        best = min(float(np.max(np.abs(s - q))) for s in solutions)
        worst = max(worst, best)
        # every branch must independently reproduce the target pose
        for s in solutions:
            assert robot.within_limits(s)
            assert pose_error(robot, s, target) < IK_POSE_TOL
    assert worst < IK_MATCH_TOL


def test_ik_rejects_unreachable_pose():
    robot = load_bundled_robot("arm")
    target = EEPose(
        np.array([1e5, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 0.0
    )
    assert ik(robot, target) == []


def test_ik_sweep_matches_pointwise_ik():
    robot = load_bundled_robot("arm")
    rng = np.random.default_rng(23)
    q = rng.uniform(robot.lower, robot.upper)
    base = fk(robot, q)
    frame = base.frame()
    rotation = frame[:3, :3]
    origins = base.position[None, :] + rng.uniform(-30, 30, size=(5, 3))
    swept = ik_sweep(robot, rotation, origins)
    assert len(swept) == 5
    for origin, family in zip(origins, swept):
        f = frame.copy()
        f[:3, 3] = origin
        single = ik(robot, f)
        assert len(single) == len(family)
        for a, b in zip(single, family):
            assert np.allclose(a, b, atol=1e-9)


def oracle_ik_sweep(robot, rotation, origins):
    """`ik_sweep` as a fixed-arm branch and a rail branch: a Python loop sorts
    each (origin, rail position)'s verified rows, and the rail branch sorts
    each origin's concatenated rows a second time."""
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    n = origins.shape[0]
    frames = np.zeros((n, 4, 4))
    frames[:, 3, 3] = 1.0
    frames[:, :3, :3] = rotation
    frames[:, :3, 3] = origins
    rot, pos = _flange_targets(robot, frames)

    def verify_and_filter(rot, pos, track):
        sols, valid = _ik_arm(robot, rot, pos)
        n, branches, _ = sols.shape
        flat = sols.reshape(n * branches, 6)
        mask = valid.reshape(n * branches)
        lows = np.array([j.lower for j in robot.joints])
        highs = np.array([j.upper for j in robot.joints])
        mask &= np.all((flat >= lows - 1e-9) & (flat <= highs + 1e-9), axis=1)
        cur = np.eye(4)[None, :, :].repeat(n * branches, axis=0)
        for i, joint in enumerate(robot.joints):
            cur = cur @ _dh_matrix_batch(joint, flat[:, i])
        pos_err = np.linalg.norm(cur[:, :3, 3] - np.repeat(pos, branches, axis=0), axis=1)
        rot_err = np.linalg.norm(
            cur[:, :3, :3] - np.repeat(rot, branches, axis=0), axis=(1, 2)
        ) / math.sqrt(2.0)
        mask &= (pos_err < _POSE_TOL) & (rot_err < _POSE_TOL)
        mask = mask.reshape(n, branches)
        out = []
        for i in range(n):
            rows = []
            for b in range(branches):
                if mask[i, b]:
                    arm = sols[i, b]
                    rows.append(arm if track is None else np.concatenate([[track[i]], arm]))
            rows.sort(key=lambda r: tuple(r))
            out.append(rows)
        return out

    if robot.track is None:
        return verify_and_filter(rot, pos, None)
    grid = robot.track.positions()
    axis = np.asarray(robot.track.direction, dtype=float)
    s = grid.shape[0]
    pos_all = (pos[:, None, :] - grid[None, :, None] * axis[None, None, :]).reshape(n * s, 3)
    grouped = verify_and_filter(np.repeat(rot, s, axis=0), pos_all, np.tile(grid, n))
    out = []
    for i in range(n):
        rows = [q for g in grouped[i * s : (i + 1) * s] for q in g]
        rows.sort(key=lambda r: tuple(r))
        out.append(rows)
    return out


def test_ik_sweep_matches_two_branch_oracle_bit_for_bit():
    rng = np.random.default_rng(47)
    total = 0
    for robot in (load_bundled_robot("arm"), load_robot(tracked_doc())):
        for _ in range(7):
            q = rng.uniform(robot.lower, robot.upper)
            frame = fk(robot, q).frame()
            origins = frame[:3, 3] + rng.uniform(-40.0, 40.0, size=(12, 3))
            origins[5] = (1e5, 0.0, 0.0)  # unreachable: an empty family
            for pts in (origins, origins[0]):  # a sweep and a single origin
                got = ik_sweep(robot, frame[:3, :3], pts)
                want = oracle_ik_sweep(robot, frame[:3, :3], pts)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    w = np.array(w, dtype=float).reshape(-1, robot.dof)
                    assert g.shape == w.shape
                    assert g.tobytes() == w.tobytes()
                    total += len(g)
    assert total > 1000


def test_ik_sweep_rotation_stack_equals_one_call_per_rotation():
    rng = np.random.default_rng(53)
    rows = 0
    for robot in (load_bundled_robot("arm"), load_robot(tracked_doc())):
        q = rng.uniform(robot.lower, robot.upper)
        tip = fk(robot, q).position
        rotations = [
            fk(robot, rng.uniform(robot.lower, robot.upper)).frame()[:3, :3] for _ in range(4)
        ]
        rotations.append(fk(robot, q).frame()[:3, :3])  # reaches every origin near the tip
        origins = tip + rng.uniform(-40.0, 40.0, size=(9, 3))
        origins[4] = (1e5, 0.0, 0.0)  # unreachable: an empty family per rotation
        k = len(origins)
        stacked = ik_sweep(
            robot, np.repeat(rotations, k, axis=0), np.tile(origins, (len(rotations), 1))
        )
        assert len(stacked) == len(rotations) * k
        for r, rotation in enumerate(rotations):
            for got, want in zip(stacked[r * k : (r + 1) * k], ik_sweep(robot, rotation, origins)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                rows += len(got)
    assert rows > 100


def fd_jacobian(robot, q, eps=1e-6):
    """Central-difference geometric Jacobian: rows (v; omega)."""
    cols = []
    for k in range(robot.dof):
        hi, lo = q.copy(), q.copy()
        hi[k] += eps
        lo[k] -= eps
        fhi = fk_frames(robot, hi)[-1]
        flo = fk_frames(robot, lo)[-1]
        v = (fhi[:3, 3] - flo[:3, 3]) / (2 * eps)
        dr = (fhi[:3, :3] - flo[:3, :3]) / (2 * eps)
        skew = dr @ fk_frames(robot, q)[-1][:3, :3].T
        omega = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
        cols.append(np.concatenate([v, omega]))
    return np.column_stack(cols)


def test_jacobian_matches_finite_differences():
    robot = load_bundled_robot("arm")
    rng = np.random.default_rng(29)
    for _ in range(20):
        q = rng.uniform(robot.lower * 0.9, robot.upper * 0.9)
        analytic = jacobian(robot, q)
        numeric = fd_jacobian(robot, q)
        assert analytic.shape == (6, robot.dof)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=JAC_TOL)


def test_limits_and_jump_limits():
    robot = load_bundled_robot("arm")
    assert robot.within_limits(robot.home)
    assert not robot.within_limits(robot.upper + 1.0)
    steps = robot.jump_limits(0.15, 15.0)
    assert steps.shape == (robot.dof,)
    assert np.all(steps == 0.15)  # all revolute on the bundled arm


def test_make_and_invert_transform():
    rng = np.random.default_rng(31)
    for _ in range(20):
        origin = rng.uniform(-100, 100, 3)
        rpy = rng.uniform(-math.pi, math.pi, 3)
        t = make_transform(origin, rpy)
        assert np.allclose(t @ invert_transform(t), np.eye(4), atol=1e-12)
    # yaw of 90 degrees turns +x into +y
    t = make_transform((0, 0, 0), (0.0, 0.0, math.pi / 2))
    assert np.allclose(t[:3, :3] @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_eepose_frame_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        if abs(direction[2]) > 0.99:
            continue
        pose = EEPose(rng.uniform(-50, 50, 3), direction, rng.uniform(0, 2 * math.pi))
        back = EEPose.from_frame(pose.frame())
        assert np.allclose(back.position, pose.position)
        assert np.allclose(back.direction, pose.direction, atol=1e-9)
        assert back.rotation == pytest.approx(pose.rotation, abs=1e-9)


def test_track_extends_dof_and_ik():
    robot = load_robot(tracked_doc())
    assert robot.dof == 7
    assert robot.lower[0] == -500.0 and robot.upper[0] == 500.0
    steps = robot.jump_limits(0.15, 15.0)
    assert steps[0] == 15.0 and np.all(steps[1:] == 0.15)

    grid = robot.track.positions()
    assert grid[0] == -500.0 and grid[-1] == 500.0
    assert np.all(np.diff(grid) <= robot.track.step + 1e-9)

    rng = np.random.default_rng(41)
    for _ in range(10):
        q = rng.uniform(robot.lower, robot.upper)
        q[0] = rng.choice(grid)  # IK solves the rail on its grid only
        target = fk(robot, q)
        solutions = ik(robot, target)
        assert solutions
        best = min(float(np.max(np.abs(s - q))) for s in solutions)
        assert best < IK_MATCH_TOL
        for s in solutions:
            assert s[0] in grid
            assert pose_error(robot, s, target) < IK_POSE_TOL


def test_track_spec_validation():
    with pytest.raises(RobotConfigError):
        TrackSpec((0.0, 1.0, 0.0), lower=5.0, upper=-5.0)
    with pytest.raises(RobotConfigError):
        TrackSpec((0.0, 2.0, 0.0), lower=-5.0, upper=5.0)  # not unit
    with pytest.raises(RobotConfigError):
        TrackSpec((0.0, 1.0, 0.0), lower=-5.0, upper=5.0, step=0.0)


def collides(robot, q, scene, clearance=2.0):
    """One configuration through the batch query."""
    return config_collides_batch(
        robot, np.asarray(q)[None], CapsuleSet(scene), clearance
    )[0]


def test_config_collides_with_scene():
    robot = load_bundled_robot("arm")
    assert not collides(robot, robot.home, [])
    tip = fk(robot, robot.home).position
    blocker = CapsuleShape(tuple(tip - 5.0), tuple(tip + 5.0), 30.0)
    assert collides(robot, robot.home, [blocker])
    far = CapsuleShape((5000.0, 5000.0, 0.0), (5000.0, 5000.0, 100.0), 50.0)
    assert not collides(robot, robot.home, [far])


def test_config_collides_batch_matches_single():
    robot = load_bundled_robot("arm")
    rng = np.random.default_rng(43)
    qs = rng.uniform(robot.lower * 0.7, robot.upper * 0.7, size=(12, robot.dof))
    scene = [CapsuleShape((400.0, 0.0, 0.0), (400.0, 0.0, 800.0), 60.0)]
    batch = config_collides_batch(robot, qs, CapsuleSet(scene), clearance=2.0)
    assert batch.shape == (12,)
    for row, q in zip(batch, qs):
        assert row == collides(robot, q, scene)
    assert batch.any() or not batch.all()  # vector is well formed


def independence_set(rng):
    """The bundled arm, a scene of the cube's first 12 elements and 300
    configs: 150 anywhere in the limits, 150 around home."""
    robot = load_bundled_robot("arm")
    model = load_bundled_model("cube")
    scene = CapsuleSet(
        [
            CapsuleShape(*map(tuple, model.element_segment(e.id)), model.section.radius)
            for e in model.elements[:12]
        ]
    )
    qs = np.concatenate(
        [
            rng.uniform(robot.lower, robot.upper, size=(150, robot.dof)),
            robot.home + rng.normal(0.0, 0.4, size=(150, robot.dof)),
        ]
    )
    return robot, scene, qs


def test_config_collides_batch_rows_are_independent():
    rng = np.random.default_rng(44)
    robot, scene, qs = independence_set(rng)
    stacked = config_collides_batch(robot, qs, scene, clearance=2.0)
    assert stacked.any() and not stacked.all()
    for _ in range(5):
        cuts = np.sort(rng.choice(np.arange(1, len(qs)), size=40, replace=False))
        chunks = [
            config_collides_batch(robot, part, scene, clearance=2.0)
            for part in np.split(qs, cuts)
        ]
        assert np.array_equal(np.concatenate(chunks), stacked)


@pytest.mark.parametrize("clearance", [0.0, 2.0, 10.0])
def test_culled_collision_test_matches_dense_oracle(clearance):
    robot, scene, qs = independence_set(np.random.default_rng(44))
    culled = config_collides_batch(robot, qs, scene, clearance=clearance)
    assert np.array_equal(culled, dense_config_collides_batch(robot, qs, scene, clearance))
    assert culled.any() and not culled.all()
    # the self pairs alone, with no obstacle at all
    empty = CapsuleSet(())
    assert np.array_equal(
        config_collides_batch(robot, qs, empty, clearance=clearance),
        dense_config_collides_batch(robot, qs, empty, clearance),
    )


def _unit_normal(u):
    """A unit vector perpendicular to the unit vector `u`."""
    w = np.cross(u, np.eye(3)[int(np.argmin(np.abs(u)))])
    return w / np.linalg.norm(w)


def near_contact_configs():
    """The bundled arm and 12 collision-free configs around home."""
    robot = load_bundled_robot("arm")
    rng = np.random.default_rng(7)
    qs = robot.home + rng.normal(0.0, 0.3, size=(40, robot.dof))
    qs = qs[~dense_config_collides_batch(robot, qs, CapsuleSet(()), 2.0)][:12]
    assert len(qs) == 12
    return robot, qs


def near_contact_obstacles(robot, q, clearance, radius=5.0):
    """(obstacle, delta) pairs: per robot capsule at `q`, radius-`radius`
    obstacles `delta` = 1e-7 mm outside (or, negative, inside) contact, end
    on along its axis, where the bounding-sphere bound is tight, and
    alongside it, where the bound is loose."""
    frames_idx, local_a, local_b, radii, _ = robot.capsule_table
    frames = fk_frames(robot, q)[frames_idx]
    world_a = np.einsum("cij,cj->ci", frames[:, :3, :3], local_a) + frames[:, :3, 3]
    world_b = np.einsum("cij,cj->ci", frames[:, :3, :3], local_b) + frames[:, :3, 3]
    for a, b, r in zip(world_a, world_b, radii):
        u = (b - a) / np.linalg.norm(b - a)
        w = _unit_normal(u)
        for delta in (-1e-7, 1e-7):
            gap = r + radius + clearance + delta
            for p0, p1 in (
                (b + gap * u, b + (gap + 50.0) * u),  # end on
                (a + gap * w, b + gap * w),  # alongside
            ):
                yield CapsuleShape(tuple(p0), tuple(p1), radius), delta


@pytest.mark.parametrize("where", ["scene", "static"])
def test_culled_collision_test_decides_near_contact_exactly(where):
    """One obstacle per query, placed within 1e-7 mm of contact with one
    robot capsule: end on along its axis, where the bounding-sphere bound
    is tight, and alongside it, where the bound is loose."""
    robot, qs = near_contact_configs()
    clearance = 2.0
    outcomes = set()
    for q in qs:
        for obstacle, delta in near_contact_obstacles(robot, q, clearance):
            if where == "scene":
                probe, scene = robot, CapsuleSet((obstacle,))
            else:
                probe = dataclasses.replace(robot, static_capsules=(obstacle,))
                scene = CapsuleSet(())
            culled = config_collides_batch(probe, q[None], scene, clearance)[0]
            dense = dense_config_collides_batch(probe, q[None], scene, clearance)[0]
            assert culled == dense
            if delta < 0.0:
                assert culled  # 1e-7 mm inside the contact limit
            outcomes.add(bool(culled))
    assert outcomes == {True, False}


def posed(robot, qs):
    return kinematics._posed_capsules(robot, fk_frames_batch(robot, qs))


def cube_contact_set():
    """The bundled arm, the whole cube's scene, and the IK rows of tool
    poses along every fourth cube element, so many rows touch the cube."""
    robot = load_bundled_robot("arm")
    model = load_bundled_model("cube")
    directions = sample_directions(24)
    qs = [
        ik_sweep(
            robot, tool_rotations(directions[a], 0.0)[0],
            discretize_element(model, e.id, 10.0, start_node=e.start),
        ).rows
        for e in model.elements[::4]
        for a in range(0, len(directions), 4)
    ]
    return robot, model.scene([e.id for e in model.elements]), np.concatenate(qs)


@pytest.mark.parametrize("clearance", [0.0, 2.0, 10.0])
def test_obstacle_contacts_match_the_dense_oracle_pair_by_pair(clearance):
    """Each (config, obstacle) contact against the dense oracle; the contacts
    of a gathered subset are the whole scene's columns; and a config's
    collision query is its obstacle-free query or'd with its contacts."""
    robot, scene, qs = cube_contact_set()
    got = obstacle_contacts(robot, posed(robot, qs), scene, clearance)
    assert np.array_equal(got, dense_obstacle_contacts(robot, qs, scene, clearance))
    assert (got.sum(axis=1) == 0).any() and (got.sum(axis=1) > 2).any()
    columns = np.array([19, 2, 5, 11, 0])
    subset = obstacle_contacts(robot, posed(robot, qs), scene.take(columns), clearance)
    assert np.array_equal(subset, got[:, columns])
    alone = config_collides_batch(robot, qs, CapsuleSet(()), clearance)
    assert np.array_equal(
        config_collides_batch(robot, qs, scene, clearance), alone | got.any(axis=1)
    )


def test_obstacle_contacts_decide_near_contact_exactly():
    """One call per config against all of its near-contact obstacles at
    once: each pair is decided as the dense oracle decides it."""
    robot, qs = near_contact_configs()
    clearance = 2.0
    inside = outside = 0
    for q in qs:
        obstacles, deltas = zip(*near_contact_obstacles(robot, q, clearance))
        scene = CapsuleSet(obstacles)
        got = obstacle_contacts(robot, posed(robot, q[None]), scene, clearance)[0]
        assert np.array_equal(got, dense_obstacle_contacts(robot, q[None], scene, clearance)[0])
        assert got[np.array(deltas) < 0.0].all()
        inside += int(got.sum())
        outside += int((~got).sum())
    assert inside and outside


def test_clear_rows_and_their_contacts_decide_as_build_rungs():
    """Per orientation over the cube: `clear_rows` is None exactly when
    `build_rungs` fails with nothing placed, and a waypoint keeps a row
    free of the contacts with a scene exactly when `build_rungs` against
    that scene has a rung there."""
    robot = load_bundled_robot("arm")
    model = load_bundled_model("cube")
    order = [e.id for e in model.elements]
    elements = model.scene(order)
    directions = sample_directions(24)
    rng = np.random.default_rng(50)
    outcomes = set()
    for eid in order[::3]:
        e = model.element(eid)
        pts = discretize_element(model, eid, 4.0, start_node=e.start)
        for a in range(0, len(directions), 5):
            for roll in (0.0, 2.4):
                rows = clear_rows(
                    robot, pts, tool_rotations(directions[a], roll)[0], clearance=2.0
                )
                empty = build_rungs(robot, pts, directions[a], roll, CapsuleSet(()), 2.0)
                assert (rows is None) == (empty is None), (eid, a, roll)
                if rows is None:
                    outcomes.add("unreachable")
                    continue
                owner, capsules = rows
                contacts = obstacle_contacts(robot, capsules, elements, 2.0)
                placed = rng.choice(len(order), size=int(rng.integers(1, 12)), replace=False)
                free = ~contacts[:, placed].any(axis=1)
                want = build_rungs(
                    robot, pts, directions[a], roll, elements.take(placed), 2.0
                )
                assert np.bincount(owner[free], minlength=len(pts)).all() == (want is not None)
                outcomes.add("free" if want is not None else "blocked")
    assert outcomes == {"unreachable", "free", "blocked"}


def test_prefix_rows_equal_calls_on_their_own_prefix_scene():
    """Row i with `upto[i] = u` against a call on `CapsuleSet(scene.capsules[:u])`,
    for the query and its dense oracle.  The ordered scene holds two
    obstacles end on to a robot capsule of one free config, 1e-7 mm inside
    and outside the contact limit; that config is queried at every prefix,
    so each obstacle is hidden from some of its rows and seen by others."""
    robot, elements, qs = independence_set(np.random.default_rng(45))
    frames_idx, local_a, local_b, radii, _ = robot.capsule_table
    clearance, radius = 2.0, 5.0
    q = qs[~dense_config_collides_batch(robot, qs, elements, clearance)][0]
    frames = fk_frames(robot, q)[frames_idx]
    a, b = (
        np.einsum("cij,cj->ci", frames[:, :3, :3], p) + frames[:, :3, 3] for p in (local_a, local_b)
    )
    u = (b[-1] - a[-1]) / np.linalg.norm(b[-1] - a[-1])
    near = []
    for delta in (-1e-7, 1e-7):
        gap = radii[-1] + radius + clearance + delta
        near.append(CapsuleShape(tuple(b[-1] + gap * u), tuple(b[-1] + (gap + 50.0) * u), radius))
    capsules = list(elements.capsules)
    inside, outside = 3, 9
    capsules.insert(inside, near[0])
    capsules.insert(outside, near[1])
    scene = CapsuleSet(capsules)

    rng = np.random.default_rng(46)
    prefixes = np.arange(len(scene) + 1)
    configs = np.concatenate([np.repeat(q[None], len(prefixes), axis=0), qs])
    upto = np.concatenate([prefixes, rng.integers(0, len(scene) + 1, size=len(qs))])
    upto[len(prefixes) : len(prefixes) + 2] = (0, len(scene))
    got = config_collides_batch(robot, configs, scene, clearance, upto=upto)
    dense = dense_config_collides_batch(robot, configs, scene, clearance, upto=upto)
    for query, stacked in ((config_collides_batch, got), (dense_config_collides_batch, dense)):
        one_by_one = [
            query(robot, c[None], CapsuleSet(scene.capsules[:k]), clearance)[0]
            for c, k in zip(configs, upto)
        ]
        assert np.array_equal(stacked, one_by_one)
    assert np.array_equal(got, dense)
    # the config touches only the obstacle 1e-7 mm inside contact
    assert np.array_equal(got[: len(prefixes)], prefixes > inside)
    assert got[len(prefixes) :].any() and not got[len(prefixes) :].all()


def test_scene_prefixes_equal_scenes_built_from_their_elements():
    """`prefix(k)` of an ordered cube scene against `model.scene(order[:k])`
    for every k: views of the ordered scene's arrays, bit-equal to the built
    ones, so a collision query gives the same booleans on either."""
    robot = load_bundled_robot("arm")
    model = load_bundled_model("cube")
    rng = np.random.default_rng(49)
    order = rng.permutation([e.id for e in model.elements]).tolist()
    ordered = model.scene(order)
    qs = np.concatenate(
        [
            rng.uniform(robot.lower, robot.upper, size=(150, robot.dof)),
            robot.home + rng.normal(0.0, 0.4, size=(150, robot.dof)),
        ]
    )
    hits = []
    for k in range(len(order) + 1):
        view, built = ordered.prefix(k), model.scene(order[:k])
        assert len(view) == k and view.capsules == built.capsules
        for name in ("a", "b", "radii", "mid", "half"):
            got, want = getattr(view, name), getattr(built, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, name)
            assert k == 0 or np.shares_memory(got, getattr(ordered, name)), (k, name)
        hits.append(config_collides_batch(robot, qs, view, 2.0))
        assert np.array_equal(hits[-1], config_collides_batch(robot, qs, built, 2.0)), k
    # some configs collide with the whole cube only
    assert hits[-1].sum() > hits[0].sum() and not hits[-1].all()


@pytest.mark.parametrize("doc", [bundled_doc, tracked_doc], ids=["bundled", "rail"])
def test_collision_query_given_its_frames_equals_its_own_forward_kinematics(doc):
    robot = load_robot(doc())
    _, scene, _ = independence_set(np.random.default_rng(47))
    rng = np.random.default_rng(48)
    qs = np.concatenate(
        [
            rng.uniform(robot.lower, robot.upper, size=(150, robot.dof)),
            robot.home + rng.normal(0.0, 0.4, size=(150, robot.dof)),
        ]
    )
    for upto in (None, rng.integers(0, len(scene) + 1, size=len(qs))):
        want = config_collides_batch(robot, qs, scene, 2.0, upto=upto)
        got = config_collides_batch(
            robot, qs, scene, 2.0, upto=upto, frames=fk_frames_batch(robot, qs)
        )
        assert np.array_equal(got, want)
        assert want.any() and not want.all()


def test_build_rungs_batch_runs_forward_kinematics_once(monkeypatch):
    """The collision query takes the chain frames of `ik_sweep`'s pose check,
    so a call runs one `fk_frames_batch`, and its rungs are those of a query
    that runs its own."""
    robot = load_bundled_robot("arm")
    model = load_bundled_model("cube")
    scene = model.scene([e.id for e in model.elements])
    tip = fk_frames(robot, robot.home)[-1]
    direction, rotation = direction_rotation_from_frame(tip)
    line = tip[:3, 3] + np.linspace(0.0, 40.0, 5)[:, None] * np.array([1.0, 0.0, 0.0])
    far = tip[:3, 3] + np.array([[5000.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    waypoints = [line, line, far, line, line]
    orientations = [
        (direction, rotation), (direction, rotation + 0.4), (direction, rotation),
        (direction, rotation + 1.2), (-direction, rotation),
    ]
    upto = [0, len(scene), 3, 7, 0]

    def rungs_with(query):
        with monkeypatch.context() as patch:
            patch.setattr(kinematics, "config_collides_batch", query)
            return build_rungs_batch(robot, waypoints, orientations, scene, 2.0, upto=upto)

    def own_fk(robot, qs, *args, frames=None, **kwargs):
        return config_collides_batch(robot, qs, *args, **kwargs)

    calls = []

    def counting_fk(*args, **kwargs):
        calls.append(1)
        return fk_frames_batch(*args, **kwargs)

    handed = []

    def checking_query(robot, qs, *args, frames=None, **kwargs):
        # the gathered frames are the tested rows' own, bit for bit
        handed.append(np.array_equal(frames, fk_frames_batch(robot, qs)))
        return config_collides_batch(robot, qs, *args, frames=frames, **kwargs)

    monkeypatch.setattr(kinematics, "fk_frames_batch", counting_fk)
    got = rungs_with(config_collides_batch)
    assert len(calls) == 1
    want = rungs_with(own_fk)
    assert len(calls) == 3
    assert rungs_with(checking_query) is not None and handed == [True]
    assert [r is None for r in got] == [r is None for r in want]
    assert any(r is None for r in got) and any(r is not None for r in got)
    for a, b in zip(got, want):
        if a is not None:
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_clearance_widens_collisions():
    robot = load_bundled_robot("arm")
    tip = fk(robot, robot.home).position
    # capsule floating 70 mm beyond the tool tip
    probe = CapsuleShape(
        (tip[0] + 100.0, tip[1], tip[2]), (tip[0] + 120.0, tip[1], tip[2]), 10.0
    )
    assert not collides(robot, robot.home, [probe], clearance=1.0)
    assert collides(robot, robot.home, [probe], clearance=95.0)


def test_load_robot_errors(tmp_path):
    with pytest.raises(RobotConfigError, match="not found"):
        load_robot(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(RobotConfigError, match="not valid JSON"):
        load_robot(bad)

    doc = bundled_doc()
    doc["dh"] = doc["dh"][:5]
    with pytest.raises(RobotConfigError):
        load_robot(doc)

    doc = bundled_doc()
    doc["home"]["joints_deg"][1] = 1e4
    with pytest.raises(RobotConfigError, match="home"):
        load_robot(doc)

    doc = bundled_doc()
    doc["link_capsules"][0]["frame"] = 99
    with pytest.raises(RobotConfigError, match="frame"):
        load_robot(doc)

    # a link capsule's frame is an index: a fraction or a flag is refused,
    # not truncated
    for frame in (0.7, True, "1"):
        doc = bundled_doc()
        doc["link_capsules"][0]["frame"] = frame
        with pytest.raises(RobotConfigError, match="is not an integer"):
            load_robot(doc)
    doc = bundled_doc()
    doc["link_capsules"][0]["frame"] = float(doc["link_capsules"][0]["frame"])
    assert load_robot(doc).link_capsules == load_robot(bundled_doc()).link_capsules


def every_block_doc():
    """The rail robot plus a static capsule and an explicit extruder block,
    so every block of a robot document holds numbers."""
    doc = tracked_doc()
    doc["static_capsules"] = [{"p0": [2000.0, 0.0, 0.0], "p1": [2000.0, 0.0, 500.0], "radius": 50.0}]
    doc["ee"] = {
        "capsules": [
            {"p0": [0.0, 0.0, -25.0], "p1": [0.0, 0.0, -145.0], "radius": 12.0},
            {"p0": [0.0, 0.0, -150.0], "p1": [0.0, 0.0, -195.0], "radius": 35.0},
        ]
    }
    return doc


ROBOT_NUMBERS = [
    ("dh", 0, "a"),
    ("dh", 1, "alpha_deg"),
    ("dh", 5, "weight"),
    ("base_pose", "origin", 1),
    ("tool", "rpy_deg", 2),
    ("track", "step"),
    ("home", "joints_deg", 3),
    ("home", "track"),
    ("link_capsules", 0, "radius"),
    ("link_capsules", 1, "frame"),
    ("static_capsules", 0, "p1", 2),
    ("ee", "capsules", 1, "p0", 0),
    ("clearance",),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "path", ROBOT_NUMBERS, ids=["-".join(map(str, p)) for p in ROBOT_NUMBERS]
)
def test_load_robot_rejects_non_finite_numbers(path, value):
    load_robot(every_block_doc())  # the unedited document loads
    doc = every_block_doc()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    # a frame index read as an integer fails its conversion instead
    with pytest.raises(RobotConfigError, match="not a finite number|cannot convert float"):
        load_robot(doc)


@pytest.mark.parametrize("value", ["480", True, None], ids=["string", "bool", "null"])
@pytest.mark.parametrize(
    "path", ROBOT_NUMBERS, ids=["-".join(map(str, p)) for p in ROBOT_NUMBERS]
)
def test_load_robot_rejects_non_numbers(path, value):
    doc = every_block_doc()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(RobotConfigError, match="is not a number|is not an integer"):
        load_robot(doc)

"""Distance queries, direction sampling, tool frames, and sweep checks."""

import math

import numpy as np
import pytest

from dense_collision import dense_ee_sweep_collision_batch
from trusspath import geometry
from trusspath.geometry import (
    EXACT_BLOCK,
    CapsuleShape,
    EEGeometry,
    GeometryError,
    capsules_overlap,
    convex_hull_2d,
    default_ee_geometry,
    direction_rotation_from_frame,
    ee_element_collision,
    ee_self_collision,
    ee_sweep_collision_batch,
    mark_contacts,
    point_in_hull,
    point_segment_distance,
    pose_from_direction,
    sample_directions,
    segment_distance_batch,
    segment_segment_distance,
)

DIST_TOL = 1e-9
ORACLE_TOL = 1e-6


def brute_segment_distance(p0, p1, q0, q1, n=801):
    """Grid minimization with refinement, independent of the closed form."""
    p0, p1, q0, q1 = (np.asarray(v, dtype=float) for v in (p0, p1, q0, q1))
    lo_s, hi_s, lo_t, hi_t = 0.0, 1.0, 0.0, 1.0
    best = math.inf
    for _ in range(4):
        s = np.linspace(lo_s, hi_s, n)
        t = np.linspace(lo_t, hi_t, n)
        pts_p = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
        pts_q = q0[None, :] + t[:, None] * (q1 - q0)[None, :]
        d = np.linalg.norm(pts_p[:, None, :] - pts_q[None, :, :], axis=2)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        best = float(d[i, j])
        ws = (hi_s - lo_s) / (n - 1)
        wt = (hi_t - lo_t) / (n - 1)
        lo_s, hi_s = max(0.0, s[i] - 2 * ws), min(1.0, s[i] + 2 * ws)
        lo_t, hi_t = max(0.0, t[j] - 2 * wt), min(1.0, t[j] + 2 * wt)
    return best


def test_segment_distance_known_pairs():
    # values frozen from the grid oracle above; first three are also exact
    cases = [
        ((0, 0, 0), (10, 0, 0), (3, -5, 4), (3, 5, 4), 4.0),
        ((0, 0, 0), (10, 0, 0), (2, 3, 0), (8, 3, 0), 3.0),
        ((0, 0, 0), (1, 1, 0), (3, 2, 1), (5, 2, 1), math.sqrt(6.0)),
        ((1, 2, 3), (4, 6, 3), (2, 2, 8), (2, 9, 1), 1.886484436567597),
        ((5, 5, 5), (5, 5, 5), (0, 0, 0), (10, 0, 0), math.sqrt(50.0)),
    ]
    for p0, p1, q0, q1, expected in cases:
        got = segment_segment_distance(p0, p1, q0, q1)
        assert got == pytest.approx(expected, abs=1e-9)


def test_segment_distance_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p0, p1, q0, q1 = rng.uniform(-20.0, 20.0, size=(4, 3))
        exact = segment_segment_distance(p0, p1, q0, q1)
        approx = brute_segment_distance(p0, p1, q0, q1)
        assert exact <= approx + 1e-12
        assert exact == pytest.approx(approx, abs=1e-4)


def test_segment_distance_degenerate_inputs():
    a = np.zeros(3)
    # point vs point
    assert segment_segment_distance(a, a, (3, 4, 0), (3, 4, 0)) == pytest.approx(5.0)
    # identical overlapping segments
    assert segment_segment_distance(a, (1, 0, 0), a, (1, 0, 0)) == pytest.approx(0.0)
    # collinear disjoint
    assert segment_segment_distance(a, (1, 0, 0), (3, 0, 0), (9, 0, 0)) == pytest.approx(2.0)
    # crossing segments touch
    assert segment_segment_distance(
        (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)
    ) == pytest.approx(0.0, abs=DIST_TOL)


def test_segment_distance_batch_broadcasts():
    rng = np.random.default_rng(11)
    p0 = rng.uniform(-5, 5, (8, 3))
    p1 = rng.uniform(-5, 5, (8, 3))
    q0 = rng.uniform(-5, 5, 3)
    q1 = rng.uniform(-5, 5, 3)
    batch = segment_distance_batch(p0, p1, q0, q1)
    assert batch.shape == (8,)
    for k in range(8):
        single = segment_segment_distance(p0[k], p1[k], q0, q1)
        assert batch[k] == pytest.approx(single, abs=DIST_TOL)


def test_point_segment_distance():
    assert point_segment_distance(
        np.array([0.0, 3.0, 0.0]), np.zeros(3), np.array([10.0, 0.0, 0.0])
    ) == pytest.approx(3.0)
    # beyond the far endpoint the distance is to that endpoint
    assert point_segment_distance(
        np.array([13.0, 4.0, 0.0]), np.zeros(3), np.array([10.0, 0.0, 0.0])
    ) == pytest.approx(5.0)


def test_sample_directions_properties():
    dirs = sample_directions(72)
    assert dirs.shape == (72, 3) and not dirs.flags.writeable
    norms = np.linalg.norm(dirs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # index 0 is the most upward sample, last the most downward
    assert dirs[0][2] == max(d[2] for d in dirs)
    assert dirs[71][2] == min(d[2] for d in dirs)
    # deterministic
    again = sample_directions(72)
    assert np.array_equal(dirs, again)
    # reasonably spread: nearest-neighbour angle bounded away from zero
    dots = dirs @ dirs.T
    np.fill_diagonal(dots, -1.0)
    closest = math.degrees(math.acos(float(dots.max())))
    assert closest > 10.0


def test_sample_directions_rejects_tiny_counts():
    with pytest.raises(GeometryError):
        sample_directions(3)


def test_pose_from_direction_frame_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        point = rng.uniform(-100, 100, 3)
        direction = rng.normal(size=3)
        if np.linalg.norm(direction) < 1e-6:
            continue
        rotation = rng.uniform(0.0, 2.0 * math.pi)
        frame = pose_from_direction(point, direction, rotation)
        r = frame[:3, :3]
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(frame[:3, 3], point)
        # tool z opposes the body direction
        unit = direction / np.linalg.norm(direction)
        assert np.allclose(frame[:3, 2], -unit, atol=1e-12)


def test_pose_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        direction = rng.normal(size=3)
        if abs(direction[2]) / np.linalg.norm(direction) > 0.99:
            continue
        rotation = rng.uniform(0.0, 2.0 * math.pi)
        frame = pose_from_direction(np.zeros(3), direction, rotation)
        back_dir, back_rot = direction_rotation_from_frame(frame)
        unit = direction / np.linalg.norm(direction)
        assert np.allclose(back_dir, unit, atol=1e-9)
        assert back_rot == pytest.approx(rotation % (2 * math.pi), abs=1e-9)


def test_rotation_spins_about_tool_z():
    direction = np.array([1.0, 2.0, 0.5])
    f0 = pose_from_direction(np.zeros(3), direction, 0.0)
    f1 = pose_from_direction(np.zeros(3), direction, math.pi / 3)
    # same z axis, x rotated by the angle difference
    assert np.allclose(f0[:3, 2], f1[:3, 2])
    cosang = float(f0[:3, 0] @ f1[:3, 0])
    assert cosang == pytest.approx(math.cos(math.pi / 3), abs=1e-12)


def per_call_pose_from_direction(point, direction, rotation):
    """The one-frame builder `tool_rotations` replaced, with its two 1-D
    `np.linalg.norm` calls: the oracle for the tool-frame convention."""
    v = np.asarray(direction, dtype=float)
    z = -v / np.linalg.norm(v)
    ref = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.999 else np.array([1.0, 0.0, 0.0])
    x0 = np.cross(ref, z)
    x0 /= np.linalg.norm(x0)
    y0 = np.cross(z, x0)
    x = math.cos(rotation) * x0 + math.sin(rotation) * y0
    frame = np.eye(4)
    frame[:3, :3] = np.column_stack([x, np.cross(z, x), z])
    frame[:3, 3] = point
    return frame


def oracle_directions(rng, count):
    """Random directions at random scales, plus pairs either side of the
    `|z| = 0.999` reference switch, upward and downward."""
    directions = rng.normal(size=(count, 3)) * rng.uniform(0.01, 100.0, (count, 1))
    near = []
    for zeta in (0.999 - 1e-9, 0.999 + 1e-9, 0.9985, 0.9995):
        for sign in (1.0, -1.0):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r = math.sqrt(1.0 - zeta * zeta)
            near.append((r * math.cos(phi), r * math.sin(phi), sign * zeta))
    return np.vstack([directions, near, [(0.0, 0.0, 1.0), (0.0, 0.0, -2.0)]])


def test_tool_rotations_stack_has_the_bits_of_one_pair_calls():
    rng = np.random.default_rng(22)
    directions = oracle_directions(rng, 300)
    rolls = rng.uniform(-7.0, 7.0, len(directions))
    stack = geometry.tool_rotations(directions, rolls)
    assert stack.shape == (len(directions), 3, 3)
    for d, r, rot in zip(directions, rolls, stack):
        assert np.array_equal(geometry.tool_rotations(d, r)[0], rot)
        assert np.array_equal(pose_from_direction(np.ones(3), d, r)[:3, :3], rot)
    # one roll for all equals that roll repeated
    assert np.array_equal(
        geometry.tool_rotations(directions, 0.7),
        geometry.tool_rotations(directions, np.full(len(directions), 0.7)),
    )


def test_tool_rotations_match_the_per_call_oracle():
    rng = np.random.default_rng(23)
    directions = oracle_directions(rng, 500)
    rolls = rng.uniform(0.0, 2.0 * math.pi, len(directions))
    stack = geometry.tool_rotations(directions, rolls)
    point = rng.uniform(-100.0, 100.0, 3)
    for d, r, rot in zip(directions, rolls, stack):
        want = per_call_pose_from_direction(point, d, r)
        assert np.abs(rot - want[:3, :3]).max() <= 1e-15
        got = pose_from_direction(point, d, r)
        assert np.array_equal(got[:3, 3], point) and np.array_equal(got[3], want[3])


def test_tool_rotations_reject_a_zero_direction():
    with pytest.raises(GeometryError):
        geometry.tool_rotations([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.0)


def test_capsules_overlap():
    c1 = CapsuleShape((0, 0, 0), (10, 0, 0), 2.0)
    c2 = CapsuleShape((0, 5, 0), (10, 5, 0), 2.0)
    assert not capsules_overlap(c1, c2)
    assert capsules_overlap(c1, c2, clearance=1.5)
    c3 = CapsuleShape((5, -3, 0), (5, 3, 0), 1.5)
    assert capsules_overlap(c1, c3)


def test_capsule_rejects_bad_radius():
    with pytest.raises(GeometryError):
        CapsuleShape((0, 0, 0), (1, 0, 0), 0.0)


def test_ee_geometry_guards_tool_tip():
    # a capsule that swallows the nozzle tip is a modelling error
    bad = CapsuleShape((0, 0, -5), (0, 0, 5), 3.0)
    with pytest.raises(GeometryError):
        EEGeometry((bad,))
    good = default_ee_geometry()
    assert len(good.capsules) == 2


def test_ee_element_collision_clearance_monotone():
    # body points up, so the barrel spans z in [25, 145] above each waypoint
    ee = default_ee_geometry()
    path = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
    up = np.array([0.0, 0.0, 1.0])
    # element 50 mm below the path: 75 mm from the barrel end, gap 61 mm
    segment = np.array([[-10.0, 0.0, -50.0], [60.0, 0.0, -50.0]])
    hit_small = ee_element_collision(path, up, 0.0, segment, 2.0, ee, clearance=0.5)
    hit_large = ee_element_collision(path, up, 0.0, segment, 2.0, ee, clearance=65.0)
    assert hit_small is False
    assert hit_large is True
    # far away element never collides
    far = np.array([[0.0, 500.0, 0.0], [50.0, 500.0, 0.0]])
    assert not ee_element_collision(path, up, 0.0, far, 2.0, ee, clearance=65.0)


def test_ee_element_collision_direct_hit():
    ee = default_ee_geometry()
    path = np.linspace(np.zeros(3), np.array([50.0, 0.0, 0.0]), 11)
    up = np.array([0.0, 0.0, 1.0])
    # element crossing straight through the barrel volume above the path
    segment = np.array([[25.0, -20.0, 60.0], [25.0, 20.0, 60.0]])
    assert ee_element_collision(path, up, 0.0, segment, 2.0, ee, clearance=2.0)


def test_ee_self_collision_depends_on_route():
    ee = default_ee_geometry()
    start = np.zeros(3)
    end = np.array([120.0, 0.0, 0.0])
    pts = np.linspace(start, end, 25)
    # leaning backward over the fresh bead: blocked one way only
    lean_back = np.array([-1.0, 0.0, 0.35])
    lean_fwd = np.array([1.0, 0.0, 0.35])
    assert ee_self_collision(pts, lean_back, 0.0, 2.0, ee, clearance=2.0) is True
    assert ee_self_collision(pts, lean_fwd, 0.0, 2.0, ee, clearance=2.0) is False
    # the reversed pass swaps which lean is blocked
    rev = pts[::-1].copy()
    assert ee_self_collision(rev, lean_back, 0.0, 2.0, ee, clearance=2.0) is False
    assert ee_self_collision(rev, lean_fwd, 0.0, 2.0, ee, clearance=2.0) is True


def test_ee_self_collision_vertical_is_clear():
    ee = default_ee_geometry()
    pts = np.linspace(np.zeros(3), np.array([120.0, 0.0, 0.0]), 25)
    up = np.array([0.0, 0.0, 1.0])
    assert not ee_self_collision(pts, up, 0.0, 2.0, ee, clearance=2.0)
    # single point paths have no grown bead yet
    assert not ee_self_collision(pts[:1], up, 0.0, 2.0, ee, clearance=2.0)


def test_sweep_batch_matches_per_direction_checks():
    # the all-directions kernel must decide exactly what the one-direction
    # reference checks decide, for element sweeps and for the grown bead
    rng = np.random.default_rng(1810)
    leaning = EEGeometry(
        (CapsuleShape((10.0, 5.0, -30.0), (-20.0, 15.0, -120.0), 8.0),)
    )
    directions = sample_directions(40)
    rotations = np.array(
        [pose_from_direction(np.zeros(3), d, 0.0)[:3, :3] for d in directions]
    )
    outcomes = set()
    for ee in (default_ee_geometry(), leaning):
        for trial in range(10):
            n = 1 if trial == 0 else int(rng.integers(2, 25))
            pts = np.linspace(
                rng.uniform(-60.0, 60.0, 3), rng.uniform(-60.0, 60.0, 3), n
            )
            seg = rng.uniform(-150.0, 150.0, (2, 3))
            for clearance in (0.0, 2.0, 25.0):
                got = ee_sweep_collision_batch(
                    pts, rotations, seg[0], seg[1], 2.0, ee, clearance=clearance
                )[0]
                want = [
                    ee_element_collision(pts, d, 0.0, seg, 2.0, ee, clearance=clearance)
                    for d in directions
                ]
                assert got.tolist() == want
                got_self = ee_sweep_collision_batch(
                    pts[1:], rotations, pts[0], pts[1:], 2.0, ee, clearance=clearance
                )[0]
                want_self = [
                    ee_self_collision(pts, d, 0.0, 2.0, ee, clearance=clearance)
                    for d in directions
                ]
                assert got_self.tolist() == want_self
                outcomes.update(want + want_self)
    assert outcomes == {True, False}


LEANING_EE = EEGeometry((CapsuleShape((10.0, 5.0, -30.0), (-20.0, 15.0, -120.0), 8.0),))


@pytest.mark.parametrize("ee", [default_ee_geometry(), LEANING_EE], ids=["default", "leaning"])
def test_sweep_cull_keeps_contacts_a_hair_inside(ee):
    # obstacles 1e-7 mm either side of contact, end-on past each end of each
    # extruder capsule and alongside it, at several poses: every contact is
    # found, and the stacked jobs decide what the dense kernel decides
    directions = sample_directions(40)
    rotations = np.array(
        [pose_from_direction(np.zeros(3), d, 0.7)[:3, :3] for d in directions]
    )
    radius, clearance = 2.0, 2.0
    point = np.array([30.0, -20.0, 10.0])
    jobs, contacts = [], []
    for r in (0, 13, 27, 39):
        for cap in ee.capsules:
            a, b = point + rotations[r] @ cap.a, point + rotations[r] @ cap.b
            axis = (b - a) / np.linalg.norm(b - a)
            side = np.cross(axis, [0.3, -0.5, 0.8])
            side /= np.linalg.norm(side)
            limit = cap.radius + radius + clearance
            for step in (-1e-7, 1e-7):
                gap = limit + step
                jobs += [
                    (b + gap * axis, b + (gap + 60.0) * axis),  # past end b
                    (a - gap * axis, a - (gap + 60.0) * axis),  # past end a
                    (a + gap * side, b + gap * side),  # alongside
                    (b + gap * side, b + gap * side + 40.0 * axis),  # beside end b
                ]
                contacts += [r if step < 0 else None] * 4
    q0, q1 = (np.array([job[i] for job in jobs]) for i in (0, 1))
    owner = np.arange(len(jobs))
    points = np.repeat(point[None], len(jobs), axis=0)
    got = ee_sweep_collision_batch(points, rotations, q0, q1, radius, ee, clearance, owner=owner)
    for job, r in enumerate(contacts):
        want = dense_ee_sweep_collision_batch(
            points[:1], rotations, q0[job], q1[job], radius, ee, clearance
        )[0]
        assert np.array_equal(got[job], want), job
        if r is not None:
            assert got[job, r], job
    assert not got[[j for j, r in enumerate(contacts) if r is None]].all()


def test_sweep_jobs_stack_like_single_calls():
    # a stack of jobs, self-bead jobs with per-point obstacles among them,
    # gives each job the booleans of its own call
    rng = np.random.default_rng(2005)
    directions = sample_directions(30)
    rotations = np.array(
        [pose_from_direction(np.zeros(3), d, 0.0)[:3, :3] for d in directions]
    )
    jobs = []
    for k in range(12):
        pts = np.linspace(rng.uniform(-60.0, 60.0, 3), rng.uniform(-60.0, 60.0, 3), 2 + k)
        if k % 3:
            seg = rng.uniform(-150.0, 150.0, (2, 3))
            jobs.append((pts, np.broadcast_to(seg[0], pts.shape), np.broadcast_to(seg[1], pts.shape)))
        else:
            jobs.append((pts[1:], np.broadcast_to(pts[0], pts[1:].shape), pts[1:]))
    stacked = [np.concatenate([job[i] for job in jobs]) for i in range(3)]
    owner = np.repeat(np.arange(len(jobs)), [len(job[0]) for job in jobs])
    for ee in (default_ee_geometry(), LEANING_EE):
        got = ee_sweep_collision_batch(
            stacked[0], rotations, stacked[1], stacked[2], 2.0, ee, 25.0, owner=owner
        )
        assert got.shape == (len(jobs), len(rotations))
        for job, (pts, q0, q1) in zip(got, jobs):
            assert np.array_equal(job, ee_sweep_collision_batch(pts, rotations, q0, q1, 2.0, ee, 25.0)[0])
        assert got.any() and not got.all()


def test_mark_contacts_blocks_equal_one_call(monkeypatch):
    # a gather several blocks long: the blocked kernel gives the booleans,
    # and the distances, of one unblocked call bit for bit
    rng = np.random.default_rng(4)
    count = 3 * EXACT_BLOCK + 517
    segments = [rng.uniform(-50.0, 50.0, (count, 3)) for _ in range(4)]
    segments[1][::97] = segments[0][::97]  # some degenerate segments
    limit = rng.uniform(5.0, 40.0, count)
    rows = rng.integers(0, 5000, count)
    whole = segment_distance_batch(*segments)
    want = np.zeros(5000, dtype=bool)
    want[rows[whole < limit]] = True

    kernel, parts = geometry.segment_distance_batch, []

    def recording(*args):
        parts.append(kernel(*args))
        return parts[-1]

    monkeypatch.setattr(geometry, "segment_distance_batch", recording)
    hit = np.zeros(5000, dtype=bool)
    mark_contacts(hit, rows, segments, limit)
    assert [len(p) for p in parts] == [EXACT_BLOCK] * 3 + [517]
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(hit, want) and want.any() and not want.all()
    mark_contacts(hit, rows[:0], [seg[:0] for seg in segments], limit[:0])
    assert len(parts) == 4  # an empty gather calls no kernel


def test_convex_hull_square_and_interior():
    pts = np.array(
        [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0], [2.0, 2.0], [1.0, 3.0]]
    )
    hull = convex_hull_2d(pts)
    assert hull.shape == (4, 2)
    assert point_in_hull(np.array([2.0, 2.0]), hull)
    assert point_in_hull(np.array([0.0, 0.0]), hull)  # vertex counts
    assert point_in_hull(np.array([2.0, 0.0]), hull)  # edge counts
    assert not point_in_hull(np.array([5.0, 2.0]), hull)
    assert not point_in_hull(np.array([-0.01, 2.0]), hull)


def test_convex_hull_degenerate():
    single = convex_hull_2d(np.array([[1.0, 2.0]]))
    assert single.shape == (1, 2)
    assert point_in_hull(np.array([1.0, 2.0]), single)
    assert not point_in_hull(np.array([1.1, 2.0]), single)
    line = convex_hull_2d(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert line.shape == (2, 2)
    assert point_in_hull(np.array([1.5, 1.5]), line)
    assert not point_in_hull(np.array([1.5, 1.6]), line)


def test_convex_hull_matches_angle_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pts = rng.uniform(-10.0, 10.0, size=(rng.integers(3, 40), 2))
        hull = convex_hull_2d(pts)
        # every input point must be inside the hull
        for p in pts:
            assert point_in_hull(p, hull, tol=1e-7)
        # hull vertices must be input points
        for v in hull:
            assert np.min(np.linalg.norm(pts - v, axis=1)) < 1e-9


def unique_convex_hull_2d(points):
    """The hull as it was built with `np.unique(..., axis=0)` doing the
    dedupe and the lexicographic sort: the oracle for `convex_hull_2d`."""
    uniq = np.unique(np.asarray(points, dtype=float), axis=0)
    if uniq.shape[0] == 1:
        return uniq
    ordered = [tuple(p) for p in uniq]

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and geometry._cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    hull = half(ordered)[:-1] + half(reversed(ordered))[:-1]
    if len(hull) < 2:
        hull = [ordered[0], ordered[-1]]
    return np.array(hull)


def hull_inputs():
    rng = np.random.default_rng(25)
    for n in (2, 3, 5, 12, 40, 200):
        yield pytest.param(rng.uniform(-10.0, 10.0, size=(n, 2)), id=f"random {n}")
    grid = rng.integers(-3, 4, size=(60, 2)).astype(float)
    yield pytest.param(grid, id="duplicated")
    yield pytest.param(np.concatenate([grid, grid[::-1]]), id="duplicated twice")
    t = rng.uniform(-2.0, 2.0, size=9)
    yield pytest.param(np.stack([t, 0.5 * t + 1.0], axis=1), id="collinear")
    yield pytest.param(np.stack([t, np.zeros(9)], axis=1), id="collinear on x")
    yield pytest.param(np.stack([np.full(9, 3.0), t], axis=1), id="collinear on y")
    yield pytest.param(np.array([[1.0, 2.0]]), id="single point")
    yield pytest.param(np.array([[1.0, 2.0]] * 4), id="single point repeated")
    signed = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    yield pytest.param(signed, id="signed zeros")
    yield pytest.param(signed[::-1], id="signed zeros reversed")
    yield pytest.param(
        np.concatenate([signed, [[1.0, -0.0], [-0.0, 1.0], [1.0, 1.0]]]), id="signed square"
    )
    yield pytest.param(
        np.concatenate([[[-0.0, 2.0], [2.0, -0.0]], signed, [[0.0, 2.0]]]), id="signed triangle"
    )


@pytest.mark.parametrize("pts", hull_inputs())
def test_convex_hull_equals_the_unique_oracle(pts):
    hull = convex_hull_2d(pts)
    expected = unique_convex_hull_2d(pts)
    assert hull.dtype == expected.dtype
    np.testing.assert_array_equal(hull, expected)

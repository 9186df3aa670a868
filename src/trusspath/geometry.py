"""Geometric primitives shared by every planning stage.

Everything in here operates on plain numpy arrays in millimetres.  The
collision model is capsules only: truss elements are capsules around their
axis segment, the extruder is a small set of capsules in the tool frame, and
robot links are capsules attached to kinematic frames.  Keeping one primitive
makes the distance query the single thing that has to be exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Default tip-standoff margin of the extruder capsules (mm), see EEGeometry.
DEFAULT_CLEARANCE = 2.0

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_EPS = 1e-12


class GeometryError(Exception):
    pass


# ---------------------------------------------------------------------------
# direction sampling


def sample_directions(count: int) -> np.ndarray:
    """Spread `count` unit vectors over the sphere with a Fibonacci lattice.

    The result is a read-only (count, 3) array of unit rows.  The lattice is
    deterministic, so index `a` always names the same direction for a given
    count.  Index 0 sits next to +z and the colatitude grows with the index,
    which makes "mostly upward" directions come first when scanning in index
    order.
    """
    if count < 4:
        raise GeometryError("direction count must be at least 4, got %d" % count)
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * _GOLDEN_ANGLE
    dirs = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs.setflags(write=False)
    return dirs


# ---------------------------------------------------------------------------
# capsules


@dataclass(frozen=True)
class CapsuleShape:
    """Capsule: all points within `radius` of the segment p0-p1."""

    p0: tuple[float, float, float]
    p1: tuple[float, float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise GeometryError("capsule radius must be positive")

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self.p0, dtype=float)

    @property
    def b(self) -> np.ndarray:
        return np.asarray(self.p1, dtype=float)

    def transformed(self, frame: np.ndarray) -> "CapsuleShape":
        """Return the capsule carried into a new pose by a 4x4 frame."""
        a = frame[:3, :3] @ self.a + frame[:3, 3]
        b = frame[:3, :3] @ self.b + frame[:3, 3]
        return CapsuleShape(tuple(a), tuple(b), self.radius)


@dataclass(frozen=True)
class EEGeometry:
    """Extruder body in the tool frame.

    The tool frame has its origin at the nozzle tip with +z along the
    extrusion axis (material leaves along +z), so the physical body sits at
    negative z.  Capsules must stand clear of the tip itself: the tip slides
    along freshly printed material, so it is exempt from collision by
    construction.  `clearance` is the margin of that standoff check only;
    collision queries take their clearance from the caller.
    """

    capsules: tuple[CapsuleShape, ...]
    clearance: float = DEFAULT_CLEARANCE

    def __post_init__(self) -> None:
        if not self.capsules:
            raise GeometryError("EE geometry needs at least one capsule")
        tip = np.zeros(3)
        for cap in self.capsules:
            standoff = point_segment_distance(tip, cap.a, cap.b)
            if standoff < cap.radius + self.clearance:
                raise GeometryError(
                    "EE capsule encloses the tool tip (standoff %.3f < %.3f)"
                    % (standoff, cap.radius + self.clearance)
                )


def default_ee_geometry(clearance: float = DEFAULT_CLEARANCE) -> EEGeometry:
    """Nozzle barrel plus mount block, sized like a pellet extruder head."""
    barrel = CapsuleShape((0.0, 0.0, -25.0), (0.0, 0.0, -145.0), 12.0)
    mount = CapsuleShape((0.0, 0.0, -150.0), (0.0, 0.0, -195.0), 35.0)
    return EEGeometry((barrel, mount), clearance)


# ---------------------------------------------------------------------------
# distance queries


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    d = b - a
    dd = float(d @ d)
    if dd < _EPS:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ d / dd, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * d)))


def segment_distance_batch(
    p0: np.ndarray,
    p1: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
) -> np.ndarray:
    """Exact minimum distance between segment batches (broadcast on rows).

    Implements the clamped closest-point computation for segment pairs; the
    re-clamp step keeps the result exact for parallel and degenerate inputs.
    All inputs are (..., 3) and broadcast against each other.
    """
    p0, p1, q0, q1 = np.broadcast_arrays(
        np.atleast_2d(p0), np.atleast_2d(p1), np.atleast_2d(q0), np.atleast_2d(q1)
    )
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = np.einsum("...i,...i", d1, d1)
    e = np.einsum("...i,...i", d2, d2)
    f = np.einsum("...i,...i", d2, r)
    c = np.einsum("...i,...i", d1, r)
    b = np.einsum("...i,...i", d1, d2)
    denom = a * e - b * b

    safe_a = np.where(a < _EPS, 1.0, a)
    safe_e = np.where(e < _EPS, 1.0, e)
    safe_denom = np.where(denom < _EPS, 1.0, denom)

    s = np.where(denom >= _EPS, np.clip((b * f - c * e) / safe_denom, 0.0, 1.0), 0.0)
    t = (b * s + f) / safe_e
    t_clamped = np.clip(t, 0.0, 1.0)
    s_low = np.clip(-c / safe_a, 0.0, 1.0)
    s_high = np.clip((b - c) / safe_a, 0.0, 1.0)
    s = np.where(t < 0.0, s_low, np.where(t > 1.0, s_high, s))
    t = t_clamped

    # degenerate segments: point vs segment / point vs point
    s = np.where(a[...] < _EPS, 0.0, s)
    t = np.where(e[...] < _EPS, 0.0, t)
    t = np.where((a < _EPS) & (e >= _EPS), np.clip(f / safe_e, 0.0, 1.0), t)
    s = np.where((e < _EPS) & (a >= _EPS), np.clip(-c / safe_a, 0.0, 1.0), s)

    closest_p = p0 + s[..., None] * d1
    closest_q = q0 + t[..., None] * d2
    return np.linalg.norm(closest_p - closest_q, axis=-1)


def segment_segment_distance(
    p0: np.ndarray, p1: np.ndarray, q0: np.ndarray, q1: np.ndarray
) -> float:
    """Exact minimum distance between two segments."""
    d = segment_distance_batch(
        np.asarray(p0, dtype=float),
        np.asarray(p1, dtype=float),
        np.asarray(q0, dtype=float),
        np.asarray(q1, dtype=float),
    )
    return float(d[0])


# A pair is ruled out without the exact kernel only when its lower bound
# clears the contact limit by this margin (mm), so rounding in the bound can
# never flip a collision boolean.
CULL_MARGIN = 1e-6

# Segment pairs per exact-kernel call: `mark_contacts` splits a longer gather
# so the kernel's temporaries (about 1 KB per pair) stay bounded.
EXACT_BLOCK = 2048


def distance3(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast (..., 3) point arrays (at least
    one leading axis), from `- + * sqrt` only (no BLAS-backed reduction).
    Sums `dx*dx + dy*dy + dz*dz` left to right one axis at a time and in
    place, so no (..., 3) difference array is built."""
    total = p[..., 0] - q[..., 0]
    total *= total
    for axis in (1, 2):
        d = p[..., axis] - q[..., axis]
        d *= d
        total += d
    return np.sqrt(total, out=total)


def bounding_spheres(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and half-lengths of the segments a-b, (..., 3) each.

    Two segments are at least `distance3(m1, m2) - h1 - h2` apart (Ericson,
    *Real-Time Collision Detection*, 2005, ch. 4).
    """
    return 0.5 * (a + b), 0.5 * distance3(b, a)


def mark_contacts(hit: np.ndarray, rows: np.ndarray, segments, limit) -> None:
    """Set `hit[rows[k]]` where the exact distance of segment pair k, with
    `segments = (p0, p1, q0, q1)` gathered flat, is below `limit` (scalar or
    per pair).  The exact kernel runs on blocks of at most `EXACT_BLOCK`
    pairs and is not called for an empty gather."""
    for start in range(0, len(rows), EXACT_BLOCK):
        block = slice(start, start + EXACT_BLOCK)
        dist = segment_distance_batch(*(seg[block] for seg in segments))
        hit[rows[block][dist < (limit[block] if np.ndim(limit) else limit)]] = True


def capsules_overlap(c1: CapsuleShape, c2: CapsuleShape, clearance: float = 0.0) -> bool:
    dist = segment_segment_distance(c1.a, c1.b, c2.a, c2.b)
    return dist < c1.radius + c2.radius + clearance


# ---------------------------------------------------------------------------
# tool frames


def tool_rotations(directions: np.ndarray, rolls: float | np.ndarray) -> np.ndarray:
    """Tool rotations, (k, 3, 3), for (direction, roll) pairs: a (3,) or
    (k, 3) direction stack and one roll per direction, or one for all.

    A direction is the free-space side the extruder body occupies, from the
    nozzle tip towards the mount; tool z (column 2), the extrusion axis,
    points the other way.  Tool x is `world z x tool z` (world x within
    about 2.5 degrees of vertical), normalised and spun by the roll about z.
    Lengths come from `distance3` and rolls from `math`, the rest is
    elementwise: a row has its one-pair call's bits on any BLAS build.
    """
    v = np.atleast_2d(np.asarray(directions, dtype=float))
    length = distance3(v, np.zeros(3))
    if (length < _EPS).any():
        raise GeometryError("direction must be non-zero")
    z = -v / length[:, None]
    x0 = _cross3(np.where(np.abs(z[:, 2:]) < 0.999, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), z)
    x0 /= distance3(x0, np.zeros(3))[:, None]
    roll = np.broadcast_to(rolls, len(v)).tolist()
    cos = np.array([math.cos(r) for r in roll])[:, None]
    sin = np.array([math.sin(r) for r in roll])[:, None]
    x = cos * x0 + sin * _cross3(z, x0)
    return np.stack([x, _cross3(z, x), z], axis=2)


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (k, 3) stacks: the products and
    differences `np.cross` forms, without its axis handling."""
    a1, a2, a3 = a.T
    b1, b2, b3 = b.T
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1], axis=1)


def pose_from_direction(point: np.ndarray, direction: np.ndarray, rotation: float) -> np.ndarray:
    """Tool frame for an extrusion pose: `tool_rotations` of one (direction,
    rotation) pair, placed at `point`."""
    frame = np.eye(4)
    frame[:3, :3] = tool_rotations(direction, rotation)[0]
    frame[:3, 3] = point
    return frame


def direction_rotation_from_frame(frame: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert pose_from_direction: recover (direction, rotation) from a frame."""
    z = frame[:3, 2]
    reference = tool_rotations(-z, 0.0)[0]
    x = frame[:3, 0]
    rotation = math.atan2(float(x @ reference[:, 1]), float(x @ reference[:, 0]))
    return -z.copy(), rotation % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# extruder-vs-element sweep


def ee_element_collision(
    path_points: np.ndarray,
    direction: np.ndarray,
    rotation: float,
    segment: np.ndarray,
    segment_radius: float,
    ee: EEGeometry,
    clearance: float,
) -> bool:
    """True when sweeping the extruder along a path hits one other element.

    The extruder is posed at every path point with the given (direction,
    rotation) and each of its capsules is tested against the capsule of the
    stationary element.  Increasing the clearance can only add collisions,
    never remove them.
    """
    pts = np.asarray(path_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise GeometryError("path_points must be a non-empty (n, 3) array")
    seg = np.asarray(segment, dtype=float)
    rot = tool_rotations(direction, rotation)[0]
    q0, q1 = seg[0], seg[1]
    for cap in ee.capsules:
        a = pts + rot @ cap.a
        b = pts + rot @ cap.b
        dist = segment_distance_batch(a, b, q0, q1)
        if np.any(dist < cap.radius + segment_radius + clearance):
            return True
    return False


def ee_self_collision(
    path_points: np.ndarray,
    direction: np.ndarray,
    rotation: float,
    segment_radius: float,
    ee: EEGeometry,
    clearance: float,
) -> bool:
    """True when the extruder body would drag through its own fresh bead.

    While printing along the path, the material deposited so far is the
    segment from the path start to the current point.  At each waypoint the
    extruder capsules are tested against exactly that grown segment, so the
    result depends on the travel direction: a tool leaning back over the
    bead fails here while the reversed pass may be fine.  The nozzle-
    adjacent standoff region is exempt by construction (the capsules begin
    above the tip), which is what lets the nozzle sit on the bead it is
    laying.
    """
    pts = np.asarray(path_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise GeometryError("path_points must be a non-empty (n, 3) array")
    if pts.shape[0] < 2:
        return False
    rot = tool_rotations(direction, rotation)[0]
    tail = pts[1:]
    for cap in ee.capsules:
        a = tail + rot @ cap.a
        b = tail + rot @ cap.b
        dist = segment_distance_batch(a, b, pts[0], tail)
        if np.any(dist < cap.radius + segment_radius + clearance):
            return True
    return False


def ee_sweep_collision_batch(
    path_points: np.ndarray,
    rotations: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    segment_radius: float,
    ee: EEGeometry,
    clearance: float,
    owner: np.ndarray | None = None,
) -> np.ndarray:
    """`ee_element_collision` for a stack of jobs and m (3, 3) tool rotations
    at once: (jobs, m) bool, True where a job's sweep hits its obstacle.

    A job is the (n, 3) path points whose `owner` index names it, with no
    owner given all points are job 0.  Each point carries the obstacle
    segment q0-q1 it is tested against; `q0`/`q1` broadcast against the
    points, so one job with path `pts[1:]`, `q0 = pts[0]` and `q1 = pts[1:]`
    is `ee_self_collision`.

    Per extruder capsule, a (rotation, point) pair goes to the exact kernel
    (`mark_contacts`) only when its job is not hit yet and the lower bound
    `dist(mid, Q) - half` is below the contact limit plus `CULL_MARGIN`:
    `mid` and `half` are the posed capsule's midpoint and half-length, and
    `Q` the point's obstacle segment (Ericson, *Real-Time Collision
    Detection*, 2005, ch. 5).  The bound is written out per axis.
    """
    n, m = len(path_points), len(rotations)
    owner = np.zeros(n, dtype=int) if owner is None else owner
    q0, q1 = np.broadcast_to(q0, (n, 3)), np.broadcast_to(q1, (n, 3))
    hit = np.zeros((int(owner.max(initial=0)) + 1, m), dtype=bool)
    flat = hit.reshape(-1)  # a view: job j, rotation r is flat[j * m + r]
    # per axis: the path point from the segment start, and the segment
    w = [path_points[:, i] - q0[:, i] for i in range(3)]
    d = [q1[:, i] - q0[:, i] for i in range(3)]
    dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    inv = np.divide(1.0, dd, out=np.zeros(n), where=dd >= _EPS)  # t = 0 on a point
    for cap in ee.capsules:
        ra, rb = rotations @ cap.a, rotations @ cap.b  # (m, 3)
        rm = 0.5 * (ra + rb)
        half = 0.5 * math.dist(cap.p0, cap.p1)
        limit = cap.radius + segment_radius + clearance
        gap = [w[i] + rm[:, i, None] for i in range(3)]  # (m, n): capsule mid - q0
        t = gap[0] * d[0]
        for i in (1, 2):
            t += gap[i] * d[i]
        t *= inv
        np.clip(t, 0.0, 1.0, out=t)
        for i in range(3):  # in place: squared offset from the nearest point of Q
            gap[i] -= t * d[i]
            gap[i] *= gap[i]
        bound = gap[0]
        bound += gap[1]
        bound += gap[2]
        np.sqrt(bound, out=bound)
        bound -= half
        near = bound < limit + CULL_MARGIN
        near &= ~hit[owner].T
        r, k = np.nonzero(near)
        at = path_points[k]
        mark_contacts(flat, owner[k] * m + r, (at + ra[r], at + rb[r], q0[k], q1[k]), limit)
    return hit


# ---------------------------------------------------------------------------
# planar convex hull (stability support polygon)


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2D points, counter-clockwise, no repeated last vertex.

    Degenerate inputs are allowed: one point gives a single-vertex hull and
    collinear points give the two extreme vertices.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise GeometryError("need a non-empty (n, 2) array of points")
    # deduplicated and sorted lexicographically; `np.unique(..., axis=0)`
    # would do the same but imports `numpy.ma` on its first call
    ordered = sorted(set(map(tuple, pts.tolist())))
    if len(ordered) == 1:
        return np.array(ordered)

    def half(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(ordered)
    upper = half(reversed(ordered))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear
        hull = [ordered[0], ordered[-1]]
    return np.array(hull)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_in_hull(point: np.ndarray, hull: np.ndarray, tol: float = 1e-9) -> bool:
    """Point containment in a CCW hull; boundary counts as inside."""
    p = np.asarray(point, dtype=float)
    h = np.asarray(hull, dtype=float)
    if h.shape[0] == 1:
        return bool(np.linalg.norm(p - h[0]) <= tol)
    if h.shape[0] == 2:
        a3 = np.array([h[0, 0], h[0, 1], 0.0])
        b3 = np.array([h[1, 0], h[1, 1], 0.0])
        return point_segment_distance(np.array([p[0], p[1], 0.0]), a3, b3) <= tol
    nxt = np.roll(h, -1, axis=0)
    cross = (nxt[:, 0] - h[:, 0]) * (p[1] - h[:, 1]) - (nxt[:, 1] - h[:, 1]) * (
        p[0] - h[:, 0]
    )
    return bool(np.all(cross >= -tol * np.maximum(1.0, np.abs(cross).max())))

"""First-order elastic frame analysis of partially built trusses.

Each strut is one 3D frame element with the classical 12x12 stiffness matrix
(axial + torsion + bending in two planes).  Nodes carry 6 DOF; grounded nodes
are fully clamped.  Self weight is lumped half-and-half onto the element's end
nodes.  Units: mm, N, MPa; gravity defaults to -z at 9810 mm/s^2, and the
two checks below always analyse under that default.

The two fabrication checks are:
  check_stiffness  -- max nodal translation under self weight below tolerance
  check_stability  -- rigid-body tipping: weight projection inside the support
                      hull and no grounded node pulled upward
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import convex_hull_2d, point_in_hull
from .truss import TrussModel

DEFAULT_GRAVITY = (0.0, 0.0, -9810.0)  # mm/s^2
# mass[kg] * accel[mm/s^2] -> N needs a 1e-3 factor (kg*mm/s^2 = mN)
_MILLI = 1e-3
# density[kg/m^3] * volume[mm^3] -> kg needs 1e-9
_MM3_PER_M3 = 1e-9


class StructuralError(Exception):
    pass


@dataclass(frozen=True)
class PartialStructure:
    """An ordered prefix of elements assumed already printed."""

    model: TrussModel
    element_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = set()
        for eid in self.element_ids:
            self.model.element(eid)  # raises KeyError on unknown ids
            if eid in seen:
                raise StructuralError(f"element {eid} listed twice in prefix")
            seen.add(eid)


@dataclass
class StiffnessResult:
    displacements: dict[int, np.ndarray]  # node id -> (6,) [ux uy uz rx ry rz]
    reactions: dict[int, np.ndarray]  # grounded node id -> (6,)
    max_translation: float
    residual: float
    singular: bool


def element_mass(model: TrussModel, element_id: int) -> float:
    """Printed strut mass in kg."""
    volume = model.section.area * model.element_length(element_id)
    return model.material.density * volume * _MM3_PER_M3


def local_stiffness(
    e_mod: float, g_mod: float, area: float, iy: float, iz: float, j: float, length: float
) -> np.ndarray:
    """12x12 frame element stiffness in local axes (x along the element)."""
    L = length
    x = e_mod * area / L
    s = g_mod * j / L
    y1 = 12.0 * e_mod * iz / L**3
    y2 = 6.0 * e_mod * iz / L**2
    y3 = 4.0 * e_mod * iz / L
    y4 = 2.0 * e_mod * iz / L
    z1 = 12.0 * e_mod * iy / L**3
    z2 = 6.0 * e_mod * iy / L**2
    z3 = 4.0 * e_mod * iy / L
    z4 = 2.0 * e_mod * iy / L

    k = np.zeros((12, 12))
    k[0, 0] = k[6, 6] = x
    k[0, 6] = -x
    k[3, 3] = k[9, 9] = s
    k[3, 9] = -s
    # bending about local z (translation along y)
    k[1, 1] = k[7, 7] = y1
    k[1, 7] = -y1
    k[1, 5] = k[1, 11] = y2
    k[5, 7] = k[7, 11] = -y2
    k[5, 5] = k[11, 11] = y3
    k[5, 11] = y4
    # bending about local y (translation along z); rotation sign flips
    k[2, 2] = k[8, 8] = z1
    k[2, 8] = -z1
    k[2, 4] = k[2, 10] = -z2
    k[4, 8] = k[8, 10] = z2
    k[4, 4] = k[10, 10] = z3
    k[4, 10] = z4
    return k + np.triu(k, 1).T


def element_rotation(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Rows are the local x, y, z axes expressed in global coordinates."""
    axis = p1 - p0
    length = np.linalg.norm(axis)
    if length < 1e-12:
        raise StructuralError("zero-length element")
    x = axis / length
    # reference keeps local z sensible for both vertical and inclined struts
    ref = np.array([0.0, 0.0, 1.0]) if abs(x[2]) < 0.999 else np.array([0.0, 1.0, 0.0])
    y = np.cross(ref, x)
    y /= np.linalg.norm(y)
    z = np.cross(x, y)
    return np.vstack([x, y, z])


@dataclass(frozen=True)
class FrameTable:
    """What `analyze` needs of each element that depends on the model alone,
    keyed by element id; `TrussModel.frame_table` builds it once per model."""

    stiffness: dict[int, np.ndarray]  # (12, 12) stiffness in global axes
    mass: dict[int, float]  # kg
    midpoint: dict[int, np.ndarray]  # (3,)


def frame_table(model: TrussModel) -> FrameTable:
    mat, sec = model.material, model.section
    stiffness, mass, midpoint = {}, {}, {}
    for e in model.elements:
        p0 = model.node_position(e.start)
        p1 = model.node_position(e.end)
        length = float(np.linalg.norm(p1 - p0))
        k_local = local_stiffness(
            mat.elastic_modulus, mat.shear_modulus, sec.area, sec.iy, sec.iz, sec.j, length
        )
        rot = element_rotation(p0, p1)
        T = np.zeros((12, 12))
        for b in range(4):
            T[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = rot
        stiffness[e.id] = T.T @ k_local @ T
        mass[e.id] = element_mass(model, e.id)
        midpoint[e.id] = model.element_midpoint(e.id)
    return FrameTable(stiffness, mass, midpoint)


def analyze(
    partial: PartialStructure,
    gravity: Sequence[float] = DEFAULT_GRAVITY,
) -> StiffnessResult:
    """Solve the clamped self-weight problem for a prefix of elements."""
    model = partial.model
    if not partial.element_ids:
        raise StructuralError("cannot analyze an empty prefix")
    g = np.asarray(gravity, dtype=float)

    node_ids = sorted(
        {model.element(eid).start for eid in partial.element_ids}
        | {model.element(eid).end for eid in partial.element_ids}
    )
    index = {nid: i for i, nid in enumerate(node_ids)}
    ndof = 6 * len(node_ids)
    K = np.zeros((ndof, ndof))
    f = np.zeros(ndof)

    table = model.frame_table
    for eid in partial.element_ids:
        e = model.element(eid)
        dofs = np.r_[
            6 * index[e.start] + np.arange(6), 6 * index[e.end] + np.arange(6)
        ]
        K[np.ix_(dofs, dofs)] += table.stiffness[eid]

        half_weight = 0.5 * table.mass[eid] * g * _MILLI  # N vector
        f[6 * index[e.start] : 6 * index[e.start] + 3] += half_weight
        f[6 * index[e.end] : 6 * index[e.end] + 3] += half_weight

    fixed = np.zeros(ndof, dtype=bool)
    for nid in node_ids:
        if model.node(nid).grounded:
            fixed[6 * index[nid] : 6 * index[nid] + 6] = True
    free = ~fixed

    u = np.zeros(ndof)
    singular = False
    residual = 0.0
    if free.any():
        Kff = K[np.ix_(free, free)]
        ff = f[free]
        try:
            # Cholesky doubles as the positive-definiteness check: a prefix
            # with an unrestrained mechanism fails here instead of crashing.
            c = np.linalg.cholesky(Kff)
            uf = np.linalg.solve(c.T, np.linalg.solve(c, ff))
        except np.linalg.LinAlgError:
            singular = True
            uf = np.zeros(free.sum())
        if not singular:
            norm_f = np.linalg.norm(ff)
            residual = float(
                np.linalg.norm(Kff @ uf - ff) / (norm_f if norm_f > 0 else 1.0)
            )
            if not np.all(np.isfinite(uf)) or residual > 1e-6:
                singular = True
                uf = np.zeros(free.sum())
        u[free] = uf

    reaction_vec = K @ u - f
    displacements = {nid: u[6 * index[nid] : 6 * index[nid] + 6].copy() for nid in node_ids}
    reactions = {
        nid: reaction_vec[6 * index[nid] : 6 * index[nid] + 6].copy()
        for nid in node_ids
        if model.node(nid).grounded
    }
    translations = np.array([np.linalg.norm(d[:3]) for d in displacements.values()])
    return StiffnessResult(
        displacements=displacements,
        reactions=reactions,
        max_translation=float(translations.max()) if translations.size else 0.0,
        residual=residual,
        singular=singular,
    )


def check_stiffness(
    partial: PartialStructure,
    tolerance: float,
    result: StiffnessResult | None = None,
) -> bool:
    """Max nodal translation under self weight stays below `tolerance` (mm)."""
    if not partial.element_ids:
        return True
    res = result if result is not None else analyze(partial)
    if res.singular:
        return False
    return res.max_translation < tolerance


def center_of_gravity(partial: PartialStructure) -> np.ndarray:
    table = partial.model.frame_table
    total = 0.0
    acc = np.zeros(3)
    for eid in partial.element_ids:
        m = table.mass[eid]
        acc += m * table.midpoint[eid]
        total += m
    return acc / total


def support_hull(partial: PartialStructure) -> np.ndarray:
    """Convex hull (xy) of grounded nodes touched by the prefix."""
    model = partial.model
    pts = []
    for eid in partial.element_ids:
        e = model.element(eid)
        for nid in (e.start, e.end):
            if model.node(nid).grounded:
                pts.append(model.node_position(nid)[:2])
    if not pts:
        return np.zeros((0, 2))
    return convex_hull_2d(np.array(pts))


def check_stability(
    partial: PartialStructure,
    result: StiffnessResult | None = None,
) -> bool:
    """Partial structure neither tips over nor lifts off its supports.

    Two conditions: the center of gravity must project (along -z, the
    default gravity) inside the convex hull of the prefix's grounded nodes,
    boundary included, and no grounded node may need a tensile vertical
    reaction.
    """
    if not partial.element_ids:
        return True
    hull = support_hull(partial)
    if hull.shape[0] == 0:
        return False
    cog = center_of_gravity(partial)
    if not point_in_hull(cog[:2], hull):
        return False

    res = result if result is not None else analyze(partial)
    if res.singular:
        return False
    # reaction z < 0 would mean the support pulls the structure down, i.e.
    # the joint is in tension; unanchored printing cannot transmit that.
    mass = partial.model.frame_table.mass
    total_weight = sum(mass[eid] for eid in partial.element_ids)
    force_tol = max(1e-12, 1e-9 * total_weight * 9810.0 * _MILLI)
    for reaction in res.reactions.values():
        if reaction[2] < -force_tol:
            return False
    return True

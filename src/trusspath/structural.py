"""First-order elastic frame analysis of partially built trusses.

Each strut is one 3D frame element with the classical 12x12 stiffness matrix
(axial + torsion + bending in two planes).  Nodes carry 6 DOF; grounded nodes
are fully clamped.  Self weight is lumped half-and-half onto the element's end
nodes.  Units: mm, N, MPa; gravity defaults to -z at 9810 mm/s^2, and the
two checks below always analyse under that default.  Everything here reads
the model's frame table, one row per element, through a prefix's row list.

The two fabrication checks are:
  check_stiffness  -- max nodal translation under self weight below tolerance
  check_stability  -- rigid-body tipping: weight projection inside the support
                      hull and no grounded node pulled upward
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        rows = self.rows  # raises KeyError on unknown ids
        if len(set(self.element_ids)) < len(rows):
            twice = next(e for k, e in enumerate(self.element_ids) if e in self.element_ids[:k])
            raise StructuralError(f"element {twice} listed twice in prefix")

    @cached_property
    def rows(self) -> np.ndarray:
        """The prefix's rows of the model's frame table, in placement order."""
        row = self.model.frame_table.row
        return np.array([row[eid] for eid in self.element_ids], dtype=int)


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
    """What the structural checks need of the model, one row per element in
    model order, nodes ranked by ascending id (the order of `analyze`'s
    results); `TrussModel.frame_table` builds it once per model."""

    row: dict[int, int]  # element id -> row
    ends: np.ndarray  # (E, 2) start and end node ranks
    node_ids: np.ndarray  # (N,) ascending
    grounded: np.ndarray  # (N,) bool
    xy: np.ndarray  # (N, 2) plan position
    stiffness: np.ndarray  # (E, 12, 12) in global axes
    mass: np.ndarray  # (E,) kg
    midpoint: np.ndarray  # (E, 3)


def frame_table(model: TrussModel) -> FrameTable:
    mat, sec = model.material, model.section
    nodes = sorted(model.nodes, key=lambda n: n.id)
    rank = {n.id: i for i, n in enumerate(nodes)}
    stiffness = []
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
        stiffness.append(T.T @ k_local @ T)
    return FrameTable(
        row={e.id: i for i, e in enumerate(model.elements)},
        ends=np.array([(rank[e.start], rank[e.end]) for e in model.elements]),
        node_ids=np.array([n.id for n in nodes]),
        grounded=np.array([n.grounded for n in nodes]),
        xy=np.array([n.position[:2] for n in nodes], dtype=float),
        stiffness=np.array(stiffness),
        mass=np.array([element_mass(model, e.id) for e in model.elements]),
        midpoint=np.array([model.element_midpoint(e.id) for e in model.elements]),
    )


def analyze(
    partial: PartialStructure,
    gravity: Sequence[float] = DEFAULT_GRAVITY,
) -> StiffnessResult:
    """Solve the clamped self-weight problem for a prefix of elements.  K and
    f are one scatter-add each, summing every entry in placement order."""
    if not partial.element_ids:
        raise StructuralError("cannot analyze an empty prefix")
    table = partial.model.frame_table
    rows = partial.rows
    ends = table.ends[rows]
    g = np.asarray(gravity, dtype=float)

    # the prefix's nodes by ascending id, and each end's 6 DOFs among them
    present = np.zeros(len(table.node_ids), dtype=bool)
    present[ends] = True
    nodes = np.flatnonzero(present)
    node_ids = table.node_ids[nodes].tolist()
    grounded = table.grounded[nodes]
    ndof = 6 * len(nodes)
    dofs = 6 * (np.cumsum(present) - 1)[ends][:, :, None] + np.arange(6)  # (n, 2, 6)
    slots = dofs.reshape(-1, 12)
    K = np.bincount(
        (slots[:, :, None] * ndof + slots[:, None, :]).ravel(),
        table.stiffness[rows].ravel(),
        ndof * ndof,
    ).reshape(ndof, ndof)
    half_weight = 0.5 * table.mass[rows][:, None] * g * _MILLI  # N vectors
    f = np.bincount(dofs[:, :, :3].ravel(), np.repeat(half_weight, 2, axis=0).ravel(), ndof)

    free = ~np.repeat(grounded, 6)
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

    reaction_vec = (K @ u - f).reshape(-1, 6)
    displacements = {nid: d.copy() for nid, d in zip(node_ids, u.reshape(-1, 6))}
    reactions = {
        nid: r.copy() for nid, r, fixed in zip(node_ids, reaction_vec, grounded) if fixed
    }
    # one 1-D norm per node: a row-wise norm can round differently
    translations = np.array([np.linalg.norm(d[:3]) for d in displacements.values()])
    return StiffnessResult(
        displacements=displacements,
        reactions=reactions,
        max_translation=float(translations.max()),
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
    mass = table.mass[partial.rows]
    # running sums add in placement order; `sum` would add pairwise
    acc = np.cumsum(mass[:, None] * table.midpoint[partial.rows], axis=0)[-1]
    return acc / np.cumsum(mass)[-1]


def support_hull(partial: PartialStructure) -> np.ndarray:
    """Convex hull (xy) of grounded nodes touched by the prefix."""
    table = partial.model.frame_table
    ends = table.ends[partial.rows].ravel()
    pts = table.xy[ends[table.grounded[ends]]]
    return convex_hull_2d(pts) if len(pts) else np.zeros((0, 2))


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
    total_mass = np.cumsum(partial.model.frame_table.mass[partial.rows])[-1]
    force_tol = max(1e-12, 1e-9 * total_mass * -DEFAULT_GRAVITY[2] * _MILLI)
    return not any(r[2] < -force_tol for r in res.reactions.values())

"""Truss model: nodes, elements, materials, and fabrication-side helpers.

The input format is a single JSON document.  Coordinates are millimetres,
moduli are MPa (N/mm^2), density is kg/m^3.  An element is a straight strut
between two nodes; `layer` is an optional coarse build-order hint used by the
sequence planner as a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import finite, integer, read_document
from .geometry import CapsuleShape


class ModelError(Exception):
    """Raised for malformed or physically meaningless model documents."""


@dataclass(frozen=True)
class Node:
    id: int
    position: tuple[float, float, float]
    grounded: bool = False


@dataclass(frozen=True)
class Element:
    id: int
    start: int
    end: int
    layer: int = 0


@dataclass(frozen=True)
class MaterialSpec:
    elastic_modulus: float  # MPa
    shear_modulus: float  # MPa
    density: float  # kg/m^3

    def __post_init__(self) -> None:
        for name in ("elastic_modulus", "shear_modulus", "density"):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"material {name} must be positive")


@dataclass(frozen=True)
class SectionSpec:
    area: float  # mm^2
    iy: float  # mm^4
    iz: float  # mm^4
    j: float  # mm^4
    radius: float  # mm, collision capsule radius of the printed strut

    def __post_init__(self) -> None:
        for name in ("area", "iy", "iz", "j", "radius"):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"section {name} must be positive")


@dataclass
class TrussModel:
    nodes: tuple[Node, ...]
    elements: tuple[Element, ...]
    material: MaterialSpec
    section: SectionSpec
    name: str = "truss"

    def __post_init__(self) -> None:
        self._node_index = {n.id: i for i, n in enumerate(self.nodes)}
        self._element_index = {e.id: i for i, e in enumerate(self.elements)}
        _validate_model(self)

    # -- lookups ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def node(self, node_id: int) -> Node:
        return self.nodes[self._node_index[node_id]]

    def element(self, element_id: int) -> Element:
        return self.elements[self._element_index[element_id]]

    def node_position(self, node_id: int) -> np.ndarray:
        return np.asarray(self.node(node_id).position, dtype=float)

    def element_segment(self, element_id: int) -> np.ndarray:
        e = self.element(element_id)
        return np.vstack([self.node_position(e.start), self.node_position(e.end)])

    def element_length(self, element_id: int) -> float:
        seg = self.element_segment(element_id)
        return float(np.linalg.norm(seg[1] - seg[0]))

    def element_midpoint(self, element_id: int) -> np.ndarray:
        seg = self.element_segment(element_id)
        return 0.5 * (seg[0] + seg[1])

    @cached_property
    def frame_table(self):
        """The structural checks' element rows, built once per model (see
        `structural.FrameTable`)."""
        from .structural import frame_table  # structural imports this module

        return frame_table(self)

    @cached_property
    def element_capsules(self) -> dict[int, CapsuleShape]:
        """Each element's collision body: its axis at the section radius."""
        return {
            e.id: CapsuleShape(*map(tuple, self.element_segment(e.id)), self.section.radius)
            for e in self.elements
        }

    def scene(self, element_ids):
        """The `CapsuleSet` of the given placed elements, in that order."""
        from .kinematics import CapsuleSet  # kinematics sits above this module

        return CapsuleSet([self.element_capsules[eid] for eid in element_ids])

    def grounded_node_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.grounded]

    def layers(self) -> list[int]:
        return sorted({e.layer for e in self.elements})


# ---------------------------------------------------------------------------
# loading / serialization


def load_model(source: str | Path | dict) -> TrussModel:
    """Build a TrussModel from a JSON path or an already-parsed document;
    every number in it must be finite, every id, node reference and layer
    an integer, and every `grounded` flag a boolean."""
    doc = read_document(source, ModelError, "model")
    if isinstance(source, (str, Path)):
        name = Path(source).stem
    else:
        name = str(doc.get("name", "truss"))
    for key, kind in (("nodes", list), ("elements", list), ("material", dict), ("section", dict)):
        if not isinstance(doc.get(key), kind):
            json_kind = "list" if kind is list else "object"
            raise ModelError(f"model document missing '{key}', a JSON {json_kind}")

    nodes = []
    for row in doc["nodes"]:
        try:
            xyz = tuple(finite(v) for v in row["xyz"])
            grounded = row.get("grounded", False)
            if not isinstance(grounded, bool):
                raise ValueError(f"grounded {grounded!r} is not true or false")
            nodes.append(Node(integer(row["id"]), xyz, grounded))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"bad node entry {row!r}: {exc}") from exc
        if len(xyz) != 3:
            raise ModelError(f"node {row.get('id')} needs three coordinates")

    elements = []
    for row in doc["elements"]:
        try:
            elements.append(
                Element(
                    integer(row["id"]),
                    integer(row["start"]),
                    integer(row["end"]),
                    integer(row.get("layer", 0)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"bad element entry {row!r}: {exc}") from exc

    mat = doc["material"]
    sec = doc["section"]
    try:
        material = MaterialSpec(
            finite(mat["elastic_modulus"]),
            finite(mat["shear_modulus"]),
            finite(mat["density"]),
        )
        section = SectionSpec(
            finite(sec["area"]),
            finite(sec["iy"]),
            finite(sec["iz"]),
            finite(sec["j"]),
            finite(sec["radius"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"bad material/section block: {exc}") from exc

    return TrussModel(tuple(nodes), tuple(elements), material, section, name=name)


def serialize_model(model: TrussModel) -> dict:
    return {
        "name": model.name,
        "nodes": [
            {"id": n.id, "xyz": list(n.position), "grounded": n.grounded}
            for n in model.nodes
        ],
        "elements": [
            {"id": e.id, "start": e.start, "end": e.end, "layer": e.layer}
            for e in model.elements
        ],
        "material": {
            "elastic_modulus": model.material.elastic_modulus,
            "shear_modulus": model.material.shear_modulus,
            "density": model.material.density,
        },
        "section": {
            "area": model.section.area,
            "iy": model.section.iy,
            "iz": model.section.iz,
            "j": model.section.j,
            "radius": model.section.radius,
        },
    }


def _validate_model(model: TrussModel) -> None:
    node_ids = [n.id for n in model.nodes]
    if len(set(node_ids)) != len(node_ids):
        raise ModelError("duplicate node ids")
    element_ids = [e.id for e in model.elements]
    if len(set(element_ids)) != len(element_ids):
        raise ModelError("duplicate element ids")
    if not model.nodes or not model.elements:
        raise ModelError("model needs at least one node and one element")
    if not any(n.grounded for n in model.nodes):
        raise ModelError("model has no grounded nodes")

    known = set(node_ids)
    seen_pairs: set[frozenset[int]] = set()
    for e in model.elements:
        if e.start not in known or e.end not in known:
            raise ModelError(f"element {e.id} references unknown node")
        if e.start == e.end:
            raise ModelError(f"element {e.id} has zero length (same node twice)")
        pair = frozenset((e.start, e.end))
        if pair in seen_pairs:
            raise ModelError(f"element {e.id} duplicates an existing node pair")
        seen_pairs.add(pair)
        if model.element_length(e.id) <= 1e-9:
            raise ModelError(f"element {e.id} has zero geometric length")

    # every element must be reachable from the ground through the structure
    reachable = _ground_reachable_elements(model)
    missing = [e.id for e in model.elements if e.id not in reachable]
    if missing:
        raise ModelError(f"elements not connected to ground: {missing}")


def _ground_reachable_elements(model: TrussModel) -> set[int]:
    by_node: dict[int, list[Element]] = {}
    for e in model.elements:
        by_node.setdefault(e.start, []).append(e)
        by_node.setdefault(e.end, []).append(e)
    frontier = list(model.grounded_node_ids())
    seen_nodes = set(frontier)
    reached: set[int] = set()
    while frontier:
        node = frontier.pop()
        for e in by_node.get(node, []):
            reached.add(e.id)
            other = e.end if e.start == node else e.start
            if other not in seen_nodes:
                seen_nodes.add(other)
                frontier.append(other)
    return reached


# ---------------------------------------------------------------------------
# derived structure


def discretize_element(
    model: TrussModel,
    element_id: int,
    spacing: float,
    start_node: int | None = None,
) -> np.ndarray:
    """Uniform (n, 3) path points along an element, ordered start -> end.

    The point count is ceil(length / spacing) + 1 so the step never exceeds
    `spacing` and both endpoints are always included.  `start_node` picks the
    traversal direction; default is the element's declared start node.
    """
    if spacing <= 0.0:
        raise ModelError("path spacing must be positive")
    e = model.element(element_id)
    s, t = e.start, e.end
    if start_node is not None:
        if start_node == e.end:
            s, t = e.end, e.start
        elif start_node != e.start:
            raise ModelError(
                f"node {start_node} is not an endpoint of element {element_id}"
            )
    p0 = model.node_position(s)
    p1 = model.node_position(t)
    length = float(np.linalg.norm(p1 - p0))
    count = int(np.ceil(length / spacing)) + 1
    frac = np.linspace(0.0, 1.0, count)
    return p0[None, :] + frac[:, None] * (p1 - p0)[None, :]

"""Bundled demonstration inputs and parametric truss generators.

The package ships one small truss (a braced cube with an interior hub) and
one six-axis arm description tuned so the cube sits comfortably inside its
dexterous workspace.  `resolve_model` / `resolve_robot` accept either a
filesystem path or a bundled fixture name, which is what the command line
uses.

The generators build layered box towers of configurable size.  They exist
mostly for tests: `bracing_tower` is deterministic, `random_truss` draws the
diagonal pattern from a seeded generator so property tests can sweep many
distinct but reproducible structures.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

import numpy as np

from .config import read_document
from .kinematics import RobotModel, load_robot
from .truss import ModelError, TrussModel, load_model

MODEL_FILES = {"cube": "cube_23.json"}
ROBOT_FILES = {"arm": "kr6_like.json"}

DEFAULT_MATERIAL = {
    "name": "pla",
    "elastic_modulus": 3500.0,  # MPa
    "shear_modulus": 1300.0,  # MPa
    "density": 1250.0,  # kg/m^3
}


def circular_section(radius: float) -> dict:
    """Solid round-bar section properties from its radius."""
    return {
        "radius": radius,
        "area": np.pi * radius**2,
        "iy": np.pi * radius**4 / 4.0,
        "iz": np.pi * radius**4 / 4.0,
        "j": np.pi * radius**4 / 2.0,
    }


DEFAULT_SECTION = circular_section(2.0)


def fixture_path(filename: str) -> Path:
    """Absolute path of one bundled data file."""
    ref = importlib.resources.files("trusspath") / "data" / filename
    return Path(str(ref))


def load_bundled_model(name: str = "cube") -> TrussModel:
    if name not in MODEL_FILES:
        raise KeyError(f"unknown bundled model {name!r}; have {sorted(MODEL_FILES)}")
    # built from the parsed document, so the model keeps its own name
    return load_model(read_document(fixture_path(MODEL_FILES[name]), ModelError, "model"))


def load_bundled_robot(name: str = "arm") -> RobotModel:
    if name not in ROBOT_FILES:
        raise KeyError(f"unknown bundled robot {name!r}; have {sorted(ROBOT_FILES)}")
    return load_robot(fixture_path(ROBOT_FILES[name]))


def resolve_model(source: str) -> TrussModel:
    """Accept a filesystem path or a bundled fixture name."""
    if source in MODEL_FILES:
        return load_bundled_model(source)
    return load_model(source)


def resolve_robot(source: str) -> RobotModel:
    if source in ROBOT_FILES:
        return load_bundled_robot(source)
    return load_robot(source)


# ---------------------------------------------------------------------------
# generators


def _tower_doc(
    stories: int,
    bay: float,
    story_height: float,
    origin: tuple[float, float],
    diagonal_picker,
) -> dict:
    """Shared scaffolding for the tower builders.

    Nodes are the corners of a square column; every story adds four
    verticals, four ring edges, and the face diagonals `diagonal_picker`
    selects.  Element layers follow the story index so the layer-respecting
    planners get a meaningful decomposition.
    """
    ox, oy = origin
    half = bay / 2.0
    corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
    nodes = []
    for level in range(stories + 1):
        for cx, cy in corners:
            nodes.append(
                {
                    "id": len(nodes),
                    "xyz": [ox + cx, oy + cy, level * story_height],
                    "grounded": level == 0,
                }
            )
    elements = []

    def add(a: int, b: int, layer: int) -> None:
        elements.append(
            {"id": len(elements), "start": a, "end": b, "layer": layer}
        )

    for level in range(stories):
        base = 4 * level
        top = base + 4
        for c in range(4):
            add(base + c, top + c, level)  # vertical
        for c in range(4):
            add(top + c, top + (c + 1) % 4, level)  # top ring edge
        for face in range(4):
            pick = diagonal_picker(level, face)
            if pick is None:
                continue
            a_low = base + face
            b_low = base + (face + 1) % 4
            a_high = top + face
            b_high = top + (face + 1) % 4
            add(a_low, b_high, level) if pick else add(b_low, a_high, level)
    return {
        "name": f"tower_{stories}",
        "material": dict(DEFAULT_MATERIAL),
        "section": dict(DEFAULT_SECTION),
        "nodes": nodes,
        "elements": elements,
    }


def bracing_tower(
    stories: int = 2,
    bay: float = 90.0,
    story_height: float = 80.0,
    origin: tuple[float, float] = (520.0, 0.0),
) -> TrussModel:
    """Fully braced square tower; deterministic."""
    doc = _tower_doc(
        stories, bay, story_height, origin,
        lambda level, face: (level + face) % 2 == 0,
    )
    return load_model(doc)


def random_truss(
    stories: int = 2,
    bay: float = 90.0,
    story_height: float = 80.0,
    origin: tuple[float, float] = (520.0, 0.0),
    seed: int = 0,
) -> TrussModel:
    """Tower with a seeded random bracing pattern (always ground-connected)."""
    rng = np.random.default_rng(seed)

    def picker(level: int, face: int):
        roll = rng.integers(3)
        if roll == 2:
            return None  # unbraced face
        return bool(roll)

    doc = _tower_doc(stories, bay, story_height, origin, picker)
    return load_model(doc)

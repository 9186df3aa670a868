"""Planner configuration with JSON overrides, and the JSON document boundary.

All tunables live in one flat dataclass (plus a nested block for transition
planning) so that a run is reproducible from the config dict alone.  Values
are validated eagerly; a bad config should fail before any planning starts.

Every input document (config, truss model, robot, plan, sequence) is read by
`read_document`, and every output document (plan, sequence, exported
geometry) is written by `write_document`.  They live here because this
module imports nothing else from the package, so every loader can use them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

DEFAULT_DIRECTION_COUNT = 72
DEFAULT_ROTATION_SAMPLES = 16
DEFAULT_KINEMATICS_TIMEOUT = 2.0  # seconds per feasibility probe
DEFAULT_SEARCH_TIMEOUT = 21600.0  # six hours, matches the headless budget


class PlannerConfigError(Exception):
    pass


class DocumentWriteError(Exception):
    """An output document could not be written."""


def finite(value: Any) -> float:
    """`float(value)` for a number read from an input document.

    Only an int or a float passes; a bool, a string, NaN, the infinities and
    integers beyond the float range raise ValueError, which each loader
    reports as its own error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def integer(value: Any) -> int:
    """`int(value)` for an id, index or layer read from an input document.

    An integral number passes (an integral float counts, as in a plan
    document); a bool, a fraction, a non-finite number or a string raises
    ValueError, which each loader reports as its own error."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and finite(value).is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _check_types(settings: Any, prefix: str = "") -> None:
    """Each field must hold a value of its default's type (an int passes for
    a float) and be finite; values are never converted, so fingerprints see
    them as given."""
    for f in dataclasses.fields(settings):
        if f.default is dataclasses.MISSING:  # the nested transition block
            continue
        value, want = getattr(settings, f.name), type(f.default)
        kinds = (int, float) if want is float else (want,)
        if isinstance(value, bool) != (want is bool) or not isinstance(value, kinds):
            raise PlannerConfigError(
                f"{prefix}{f.name} must be {want.__name__}, got {value!r}"
            )
        if want is float:
            try:
                finite(value)
            except ValueError as exc:
                raise PlannerConfigError(f"{prefix}{f.name} must be finite") from exc


@dataclass(frozen=True)
class TransitionSettings:
    max_iterations: int = 3000
    step: float = 0.25  # rad, RRT extension step in weighted joint space
    smoothing_iterations: int = 80
    direct_timeout: float = 5.0
    fallback_timeout: float = 10.0

    def validate(self) -> None:
        _check_types(self, "transition.")
        if self.max_iterations < 1:
            raise PlannerConfigError("transition.max_iterations must be >= 1")
        if self.step <= 0.0:
            raise PlannerConfigError("transition.step must be positive")
        if self.smoothing_iterations < 0:
            raise PlannerConfigError("transition.smoothing_iterations must be >= 0")
        if self.direct_timeout <= 0.0 or self.fallback_timeout <= 0.0:
            raise PlannerConfigError("transition timeouts must be positive")


@dataclass(frozen=True)
class PlannerConfig:
    # sequencing
    direction_count: int = DEFAULT_DIRECTION_COUNT
    rotation_samples: int = DEFAULT_ROTATION_SAMPLES
    kinematics_timeout: float = DEFAULT_KINEMATICS_TIMEOUT
    search_timeout: float = DEFAULT_SEARCH_TIMEOUT
    use_decomposition: bool = True
    collision_cost_ordering: bool = False
    displacement_tolerance: float = 1.0  # mm, stiffness gate
    # geometry
    clearance: float = 2.0  # mm, added to every capsule pair
    path_spacing: float = 5.0  # mm between extrusion waypoints
    retraction_length: float = 25.0  # mm
    # trajectories
    jump_limit: float = 0.15  # rad per step for revolute joints
    prismatic_jump_limit: float = 15.0  # mm per step on a rail
    capsule_budget: int = 6  # orientation blocks explored per task
    full_graph_vertex_cap: int = 200000
    transition: TransitionSettings = field(default_factory=TransitionSettings)
    seed: int = 0

    def validate(self) -> None:
        _check_types(self)
        if self.direction_count < 4:
            raise PlannerConfigError("direction_count must be >= 4")
        if self.rotation_samples < 1:
            raise PlannerConfigError("rotation_samples must be >= 1")
        if self.kinematics_timeout <= 0.0:
            raise PlannerConfigError("kinematics_timeout must be positive")
        if self.search_timeout <= 0.0:
            raise PlannerConfigError("search_timeout must be positive")
        if self.displacement_tolerance <= 0.0:
            raise PlannerConfigError("displacement_tolerance must be positive")
        if self.clearance < 0.0:
            raise PlannerConfigError("clearance must be >= 0")
        if self.path_spacing <= 0.0:
            raise PlannerConfigError("path_spacing must be positive")
        if self.retraction_length <= 0.0:
            raise PlannerConfigError("retraction_length must be positive")
        if self.jump_limit <= 0.0 or self.prismatic_jump_limit <= 0.0:
            raise PlannerConfigError("jump limits must be positive")
        if self.capsule_budget < 1:
            raise PlannerConfigError("capsule_budget must be >= 1")
        if self.full_graph_vertex_cap < 1:
            raise PlannerConfigError("full_graph_vertex_cap must be >= 1")
        if self.seed < 0:
            raise PlannerConfigError("seed must be >= 0")
        self.transition.validate()

    def to_dict(self) -> dict[str, Any]:
        doc = dataclasses.asdict(self)
        return doc

    def replace(self, **changes: Any) -> "PlannerConfig":
        cfg = dataclasses.replace(self, **changes)
        cfg.validate()
        return cfg


def read_document(source: Any, error: type[Exception], kind: str) -> dict:
    """The JSON object at path `source`, or `source` itself if already parsed.

    A file that is missing or cannot be read, bytes that are not UTF-8 JSON,
    or a document that is not an object raises `error`, with a message
    naming the `kind` of document.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            source = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise error(f"{kind} file not found: {path}") from exc
        except OSError as exc:
            raise error(f"{kind} file {path} cannot be read: {exc.strerror}") from exc
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise error(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise error(f"{kind} document must be a JSON object")
    return source


def write_document(doc: dict, path: str | Path) -> None:
    """Write `doc` as key-sorted, two-space-indented JSON ending in a newline.

    A failed write raises `DocumentWriteError` naming the path and the reason.
    """
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise DocumentWriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_config(source: str | Path | dict | None = None) -> PlannerConfig:
    """Defaults overridden by a JSON file or dict; unknown keys are errors."""
    if source is None:
        cfg = PlannerConfig()
        cfg.validate()
        return cfg
    doc = read_document(source, PlannerConfigError, "config")
    known = {f.name for f in dataclasses.fields(PlannerConfig)}
    unknown = set(doc) - known
    if unknown:
        raise PlannerConfigError(f"unknown config keys: {sorted(unknown)}")
    values = dict(doc)
    if "transition" in values:
        tr = values["transition"]
        if not isinstance(tr, dict):
            raise PlannerConfigError("transition block must be an object")
        tr_known = {f.name for f in dataclasses.fields(TransitionSettings)}
        tr_unknown = set(tr) - tr_known
        if tr_unknown:
            raise PlannerConfigError(f"unknown transition keys: {sorted(tr_unknown)}")
        values["transition"] = TransitionSettings(**tr)
    try:
        cfg = PlannerConfig(**values)
    except TypeError as exc:
        raise PlannerConfigError(f"bad config value: {exc}") from exc
    cfg.validate()
    return cfg

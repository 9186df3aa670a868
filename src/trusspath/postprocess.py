"""The plan document: format check, serialization and integrity fingerprints.

A plan is its JSON document; `run_pipeline` builds it, `save_plan` writes
it, `load_plan` reads it back and `validate_plan` checks it, all as the same
plain dict.  It holds the plan `version`, the input `fingerprints`, the
joint count `dof` and a list of per-element `tasks`, each holding exactly
four subprocesses in execution order: the free-space transition that brings
the robot in, the approach slide onto the start node, the extrusion pass
itself, and the depart slide away from the end node.  Transitions are pure
joint-space data (`"tcp": null`); the other three carry tool poses alongside
the joints so downstream consumers (simulation, controller code generation)
do not need a kinematics model.

Documents embed SHA-256 fingerprints of the model, robot, and configuration
they were planned from, letting the validator refuse a plan replayed against
different inputs.  Serialization is canonical: sorted keys, no timestamps,
full float precision.  Planning twice from the same inputs and seed yields
byte-identical files.

`validate_plan_document` is the format check that saving, loading and the
validator's "format" check share.  It is one plain-Python pass over the
document (JSON-Schema draft 2020-12 typing: an integral float is an integer,
a bool is not a number) and raises `PlanFormatError`, never another
exception, on any malformed document.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import NoReturn

import numpy as np

from .config import finite, read_document, write_document
from .kinematics import RobotModel, fk_frames_batch

PLAN_VERSION = "1"
SUBPROCESS_TYPES = (
    "transition",
    "retraction-approach",
    "extrusion",
    "retraction-depart",
)


class PlanFormatError(Exception):
    pass


# ---------------------------------------------------------------------------
# fingerprints and canonical form


def canonical_json(payload) -> str:
    """Key-sorted, separator-normalized JSON; the fingerprint domain."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def tcp_entries(robot: RobotModel, joints: np.ndarray) -> list[dict]:
    """Tool poses for each joint row: origin, tool z axis, full rotation."""
    frames = fk_frames_batch(robot, np.atleast_2d(joints))[:, -1, :3].tolist()
    return [
        {
            "origin": [row[3] for row in f],
            "zaxis": [row[2] for row in f],
            "rotation": [row[:3] for row in f],
        }
        for f in frames
    ]


# ---------------------------------------------------------------------------
# format check

_FINGERPRINT = re.compile(r"^[0-9a-f]{64}$")


def _reject(message: str) -> NoReturn:
    raise PlanFormatError(f"plan document rejected: {message}")


def _is_number(v) -> bool:
    """A finite number (see `config.finite`): joint and pose values are read
    as floats, so NaN, the infinities and integers beyond the float range
    are rejected here rather than met as an error further on."""
    if type(v) is float:  # nearly every value; kept cheap
        return math.isfinite(v)
    try:
        finite(v)
    except ValueError:
        return False
    return True


def _is_count(v, least: int = 0) -> bool:
    """A JSON integer of at least `least`; an integral float counts as one."""
    if isinstance(v, float):
        return v.is_integer() and v >= least
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _is_numbers(v, n: int) -> bool:
    return isinstance(v, list) and len(v) == n and all(map(_is_number, v))


def _check_keys(obj, where: str, required: set, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        _reject(f"{where} is not an object")
    missing = required - obj.keys()
    extra = obj.keys() - required - set(optional)
    if missing or extra:
        _reject(
            f"{where} lacks {sorted(missing)} or has unexpected "
            f"{sorted(map(str, extra))}"
        )


def _check_subprocess(sub, kind: str, dof, where: str) -> None:
    _check_keys(
        sub, f"{where} subprocess", {"id", "kind", "data_kind", "joints"},
        optional=("tcp", "io_anchors"),
    )
    if not _is_count(sub["id"]):
        _reject(f"{where}: subprocess id {sub['id']!r} is not a count")
    where = f"subprocess {sub['id']}"
    if sub["kind"] != kind:
        _reject(
            f"{where}: kind {sub['kind']!r} breaks the canonical order "
            f"{list(SUBPROCESS_TYPES)}"
        )
    data_kind = "joint" if kind == "transition" else "tcp"
    if sub["data_kind"] != data_kind:
        _reject(f"{where}: kind {kind} must carry {data_kind} data")
    rows = sub["joints"]
    if not (isinstance(rows, list) and rows and all(_is_numbers(r, dof) for r in rows)):
        _reject(f"{where}: joint rows are not all {dof} wide number lists")
    tcp = sub.get("tcp")
    if data_kind == "tcp" or tcp is not None:
        if not isinstance(tcp, list):
            _reject(f"{where}: tcp is not a list of tool poses")
        for pose in tcp:
            _check_keys(pose, f"{where} tool pose", {"origin", "zaxis", "rotation"})
            rotation = pose["rotation"]
            if not (
                _is_numbers(pose["origin"], 3)
                and _is_numbers(pose["zaxis"], 3)
                and isinstance(rotation, list)
                and len(rotation) == 3
                and all(_is_numbers(r, 3) for r in rotation)
            ):
                _reject(f"{where}: a tool pose is not two 3-vectors and a 3x3 rotation")
        if data_kind == "tcp" and len(tcp) != len(rows):
            _reject(f"{where}: {len(tcp)} tool poses for {len(rows)} joint rows")
    anchors = sub.get("io_anchors")
    if anchors is not None:
        _check_keys(anchors, f"{where} io_anchors", {"extruder_on", "extruder_off"})
        if not all(map(_is_count, anchors.values())):
            _reject(f"{where}: io anchors are not counts")
    if kind == "extrusion":
        if anchors is None:
            _reject(f"{where}: extrusion requires io anchors")
        last = len(rows) - 1
        if anchors["extruder_on"] != 0 or anchors["extruder_off"] != last:
            _reject(f"{where}: extruder anchors must span the whole pass (0 .. {last})")


def validate_plan_document(doc: dict) -> None:
    """Raise PlanFormatError unless `doc` is a well-formed plan document.

    One pass checks exact key sets, value types (an integral float counts as
    an integer, a bool is not a number, a joint or pose value must be a
    finite float-range number), the version, 64-hex-digit
    fingerprints, four subprocesses per task in the canonical kind order,
    joint rows `dof` wide, one tool pose per joint row wherever tcp data is
    due, and extruder anchors spanning each extrusion pass.
    """
    _check_keys(doc, "document", {"version", "fingerprints", "dof", "tasks"})
    if doc["version"] != PLAN_VERSION:
        _reject(f"version {doc['version']!r} is not {PLAN_VERSION!r}")
    fingerprints = doc["fingerprints"]
    _check_keys(fingerprints, "fingerprints", {"model", "robot", "config"})
    for key, value in fingerprints.items():
        if not (isinstance(value, str) and _FINGERPRINT.search(value)):
            _reject(f"fingerprint {key} {value!r} is not 64 hex digits")
    dof = doc["dof"]
    if not _is_count(dof, least=1):
        _reject(f"dof {dof!r} is not a positive integer")
    tasks = doc["tasks"]
    if not (isinstance(tasks, list) and tasks):
        _reject("tasks is not a non-empty list")
    for index, task in enumerate(tasks):
        _check_keys(task, f"task #{index}", {"task_id", "element_id", "subprocesses"})
        if not (_is_count(task["task_id"]) and _is_count(task["element_id"])):
            _reject(f"task #{index}: task_id and element_id are not both counts")
        subs = task["subprocesses"]
        if not (isinstance(subs, list) and len(subs) == len(SUBPROCESS_TYPES)):
            _reject(f"task {task['task_id']}: it needs exactly four subprocesses")
        for kind, sub in zip(SUBPROCESS_TYPES, subs):
            _check_subprocess(sub, kind, dof, f"task {task['task_id']}")


# ---------------------------------------------------------------------------
# io


def plan_to_dict(plan: dict) -> dict:
    """The plan itself: a plan is its document."""
    return plan


def save_plan(plan: dict, path: str | Path) -> None:
    """Check the plan document, then write it in canonical form."""
    validate_plan_document(plan)
    write_document(plan, path)


def load_plan(path: str | Path) -> dict:
    """Read a plan document and check it."""
    doc = read_document(path, PlanFormatError, "plan")
    validate_plan_document(doc)
    return doc


def seam_gaps(plan: dict) -> list[tuple[int, int, float]]:
    """Largest joint discontinuity at every subprocess boundary.

    Returns (task_id, subprocess id of the later side, gap) triples covering
    both intra-task boundaries and the stitch between consecutive tasks, in
    document order.
    """
    gaps = []
    prev_end: list | None = None
    for task in plan["tasks"]:
        for sub in task["subprocesses"]:
            rows = sub["joints"]
            if prev_end is not None:
                gap = float(np.abs(np.subtract(rows[0], prev_end)).max())
                gaps.append((task["task_id"], sub["id"], gap))
            prev_end = rows[-1]
    return gaps

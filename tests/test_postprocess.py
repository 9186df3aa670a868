"""Plan document format: format check, fingerprints, serialization, seam gaps."""

import copy
import hashlib
import json
import math
import random

import numpy as np
import pytest

from trusspath.config import PlannerConfig
from trusspath.fixtures import load_bundled_model, load_bundled_robot
from trusspath.kinematics import fk
from trusspath.pipeline import run_pipeline
from trusspath.postprocess import (
    PLAN_VERSION,
    SUBPROCESS_TYPES,
    PlanFormatError,
    canonical_json,
    fingerprint,
    load_plan,
    save_plan,
    seam_gaps,
    tcp_entries,
    validate_plan_document,
)
from trusspath.truss import load_model, serialize_model

IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def tcp_stub(n):
    """n tool poses, each with rotation rows of its own."""
    return [
        {
            "origin": [float(i), 0.0, 0.0],
            "zaxis": [0.0, 0.0, 1.0],
            "rotation": [row[:] for row in IDENTITY],
        }
        for i in range(n)
    ]


def test_tcp_stub_rows_are_not_shared():
    first, second = tcp_stub(2)
    later = tcp_stub(1)[0]
    first["rotation"][1][0] = 5.0
    assert second["rotation"] == later["rotation"] == IDENTITY
    assert IDENTITY == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def subprocess_doc(sid, kind, joints, io_anchors=None):
    data_kind = "joint" if kind == "transition" else "tcp"
    return {
        "id": sid,
        "kind": kind,
        "data_kind": data_kind,
        "joints": [[float(v) for v in row] for row in joints],
        "tcp": None if data_kind == "joint" else tcp_stub(len(joints)),
        "io_anchors": io_anchors,
    }


def toy_doc():
    """Minimal two-task plan document that satisfies every format rule."""
    fps = {
        "model": fingerprint({"m": 1}),
        "robot": fingerprint({"r": 1}),
        "config": fingerprint({"c": 1}),
    }
    tasks = []
    for tid, base in ((0, 0.0), (1, 1.0)):
        subs = [
            subprocess_doc(tid * 4 + 0, "transition", [[base, 0.0], [base + 0.1, 0.0]]),
            subprocess_doc(tid * 4 + 1, "retraction-approach", [[base + 0.1, 0.0], [base + 0.2, 0.0]]),
            subprocess_doc(
                tid * 4 + 2,
                "extrusion",
                [[base + 0.2, 0.0], [base + 0.3, 0.0], [base + 0.4, 0.0]],
                io_anchors={"extruder_on": 0, "extruder_off": 2},
            ),
            subprocess_doc(tid * 4 + 3, "retraction-depart", [[base + 0.4, 0.0], [base + 0.5, 0.0]]),
        ]
        tasks.append({"task_id": tid, "element_id": tid + 10, "subprocesses": subs})
    return {
        "version": PLAN_VERSION,
        "fingerprints": fps,
        "dof": 2,
        "tasks": tasks,
    }


def test_canonical_json_and_fingerprint():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
    payload = {"a": 1, "b": [2, 3]}
    expected = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    assert fingerprint(payload) == expected
    assert fingerprint({"b": [2, 3], "a": 1}) == expected
    assert fingerprint({"a": 1, "b": [2, 4]}) != expected


def test_tcp_entries_match_forward_kinematics():
    robot = load_bundled_robot("arm")
    qs = np.array([robot.home, robot.home + 0.05])
    entries = tcp_entries(robot, qs)
    assert len(entries) == 2
    for q, entry in zip(qs, entries):
        pose = fk(robot, q)
        assert np.allclose(entry["origin"], pose.position, atol=1e-9)
        rot = np.array(entry["rotation"])
        assert np.allclose(rot[:, 2], entry["zaxis"], atol=1e-12)
        assert np.allclose(pose.direction, -rot[:, 2], atol=1e-9)


def test_valid_document_round_trips(tmp_path):
    doc = toy_doc()
    validate_plan_document(doc)
    path = tmp_path / "plan.json"
    save_plan(doc, path)
    assert load_plan(path) == doc


def test_document_rejections(tmp_path):
    cases = []

    d = toy_doc(); d["version"] = "999"
    cases.append((d, "rejected"))

    d = toy_doc(); del d["fingerprints"]["robot"]
    cases.append((d, "rejected"))

    d = toy_doc(); d["fingerprints"]["model"] = "zz"
    cases.append((d, "rejected"))

    d = toy_doc()
    subs = d["tasks"][0]["subprocesses"]
    subs[1], subs[2] = subs[2], subs[1]
    cases.append((d, "canonical order"))

    d = toy_doc(); d["tasks"][0]["subprocesses"].pop()
    cases.append((d, "rejected"))

    d = toy_doc(); d["tasks"][0]["subprocesses"][0]["joints"][0] = [0.0, 0.0, 0.0]
    cases.append((d, "not all 2 wide"))

    d = toy_doc(); d["tasks"][0]["subprocesses"][2]["data_kind"] = "joint"
    cases.append((d, "must carry tcp data"))

    d = toy_doc()
    d["tasks"][0]["subprocesses"][1]["tcp"] = tcp_stub(5)
    cases.append((d, "tool poses for"))

    d = toy_doc()
    d["tasks"][0]["subprocesses"][2]["io_anchors"] = {"extruder_on": 0, "extruder_off": 1}
    cases.append((d, "span the whole pass"))

    d = toy_doc(); d["tasks"][0]["subprocesses"][2]["io_anchors"] = None
    cases.append((d, "requires io anchors"))

    for doc, frag in cases:
        with pytest.raises(PlanFormatError, match=frag):
            validate_plan_document(doc)
    # load_plan goes through the same gate
    bad = toy_doc(); bad["version"] = "999"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(PlanFormatError, match="version"):
        load_plan(path)


def test_save_load_byte_stable(tmp_path):
    doc = toy_doc()
    p1 = tmp_path / "plan.json"
    p2 = tmp_path / "plan2.json"
    save_plan(doc, p1)
    reloaded = load_plan(p1)
    save_plan(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert reloaded == doc


def test_load_plan_errors(tmp_path):
    with pytest.raises(PlanFormatError, match="not found"):
        load_plan(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(PlanFormatError, match="not valid JSON"):
        load_plan(bad)
    tampered = toy_doc()
    tampered["tasks"][0]["subprocesses"][0]["kind"] = "extrusion"
    f = tmp_path / "tampered.json"
    f.write_text(json.dumps(tampered))
    with pytest.raises(PlanFormatError):
        load_plan(f)
    null_tcp = toy_doc()
    null_tcp["tasks"][1]["subprocesses"][3]["tcp"] = None
    f.write_text(json.dumps(null_tcp))
    with pytest.raises(PlanFormatError, match="tcp is not a list"):
        load_plan(f)


def test_seam_gaps_cover_every_boundary():
    doc = toy_doc()
    # introduce one known discontinuity: task 1 transition starts at 1.0
    # while task 0 depart ends at 0.5
    gaps = seam_gaps(doc)
    assert len(gaps) == 7  # 8 subprocesses, every boundary but the first
    by_id = {sid: gap for _, sid, gap in gaps}
    assert by_id[1] == pytest.approx(0.0)
    assert by_id[2] == pytest.approx(0.0)
    assert by_id[3] == pytest.approx(0.0)
    assert by_id[4] == pytest.approx(0.5)  # the inter-task stitch
    assert gaps[3][0] == 1  # reported against the later task


def test_format_follows_json_typing():
    # draft 2020-12 typing: an integral float is an integer; a joint or pose
    # value must also be finite and in the float range, as it is read as one
    doc = toy_doc()
    doc["dof"] = 2.0
    doc["tasks"][0]["task_id"] = 0.0
    doc["tasks"][0]["subprocesses"][0]["joints"][0][1] = 10**300
    doc["tasks"][0]["subprocesses"][2]["io_anchors"] = {
        "extruder_on": 0.0,
        "extruder_off": 2.0,
    }
    validate_plan_document(doc)

    def edited(path, value):
        d = toy_doc()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return d

    rejected = [
        edited(("dof",), True),
        edited(("dof",), 0),
        edited(("tasks", 0, "task_id"), 1.5),
        edited(("tasks", 0, "element_id"), -1),
        edited(("tasks", 0, "subprocesses", 0, "joints", 0, 1), False),
        edited(("tasks", 0, "subprocesses", 0, "joints", 0, 1), float("nan")),
        edited(("tasks", 0, "subprocesses", 0, "joints", 0, 1), -float("inf")),
        edited(("tasks", 0, "subprocesses", 0, "joints", 0, 1), 10**400),
        edited(("tasks", 0, "subprocesses", 1, "tcp", 0, "origin", 2), float("nan")),
        edited(("tasks", 0, "subprocesses", 1, "tcp", 0, "zaxis", 1), 10**400),
        edited(("tasks", 0, "subprocesses", 0, "joints", 0), []),
        edited(("fingerprints", "model"), fingerprint({"m": 1}).upper()),
        edited(("tasks", 0, "subprocesses", 1, "tcp"), None),
        edited(("tasks", 0, "subprocesses", 1, "tcp", 0, "rotation"), IDENTITY[:2]),
        edited(("tasks", 0, "subprocesses", 2, "io_anchors", "extruder_on"), None),
        edited(("tasks", 0, "subprocesses", 0, "extra"), None),
        edited(("tasks",), []),
    ]
    for doc in rejected:
        with pytest.raises(PlanFormatError, match="^plan document rejected: "):
            validate_plan_document(doc)


# ---------------------------------------------------------------------------
# differential test against the format as first specified: a JSON Schema run
# by jsonschema, then the rules the schema could not express.  The schema and
# the rules are kept verbatim as the oracle, plus one rule added later: every
# joint and pose value is finite and in the float range.

_VEC3 = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {"type": "number"},
}

_SUBPROCESS_SCHEMA = {
    "type": "object",
    "required": ["id", "kind", "data_kind", "joints"],
    "additionalProperties": False,
    "properties": {
        "id": {"type": "integer", "minimum": 0},
        "kind": {"enum": list(SUBPROCESS_TYPES)},
        "data_kind": {"enum": ["joint", "tcp"]},
        "joints": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        },
        "tcp": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["origin", "zaxis", "rotation"],
                "additionalProperties": False,
                "properties": {
                    "origin": _VEC3,
                    "zaxis": _VEC3,
                    "rotation": {
                        "type": "array",
                        "minItems": 3,
                        "maxItems": 3,
                        "items": _VEC3,
                    },
                },
            },
        },
        "io_anchors": {
            "type": ["object", "null"],
            "required": ["extruder_on", "extruder_off"],
            "additionalProperties": False,
            "properties": {
                "extruder_on": {"type": "integer", "minimum": 0},
                "extruder_off": {"type": "integer", "minimum": 0},
            },
        },
    },
    "allOf": [
        {
            "if": {"properties": {"data_kind": {"const": "tcp"}}},
            "then": {"required": ["tcp"]},
        },
        {
            "if": {"properties": {"kind": {"const": "extrusion"}}},
            "then": {"required": ["io_anchors"]},
        },
    ],
}

ORACLE_PLAN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "fingerprints", "dof", "tasks"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": PLAN_VERSION},
        "fingerprints": {
            "type": "object",
            "required": ["model", "robot", "config"],
            "additionalProperties": False,
            "properties": {
                key: {"type": "string", "pattern": "^[0-9a-f]{64}$"}
                for key in ("model", "robot", "config")
            },
        },
        "dof": {"type": "integer", "minimum": 1},
        "tasks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["task_id", "element_id", "subprocesses"],
                "additionalProperties": False,
                "properties": {
                    "task_id": {"type": "integer", "minimum": 0},
                    "element_id": {"type": "integer", "minimum": 0},
                    "subprocesses": {
                        "type": "array",
                        "minItems": 4,
                        "maxItems": 4,
                        "items": _SUBPROCESS_SCHEMA,
                    },
                },
            },
        },
    },
}


def _finite_json_number(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def oracle_validate(doc, schema_validator):
    """The schema check plus the structural rules jsonschema cannot express.

    `schema_validator` is a jsonschema validator built once for
    ORACLE_PLAN_SCHEMA; `jsonschema.validate` would rebuild and re-check it
    on every call, with the same verdict.
    """
    if not schema_validator.is_valid(doc):
        raise PlanFormatError("plan document rejected")
    for task in doc["tasks"]:
        kinds = [s["kind"] for s in task["subprocesses"]]
        if kinds != list(SUBPROCESS_TYPES):
            raise PlanFormatError(
                f"task {task['task_id']}: subprocess kinds {kinds} are not "
                f"the canonical order {list(SUBPROCESS_TYPES)}"
            )
        for sub in task["subprocesses"]:
            widths = {len(row) for row in sub["joints"]}
            if widths != {doc["dof"]}:
                raise PlanFormatError(
                    f"subprocess {sub['id']}: joint rows are not all "
                    f"{doc['dof']} wide"
                )
            expect_kind = "joint" if sub["kind"] == "transition" else "tcp"
            if sub["data_kind"] != expect_kind:
                raise PlanFormatError(
                    f"subprocess {sub['id']}: kind {sub['kind']} must carry "
                    f"{expect_kind} data"
                )
            if sub["data_kind"] == "tcp" and len(sub["tcp"]) != len(sub["joints"]):
                raise PlanFormatError(
                    f"subprocess {sub['id']}: {len(sub['tcp'])} tool poses for "
                    f"{len(sub['joints'])} joint rows"
                )
            values = [v for row in sub["joints"] for v in row]
            for pose in sub.get("tcp") or ():
                values += pose["origin"] + pose["zaxis"] + sum(pose["rotation"], [])
            if not all(map(_finite_json_number, values)):
                raise PlanFormatError(
                    f"subprocess {sub['id']}: a joint or pose value is not finite"
                )
            if sub["kind"] == "extrusion":
                anchors = sub["io_anchors"]
                if anchors is None:
                    raise PlanFormatError(
                        f"subprocess {sub['id']}: extrusion requires io anchors"
                    )
                last = len(sub["joints"]) - 1
                if anchors["extruder_on"] != 0 or anchors["extruder_off"] != last:
                    raise PlanFormatError(
                        f"subprocess {sub['id']}: extruder anchors must span "
                        f"the whole pass (0 .. {last})"
                    )


HEX64 = "0123456789abcdef" * 4
REPLACEMENTS = [
    None, True, False, 0, 1, 2, 6, -1, 0.0, 2.0, 6.0, 2.5, -0.0,
    float("nan"), float("inf"), 10**400, "", "1", "x", "joint", "tcp",
    *SUBPROCESS_TYPES, HEX64, HEX64 + "\n", HEX64.upper(), HEX64[:63],
    [], [0.0], [0.0, 0.0], [[0.0, 0.0]], [None], [True, 0.0], IDENTITY,
    {}, {"extruder_on": 0, "extruder_off": 2}, {"extruder_on": 0},
    tcp_stub(1)[0], tcp_stub(2),
]
KEY_NAMES = [
    "version", "fingerprints", "dof", "tasks", "model", "robot", "config",
    "task_id", "element_id", "subprocesses", "id", "kind", "data_kind",
    "joints", "tcp", "io_anchors", "origin", "zaxis", "rotation",
    "extruder_on", "extruder_off", "extra",
]


def doc_paths(node, prefix=()):
    """Every location in a JSON-like document, as a key/index tuple."""
    out = [prefix]
    if isinstance(node, dict):
        for key, value in node.items():
            out += doc_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out += doc_paths(value, prefix + (i,))
    return out


def mutate(doc, path, rng):
    """A copy of `doc` with one random edit at `path`, and the edit's name.

    Only the containers along the path are copied; the rest is shared with
    `doc`, which neither check modifies.
    """
    holder = [doc]
    parent, key = holder, 0
    for step in path:
        parent[key] = copy.copy(parent[key])
        parent, key = parent[key], step
    value = parent[key]
    ops = ["replace"]
    if parent is not holder:
        ops += ["delete"]
        if isinstance(parent, dict):
            ops += ["rename"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        ops += ["nudge"] * 3
    if isinstance(value, dict):
        ops += ["add key"]
    if isinstance(value, list) and value:
        ops += ["grow", "shrink", "swap", "clear"]
    op = rng.choice(ops)
    if op == "replace":
        parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    elif op == "delete":
        del parent[key]
    elif op == "rename":
        parent[rng.choice(KEY_NAMES)] = parent.pop(key)
    elif op == "nudge":
        options = [value + 1, value - 1, -value, float(value), bool(value)]
        if math.isfinite(value):
            options.append(int(value))
        parent[key] = rng.choice(options)
    elif op == "clear":
        parent[key] = []
    elif op == "add key":
        parent[key] = dict(value)
        parent[key][rng.choice(KEY_NAMES)] = copy.deepcopy(rng.choice(REPLACEMENTS))
    else:
        items = list(value)
        i, j = rng.randrange(len(items)), rng.randrange(len(items))
        if op == "grow":
            items.insert(i, items[j])
        elif op == "shrink":
            items.pop(i)
        else:
            items[i], items[j] = items[j], items[i]
        parent[key] = items
    return holder[0], f"{op} at {path}"


def has_null_tcp(doc) -> bool:
    return any(
        sub.get("data_kind") == "tcp" and sub.get("tcp", []) is None
        for task in doc["tasks"]
        for sub in task["subprocesses"]
    )


@pytest.fixture(scope="module")
def edge_plan_doc():
    """A real planned document: the bundled cube's first element alone."""
    cube = serialize_model(load_bundled_model("cube"))
    edge = dict(
        cube, name="edge", nodes=cube["nodes"][:2], elements=cube["elements"][:1]
    )
    config = PlannerConfig(direction_count=24, rotation_samples=2)
    return run_pipeline(load_model(edge), load_bundled_robot("arm"), config)[0]


@pytest.mark.parametrize("base, count", [("toy", 10_000), ("planned", 1_000)])
def test_format_check_matches_schema_oracle(base, count, edge_plan_doc):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(ORACLE_PLAN_SCHEMA)
    assert jsonschema.validators.validator_for(ORACLE_PLAN_SCHEMA) is (
        jsonschema.Draft202012Validator
    )
    schema_validator = jsonschema.Draft202012Validator(ORACLE_PLAN_SCHEMA)
    doc = toy_doc() if base == "toy" else edge_plan_doc
    validate_plan_document(doc)
    oracle_validate(doc, schema_validator)
    # the one allowed difference: the oracle crashes where tcp data is null
    null_tcp = copy.deepcopy(doc)
    null_tcp["tasks"][0]["subprocesses"][1]["tcp"] = None
    with pytest.raises(TypeError):
        oracle_validate(null_tcp, schema_validator)
    with pytest.raises(PlanFormatError, match="tcp is not a list"):
        validate_plan_document(null_tcp)

    # sample each role in the format (list indices folded) equally often, so
    # the thousands of joint and pose numbers do not crowd out the structure
    by_role = {}
    for path in doc_paths(doc):
        role = tuple("#" if isinstance(step, int) else step for step in path)
        by_role.setdefault(role, []).append(path)
    roles = list(by_role.values())
    rng = random.Random(base)
    tally = {}
    mismatches = []
    for _ in range(count):
        mutated, edit = mutate(doc, rng.choice(rng.choice(roles)), rng)
        try:
            oracle_validate(mutated, schema_validator)
            expected = "accept"
        except PlanFormatError:
            expected = "reject"
        except TypeError:
            # the schema let a tcp-data subprocess through with "tcp": null
            assert has_null_tcp(mutated), edit
            expected = "crash"
        try:
            validate_plan_document(mutated)
            got = "accept"
        except PlanFormatError:
            got = "reject"
        tally[expected, got] = tally.get((expected, got), 0) + 1
        if got != expected and (expected, got) != ("crash", "reject"):
            mismatches.append((edit, expected, got))
    assert not mismatches, mismatches[:5]
    assert tally.get(("accept", "accept"), 0) >= count // 10, tally
    assert tally.get(("reject", "reject"), 0) >= count // 2, tally

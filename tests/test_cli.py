"""Command line entry points and exit codes."""

import copy
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trusspath
from trusspath import cli
from trusspath.cli import main
from trusspath.fixtures import load_bundled_model, load_bundled_robot
from trusspath.postprocess import load_plan
from trusspath.truss import serialize_model

CFG_DOC = {"direction_count": 24, "rotation_samples": 2}


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.json"
    path.write_text(json.dumps(CFG_DOC))
    return str(path)


@pytest.fixture(scope="module")
def plan_file(tmp_path_factory, cfg_file):
    out = tmp_path_factory.mktemp("cli_plan") / "plan.json"
    rc = main([
        "plan", "--model", "cube", "--robot", "arm",
        "--config", cfg_file, "--out", str(out),
    ])
    assert rc == 0
    return out


def common(cfg_file):
    return ["--model", "cube", "--robot", "arm", "--config", cfg_file]


def test_plan_then_validate(plan_file, cfg_file, capsys):
    doc = json.loads(plan_file.read_text())
    assert doc["version"] == "1" and len(doc["tasks"]) == 23
    rc = main(["validate", *common(cfg_file), "--plan", str(plan_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("format", "fingerprints", "continuity", "clearance", "structure"):
        assert name in out


def test_validate_flags_tampering(plan_file, cfg_file, tmp_path, capsys):
    doc = json.loads(plan_file.read_text())
    doc["tasks"][1]["subprocesses"][2]["joints"][1][3] += 0.4
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    rc = main(["validate", *common(cfg_file), "--plan", str(bad)])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out


def test_validate_rejects_malformed_file(cfg_file, tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["validate", *common(cfg_file), "--plan", str(garbage)]) == 3
    missing = tmp_path / "missing.json"
    assert main(["validate", *common(cfg_file), "--plan", str(missing)]) == 3
    capsys.readouterr()


def test_validate_reports_malformed_plans(plan_file, cfg_file, tmp_path, capsys):
    doc = json.loads(plan_file.read_text())
    doc["tasks"][0]["subprocesses"][1]["tcp"] = None
    null_tcp = tmp_path / "null_tcp.json"
    null_tcp.write_text(json.dumps(doc))
    assert main(["validate", *common(cfg_file), "--plan", str(null_tcp)]) == 3
    assert "tcp is not a list" in capsys.readouterr().err

    doc = json.loads(plan_file.read_text())
    doc["tasks"][5]["element_id"] = 999
    unknown = tmp_path / "unknown_element.json"
    unknown.write_text(json.dumps(doc))
    assert main(["validate", *common(cfg_file), "--plan", str(unknown)]) == 3
    out = capsys.readouterr().out
    assert "structure" in out and "elements [999] are not in the model" in out

    doc = json.loads(plan_file.read_text())
    doc["tasks"][1]["element_id"] = doc["tasks"][0]["element_id"]
    repeated = tmp_path / "repeated_element.json"
    repeated.write_text(json.dumps(doc))
    assert main(["validate", *common(cfg_file), "--plan", str(repeated)]) == 3
    out = capsys.readouterr().out
    assert "structure" in out and f"repeated elements [{doc['tasks'][0]['element_id']}]" in out

    doc = json.loads(plan_file.read_text())
    doc["dof"] -= 1
    for t in doc["tasks"]:
        for s in t["subprocesses"]:
            s["joints"] = [row[:-1] for row in s["joints"]]
    short = tmp_path / "short_rows.json"
    short.write_text(json.dumps(doc))
    assert main(["validate", *common(cfg_file), "--plan", str(short)]) == 3
    out = capsys.readouterr().out
    assert "dof" in out and "plan has 5 joints, robot has 6" in out


@pytest.mark.parametrize("value", [10**400, float("nan"), float("-inf")], ids=["huge", "nan", "-inf"])
@pytest.mark.parametrize("field", ["joints", "tcp"])
def test_validate_rejects_non_finite_plan_numbers(
    plan_file, cfg_file, tmp_path, capsys, field, value
):
    doc = json.loads(plan_file.read_text())
    extrusion = doc["tasks"][2]["subprocesses"][2]
    if field == "joints":
        extrusion["joints"][1][4] = value
    else:
        extrusion["tcp"][1]["origin"][0] = value
    bad = tmp_path / "bad_number.json"
    bad.write_text(json.dumps(doc))  # NaN, -Infinity and the long integer as such
    assert main(["validate", *common(cfg_file), "--plan", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: plan document rejected") and len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["model", "robot"])
@pytest.mark.parametrize("value", ["480", True], ids=["string", "bool"])
def test_non_numbers_in_input_documents_exit_4(tmp_path, capsys, kind, value):
    if kind == "model":
        doc = serialize_model(load_bundled_model("cube"))
        doc["nodes"][4]["xyz"][0] = value
    else:
        doc = copy.deepcopy(load_bundled_robot("arm").source)
        doc["dh"][1]["a"] = value
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    names = {"model": "cube", "robot": "arm", kind: str(path)}
    rc = main(["sequence", "--model", names["model"], "--robot", names["robot"]])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "is not a number" in err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("model", "nodes", 5),
        ("model", "elements", None),
        ("robot", "base_pose", 5),
        ("robot", "tool", [1]),
        ("robot", "home", "x"),
    ],
    ids=["nodes-number", "elements-null", "base_pose-number", "tool-list", "home-string"],
)
def test_wrong_shaped_blocks_in_input_documents_exit_4(tmp_path, capsys, kind, key, value):
    if kind == "model":
        doc = serialize_model(load_bundled_model("cube"))
    else:
        doc = copy.deepcopy(load_bundled_robot("arm").source)
    doc[key] = value
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    names = {"model": "cube", "robot": "arm", kind: str(path)}
    rc = main(["stats", "--model", names["model"], "--robot", names["robot"]])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"'{key}'" in err


def test_bad_inputs_exit_code(cfg_file, tmp_path, capsys):
    rc = main(["sequence", "--model", "no-such-model", "--robot", "arm"])
    assert rc == 4
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"direction_count": 2}))
    rc = main(["sequence", "--model", "cube", "--robot", "arm", "--config", str(bad_cfg)])
    assert rc == 4
    capsys.readouterr()


def test_sequence_timeout_exit_code(cfg_file, tmp_path, capsys):
    out = tmp_path / "seq.json"
    rc = main([
        "sequence", *common(cfg_file), "--timeout", "1e-9", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "layered (aborted)" in captured.out
    assert captured.err.startswith("error: sequence search exceeded")


def test_plan_timeout_prints_the_aborted_table(cfg_file, tmp_path, capsys):
    out = tmp_path / "plan.json"
    argv = ["plan", *common(cfg_file), "--timeout", "1e-9", "--collision-cost"]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "layered+coll-cost (aborted)" in captured.out
    assert captured.err.startswith("error: sequence search exceeded")


def test_sequence_then_motion_matches_plan(plan_file, cfg_file, tmp_path, capsys):
    seq = tmp_path / "seq.json"
    rc = main(["sequence", *common(cfg_file), "--out", str(seq)])
    assert rc == 0
    assert "layered" in capsys.readouterr().out
    plan2 = tmp_path / "plan2.json"
    rc = main([
        "motion", *common(cfg_file),
        "--from-sequence", str(seq), "--out", str(plan2),
    ])
    assert rc == 0
    assert plan2.read_bytes() == plan_file.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        "[]",
        json.dumps({"direction_count": 24, "stats": {}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"bogus": 1}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"probe_reuses": 0}}),
        json.dumps({"direction_count": 24.5, "tasks": [], "stats": {}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"backtracks": "many"}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"backtracks": -1}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"backtracks": 2.5}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"backtracks": True}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"total_time": -0.5}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"total_time": float("nan")}}),
        json.dumps({"direction_count": 24, "tasks": [], "stats": {"total_time": "1.0"}}),
    ],
    ids=[
        "missing", "invalid-json", "not-an-object", "no-tasks", "unknown-stats-key",
        "retired-stats-key", "fractional-direction-count", "string-count",
        "negative-count", "fractional-count", "bool-count", "negative-time", "nan-time",
        "string-time",
    ],
)
def test_motion_rejects_bad_sequence_files(cfg_file, tmp_path, capsys, content):
    seq = tmp_path / "seq.json"
    if content is not None:
        seq.write_text(content)
    out = tmp_path / "plan.json"
    rc = main(["motion", *common(cfg_file), "--from-sequence", str(seq), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def sequence_doc(tmp_path_factory, cfg_file):
    out = tmp_path_factory.mktemp("cli_sequence") / "seq.json"
    assert main(["sequence", *common(cfg_file), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "kind, message",
    [
        ("drop", "missing elements [22]"),
        ("repeat", "repeated elements [0]"),
        ("unknown", "unknown elements [999]"),
    ],
    ids=["drop", "repeat", "unknown"],
)
def test_motion_rejects_a_sequence_that_does_not_cover_the_model(
    sequence_doc, cfg_file, tmp_path, capsys, kind, message
):
    doc = copy.deepcopy(sequence_doc)
    tasks = doc["tasks"]
    if kind == "drop":
        tasks[:] = [t for t in tasks if t["element"] != 22]
    else:
        extra = dict(next(t for t in tasks if t["element"] == 0), position=len(tasks))
        tasks.append(extra if kind == "repeat" else dict(extra, element=999))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "plan.json"
    capsys.readouterr()
    rc = main(["motion", *common(cfg_file), "--from-sequence", str(seq), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sequence does not cover the model: ")
    assert len(err.splitlines()) == 1 and message in err
    assert not out.exists()


def test_motion_rejects_a_direction_off_its_lattice_index(sequence_doc, cfg_file, tmp_path, capsys):
    doc = copy.deepcopy(sequence_doc)
    doc["tasks"][0]["direction"] = [-v for v in doc["tasks"][0]["direction"]]
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "plan.json"
    capsys.readouterr()
    rc = main(["motion", *common(cfg_file), "--from-sequence", str(seq), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: task 0: stored direction does not match index ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "utf16-bom"])
def test_unreadable_inputs_give_one_error_line(cfg_file, tmp_path, capsys, kind):
    if kind == "directory":
        bad = tmp_path / "input"
        bad.mkdir()
    else:
        bad = tmp_path / "input.json"
        bad.write_bytes(b"\xff\xfe")
    out = tmp_path / "out.json"
    cases = [
        # a plan file that cannot be read exits 3, as a missing one does
        (["validate", *common(cfg_file), "--plan", str(bad)], 3),
        (["motion", *common(cfg_file), "--from-sequence", str(bad), "--out", str(out)], 4),
        (["sequence", "--model", "cube", "--robot", "arm", "--config", str(bad)], 4),
        (["sequence", "--model", str(bad), "--robot", "arm", "--out", str(out)], 4),
        (["sequence", "--model", "cube", "--robot", str(bad), "--out", str(out)], 4),
    ]
    for argv, want in cases:
        assert main(argv) == want, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_output_path_is_checked_before_planning(cfg_file, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("plan_sequence", "run_pipeline", "discretize_element", "read_document"):
        monkeypatch.setattr(cli, name, no_work)
    seq = tmp_path / "seq.json"
    seq.write_text("{}")
    missing = tmp_path / "nodir"
    for argv in (
        ["plan"], ["sequence"], ["motion", "--from-sequence", str(seq)], ["export-geometry"],
    ):
        assert main([*argv, *common(cfg_file), "--out", str(missing / "out.json")]) == 4
        err = capsys.readouterr().err
        assert err == f"error: output directory does not exist: {missing}\n"
    assert main(["sequence", *common(cfg_file), "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"error: output path is a directory: {tmp_path}\n"


@pytest.mark.parametrize("command", ["plan", "sequence", "motion", "export-geometry"])
def test_failed_write_gives_one_error_line(
    plan_file, cfg_file, tmp_path, capsys, monkeypatch, command
):
    seq = tmp_path / "seq.json"
    seq.write_text("{}")
    # stand-ins for the planning work; the write is what is under test
    monkeypatch.setattr(cli, "run_pipeline", lambda *_, **__: (load_plan(plan_file), None))
    monkeypatch.setattr(cli, "sequence_from_dict", lambda doc: None)

    def disk_full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", disk_full)
    out = tmp_path / "out.json"
    extra = ["--from-sequence", str(seq)] if command == "motion" else []
    assert main([command, *common(cfg_file), *extra, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


def test_export_geometry(cfg_file, tmp_path, capsys):
    out = tmp_path / "geometry.json"
    rc = main(["export-geometry", *common(cfg_file), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"model", "waypoints", "robot"}
    assert len(doc["waypoints"]) == 23
    for cap in doc["robot"]["ee_capsules"]:
        assert set(cap) == {"a", "b", "radius"}
    assert doc["robot"]["dof"] == 6
    capsys.readouterr()


def test_stats_reports_aborted_run(cfg_file, capsys):
    rc = main(["stats", *common(cfg_file), "--timeout", "1e-9"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "aborted" in captured.out
    assert "error" in captured.err


BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})


@pytest.mark.skipif(
    "DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
    reason="numpy is not linked to a DYNAMIC_ARCH OpenBLAS: OPENBLAS_CORETYPE selects nothing",
)
def test_plan_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # the cube at 24 directions x 2 rolls with the wall-clock guards raised,
    # planned under the BLAS kernel OpenBLAS picks for this CPU and under
    # Haswell's (on a CPU whose own pick is Haswell the two runs coincide).
    # numpy's own CPU dispatch (NPY_DISABLE_CPU_FEATURES) is still expected
    # to change the plan through the IK's arctan2/arccos (open in ROADMAP
    # item 4), so that switch is not compared here
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        **CFG_DOC,
        "kinematics_timeout": 600.0,
        "transition": {"direct_timeout": 600.0, "fallback_timeout": 600.0},
    }))
    src = str(Path(trusspath.__file__).resolve().parents[1])
    plans = []
    for coretype in (None, "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / f"plan-{coretype}.json"
        subprocess.run(
            [sys.executable, "-m", "trusspath.cli", "plan", *common(str(cfg)), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        plans.append(out.read_bytes())
    assert plans[0] == plans[1]

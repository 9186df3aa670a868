"""The benchmark's tracer against the library it wraps.

`perfbench/tracer.py` replaces traced functions by name in every trusspath
module that binds them.  A traced name that is renamed or deleted would
otherwise break only a `--trace 1` benchmark run; these tests break first.
A traced function that a round never calls is as bad: its extra counters
(`plan_retraction.fallbacks`, for one) then drop out of the traced result
line, so the traced benchmark runs here too and its line is checked against
the per-layer names `BENCHMARK.json` declares.
"""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trusspath
from trusspath import kinematics
from trusspath.fixtures import load_bundled_robot
from trusspath.geometry import pose_from_direction, sample_directions
from trusspath.kinematics import CapsuleSet, fk_frames

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every trusspath module binding each traced function; the tracer wraps the
# function in each of them, so a call through any of them is counted
BOUND = {
    "segment_distance_batch": {"geometry"},
    "ee_element_collision": {"geometry"},
    "ee_self_collision": {"geometry"},
    "ik_sweep": {"kinematics"},
    "config_collides_batch": {"kinematics", "pipeline", "transition"},
    "analyze": {"pipeline", "sequence", "structural"},
    "prepare_tasks": {"cartesian", "pipeline"},
    "expand_and_search": {"cartesian", "pipeline"},
    "build_rungs": {"cartesian", "kinematics"},
    "chain_search": {"cartesian"},
    "extract_block_path": {"cartesian", "pipeline"},
    "plan_retraction": {"cartesian", "pipeline"},
    "plan_transition": {"pipeline", "transition"},
    "rrt_connect": {"transition"},
    "shortcut": {"transition"},
    "tcp_entries": {"pipeline", "postprocess"},
    "save_plan": {"", "cli", "postprocess"},
    "plan_sequence": {"", "cli", "pipeline", "sequence"},
    "run_pipeline": {"", "cli", "pipeline"},
    "validate_plan": {"", "cli", "pipeline"},
}


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def bound_names(tracer_module):
    """Every (module, name) binding of a traced function, with its value."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and name.startswith("trusspath.")
    ]
    names = {func for _, func, _ in tracer_module.TRACED}
    return {
        (m.__name__, func): getattr(m, func)
        for m in modules
        for func in names
        if hasattr(m, func)
    }


def test_tracer_counts_through_its_wrappers_and_restores_the_originals(monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    for layer, func, _ in tracer_module.TRACED:
        assert callable(getattr(sys.modules[f"trusspath.{layer}"], func)), func
    before = bound_names(tracer_module)
    original_sweep = kinematics.ik_sweep

    robot = load_bundled_robot("arm")
    frame = fk_frames(robot, robot.home)[-1]
    configs = np.array([robot.home, robot.home])
    tracer = tracer_module.Tracer(trusspath)
    tracer.install()
    try:
        assert kinematics.ik_sweep is not original_sweep
        assert kinematics.ik_sweep.__wrapped__ is original_sweep
        families = kinematics.ik_sweep(robot, frame[:3, :3], frame[:3, 3][None])
        hits = kinematics.config_collides_batch(
            robot, configs, CapsuleSet(()), clearance=2.0
        )
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    assert metrics["kinematics.ik_sweep.calls"] == 1
    assert metrics["kinematics.ik_sweep.poses"] == 1
    assert metrics["kinematics.ik_sweep.solutions"] == len(families[0]) > 0
    assert metrics["kinematics.config_collides_batch.calls"] == 1
    assert metrics["kinematics.config_collides_batch.configs"] == 2
    assert metrics["kinematics.config_collides_batch.capsule_tests"] > 0
    assert hits.shape == (2,)
    # nothing else ran under the tracer but what those two calls made
    assert metrics["pipeline.run_pipeline.calls"] == 0

    after = bound_names(tracer_module)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_counts_a_batched_rung_build_per_pose(monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    robot = load_bundled_robot("arm")
    tip = fk_frames(robot, robot.home)[-1][:3, 3]
    waypoints = tip + np.linspace(0.0, 30.0, 4)[:, None] * np.array([0.0, 1.0, 0.0])
    directions = sample_directions(24)
    orientations = [(directions[a], roll) for a in (0, 3, 11) for roll in (0.0, 2.0)]
    tracer = tracer_module.Tracer(trusspath)
    tracer.install()
    try:
        built = kinematics.build_rungs_batch(
            robot, [waypoints] * len(orientations), orientations, CapsuleSet(()), clearance=2.0
        )
    finally:
        tracer.uninstall()

    families = [
        kinematics.ik_sweep(robot, pose_from_direction(waypoints[0], d, r)[:3, :3], waypoints)
        for d, r in orientations
    ]
    reached = [all(len(f) for f in fams) for fams in families]
    metrics = tracer.metrics()
    assert len(built) == len(orientations)
    assert metrics["kinematics.ik_sweep.calls"] == 1
    assert metrics["kinematics.ik_sweep.poses"] == len(orientations) * len(waypoints)
    assert metrics["kinematics.ik_sweep.solutions"] == sum(
        len(f) for fams in families for f in fams
    )
    assert metrics["kinematics.config_collides_batch.calls"] == 1
    assert metrics["kinematics.config_collides_batch.configs"] == sum(
        len(f) for fams, ok in zip(families, reached) if ok for f in fams
    )
    assert any(reached) and any(rungs is not None for rungs in built)


def test_every_traced_name_is_bound_where_the_tracer_expects_it(monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    modules = {"": trusspath} | {
        info.name: importlib.import_module(f"trusspath.{info.name}")
        for info in pkgutil.iter_modules(trusspath.__path__)
    }
    bound = {}
    for layer, func, _ in tracer_module.TRACED:
        original = getattr(modules[layer], func)
        bound[func] = {name for name, m in modules.items() if getattr(m, func, None) is original}
    assert bound == BOUND


def strict_json(line):
    """`json.loads` that refuses NaN and Infinity, as a strict reader would."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_round_reports_every_per_layer_metric(workload):
    run = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert "FAIL:" not in run.stderr
    result = strict_json(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}

"""trusspath benchmark: plan one workload end to end and check the plan.

Run from the repository root:

    python3 perfbench/run.py --workload cube-dense --seed 1 --seconds 1 --trace 0

After set-up (imports, model, robot and config), one round calls the
public API in the order a `trusspath plan` user meets it: `plan_sequence`,
`run_pipeline(..., sequence=...)`, `save_plan`, then `validate_plan` on the
plan read back from its file, then the independent checks in `checker.py`
and the two cost identities.  Rounds repeat until `--seconds` have been measured; a round of
either workload takes far longer than that, so a run is one round.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` every traced layer function is wrapped (see `tracer.py`) and the
line holds the per-layer metrics instead.  An operation is one model
element: it fails unless it has a task in a plan that passed every check.
Plans, result records and traces go to `perfbench/out/`.
"""

from __future__ import annotations

import os
import time


def _seconds_since_process_start() -> float:
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "trusspath" / "data"
OUT = HERE / "out"

# Planner config overrides per workload.  The seed only names the run: both
# workloads are fixed inputs with the planner seed pinned, because the
# program promises one byte-identical plan per input and every run of a
# workload is checked against that promise.  The wall-clock guards (2 s per
# feasibility probe, 5 s and 10 s per transition search) would let a slow or
# busy machine change the plan, so they are set far above any measured call;
# the iteration caps still bound every search.
NO_WALL_CLOCK = {"kinematics_timeout": 600.0}
NO_WALL_CLOCK_TRANSITION = {"direct_timeout": 600.0, "fallback_timeout": 600.0}
WORKLOADS = {
    "cube-dense": {},  # defaults: 72 directions x 16 rolls
    "cube-sparse": {"direction_count": 24, "rotation_samples": 2},
}
MODEL = "cube_23.json"
ROBOT = "kr6_like.json"
COST_TOLERANCE = 1e-9  # relative, recomputed cost vs the planner's own total
# validate_plan takes under a second, and single calls in one process vary by
# up to 50% on a shared machine; its metric is the median of this many calls
VALIDATE_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "sequence_s": "s",
    "motion_s": "s",
    "validate_s": "s",
    "plan_s": "s",
    "cartesian_cost": "rad",
    "transition_cost": "rad",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _make_config(trusspath, workload: str):
    transition = trusspath.TransitionSettings(**NO_WALL_CLOCK_TRANSITION)
    config = trusspath.PlannerConfig(
        **NO_WALL_CLOCK, **WORKLOADS[workload], transition=transition
    )
    config.validate()
    return config


def _code_digest(config) -> str:
    """SHA-256 of trusspath's sources and data files and the planner config:
    one plan is promised per value."""
    h = hashlib.sha256()
    package = SRC / "trusspath"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    h.update(json.dumps(dataclasses.asdict(config), sort_keys=True).encode())
    return h.hexdigest()


def _record_hash(workload: str, code: str, digest: str) -> str | None:
    """Compare with the hash an earlier run of this workload and code recorded.

    The first run of a code version in a checkout records it, so every later
    run of the same code must give the same plan; delete the file to start
    over.  Returns an error message when the plans differ.
    """
    path = OUT / f"{workload}-{code[:16]}.sha256"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return f"plan sha256 {digest} differs from the recorded {recorded}"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return None


def _round(trusspath, checker, inputs, plan_path, validate_repeats) -> dict:
    """Plan, save, re-read, validate and check once; times and findings."""
    model, robot, config, model_doc, robot_doc = inputs
    out: dict = {"errors": [], "failed_checks": []}
    clock = time.perf_counter
    try:
        t0 = clock()
        sequence = trusspath.plan_sequence(model, robot, config)
        t1 = clock()
        plan, report = trusspath.run_pipeline(model, robot, config, sequence=sequence)
        t2 = clock()
        trusspath.save_plan(plan, plan_path)
        t3 = clock()
        reread = trusspath.load_plan(plan_path)
        validate_times = []
        for _ in range(validate_repeats):
            t4 = clock()
            verdict = trusspath.validate_plan(reread, model, robot, config)
            validate_times.append(clock() - t4)
    except Exception:  # a stage that raises fails every element
        out["errors"].append(traceback.format_exc())
        return out
    out["times"] = {
        "sequence_s": t1 - t0,
        "motion_s": t2 - t1,
        "plan_s": t3 - t0,
        "validate_s": statistics.median(validate_times),
    }
    out["sequence_stats"] = sequence.stats.as_dict()
    out["report"] = {
        "capsules_built": report.capsules_built,
        "capsules_attempted": report.capsules_attempted,
        "cartesian_cost": report.cartesian_cost,
        "transition_cost": report.transition_cost,
        "transition_via_home": report.transition_via_home,
    }

    raw = plan_path.read_bytes()
    doc = json.loads(raw)
    out["plan_bytes"] = len(raw)
    out["sha256"] = hashlib.sha256(raw).hexdigest()
    failed = out["failed_checks"]
    failed += [f"validate_plan {c.name}: {c.detail}" for c in verdict.checks if not c.passed]
    failed += checker.check_plan(doc, model_doc, robot_doc, config.jump_limit)

    costs = {
        "cartesian_cost": checker.cartesian_cost(doc, robot_doc),
        "transition_cost": checker.transition_cost(doc, robot_doc),
    }
    for name, value in costs.items():
        claimed = out["report"][name]
        if abs(value - claimed) > COST_TOLERANCE * max(abs(claimed), 1.0):
            failed.append(f"{name}: plan file gives {value!r}, planner reported {claimed!r}")
    out["costs"] = costs
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "trusspath" / "__init__.py").is_file():
        print(f"error: no trusspath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trusspath

    import checker

    model_doc = json.loads((DATA / MODEL).read_text())
    robot_doc = json.loads((DATA / ROBOT).read_text())
    model = trusspath.load_model(model_doc)
    robot = trusspath.load_robot(robot_doc)
    config = _make_config(trusspath, args.workload)
    setup_s = _seconds_since_process_start()
    inputs = (model, robot, config, model_doc, robot_doc)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan_path = OUT / f"plan-{tag}.json"
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(trusspath)
        tracer.install()

    rounds = []
    started = time.perf_counter()
    while True:
        # a traced run validates once, so its layer counts cover one call
        repeats = 1 if tracer else VALIDATE_REPEATS
        rounds.append(_round(trusspath, checker, inputs, plan_path, repeats))
        if time.perf_counter() - started >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    n_elements = len(model.elements)
    failed = 0
    correct = True
    code = _code_digest(config)
    for r in rounds:
        if "sha256" in r:
            mismatch = _record_hash(args.workload, code, r["sha256"])
            if mismatch:
                r["failed_checks"].append(mismatch)
        if r["errors"] or r["failed_checks"]:
            failed += n_elements
        if r["failed_checks"]:
            correct = False
        for msg in r["errors"] + r["failed_checks"]:
            print(f"FAIL: {msg}", file=sys.stderr)

    done = [r for r in rounds if "times" in r]
    if tracer is None:
        metrics = {"setup_s": setup_s}
        if done:
            for key in ("sequence_s", "motion_s", "validate_s", "plan_s"):
                metrics[key] = statistics.median(r["times"][key] for r in done)
            for key in ("cartesian_cost", "transition_cost"):
                metrics[key] = statistics.median(r["costs"][key] for r in done)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {name: END_TO_END_UNITS[name] for name in metrics}
    else:
        metrics = _layer_metrics(tracer, done, len(rounds))
        units = {name: _layer_unit(name) for name in metrics}
        tracer.write(OUT / f"trace-{tag}.json")

    result = {
        "correct": correct,
        "attempted": n_elements * len(rounds),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        rounds=rounds,
        machine={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "code_sha256": code,
        },
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if done:
        r = done[-1]
        print(f"workload {args.workload}: {n_elements} elements, plan sha256 {r['sha256']}")
        print("stages [s]: " + ", ".join(f"{k} {v:.2f}" for k, v in r["times"].items()))
    print(json.dumps(result))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("plan_bytes"):
        return "bytes"
    if name.endswith("yield"):
        return "ratio"
    return "count"


def _layer_metrics(tracer, done: list[dict], rounds: int) -> dict[str, float]:
    """Per-round layer totals: traced functions, search and stage reports."""
    metrics = {k: v / rounds for k, v in sorted(tracer.metrics().items())}
    if done:
        n = len(done)
        for key in (
            "partial_states",
            "backtracks",
            "stiffness_checks",
            "kinematics_checks",
            "ee_update_pair_checks",
        ):
            metrics[f"sequence.{key}"] = sum(r["sequence_stats"][key] for r in done) / n
        for key in ("capsules_built", "capsules_attempted"):
            metrics[f"cartesian.{key}"] = sum(r["report"][key] for r in done) / n
        # orientation blocks that yielded a capsule, per block tried
        metrics["cartesian.capsule_yield"] = (
            metrics["cartesian.capsules_built"] / metrics["cartesian.capsules_attempted"]
        )
        metrics["postprocess.plan_bytes"] = sum(r["plan_bytes"] for r in done) / n
        # traced plan_s minus the untraced one is the tracing overhead
        metrics["trace.plan_s"] = statistics.median(r["times"]["plan_s"] for r in done)
    return metrics


if __name__ == "__main__":
    sys.exit(main())

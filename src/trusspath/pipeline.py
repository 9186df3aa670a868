"""End-to-end planning and independent plan validation.

`run_pipeline` chains the stages: order the elements, pick orientation
blocks and joint paths for every extrusion pass, wrap each pass in approach
and depart slides, and stitch free-space transitions between them, starting
from the robot's home configuration.  The output is the fingerprinted plan
document, a plain dict that `save_plan` writes as it is, plus a stage
report.  Every pass, slide and transition is planned inside a prefix of one
scene, the sequence's whole build order (`CapsuleSet.prefix`).

`validate_plan` is the independent half: it takes a plan document plus the
model, robot, and configuration, and re-derives every claim the plan makes
(format, fingerprints, continuity, joint validity, tool consistency,
clearance, structural admissibility, each pass starting at a built node)
without consulting any planner state.  Planner bugs show up here as failed
checks, not as exceptions.  The tool poses are recomputed with one
forward-kinematics call per task.  Every joint row's clearance is tested
against its own prefix of one scene, the plan's whole build order: the
depart of task k sees the first k + 1 elements, every other subprocess of
task k the first k.  The rows of all subprocesses are stacked and cut into
robot-collision queries of at most `CLEARANCE_ROWS` rows.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .cartesian import (
    SLIDES,
    expand_and_search,
    extract_block_path,
    plan_retraction,
    prepare_tasks,
    rebuild_picks,
)
from .config import PlannerConfig
from .geometry import ee_sweep_collision_batch
from .kinematics import RobotModel, config_collides_batch, fk_frames_batch
from .postprocess import (
    PLAN_VERSION,
    SUBPROCESS_TYPES,
    PlanFormatError,
    fingerprint,
    seam_gaps,
    tcp_entries,
    validate_plan_document,
)
from .sequence import SearchStats, SequenceResult, plan_sequence
from .structural import PartialStructure, analyze, check_stability, check_stiffness
from .transition import plan_transition
from .truss import TrussModel, serialize_model

SEAM_TOLERANCE = 1e-9
TCP_TOLERANCE = 1e-6
LIMIT_TOLERANCE = 1e-9
# Most joint rows one clearance query of the validator takes; bounds the
# query's temporaries however long the plan is.
CLEARANCE_ROWS = 128


class PipelineError(Exception):
    pass


# ---------------------------------------------------------------------------
# fingerprints


def input_fingerprints(
    model: TrussModel, robot: RobotModel, config: PlannerConfig
) -> dict:
    return {
        "model": fingerprint(serialize_model(model)),
        "robot": fingerprint(robot.source),
        "config": fingerprint(config.to_dict()),
    }


# ---------------------------------------------------------------------------
# planning


@dataclass
class PipelineReport:
    """The motion stages' times and totals; the sequence row reads the
    search's own stats, and the total row sums the three stage rows."""

    sequence_stats: SearchStats
    cartesian_time: float = 0.0
    transition_time: float = 0.0
    capsules_built: int = 0
    capsules_attempted: int = 0
    cartesian_cost: float = 0.0
    transition_count: int = 0
    transition_via_home: int = 0
    transition_cost: float = 0.0
    # retraction slides replaced by a one-row segment at the pass end
    retraction_fallbacks: int = 0

    def table(self) -> str:
        s = self.sequence_stats
        total = s.total_time + self.cartesian_time + self.transition_time
        rows = [
            (
                "sequence",
                s.total_time,
                f"{s.partial_states} states, {s.backtracks} backtracks",
            ),
            (
                "cartesian",
                self.cartesian_time,
                f"{self.capsules_built}/{self.capsules_attempted} capsules, "
                f"joint cost {self.cartesian_cost:.3f}, "
                f"{self.retraction_fallbacks} retraction fallbacks",
            ),
            (
                "transitions",
                self.transition_time,
                f"{self.transition_count} moves, "
                f"{self.transition_via_home} via home, "
                f"joint cost {self.transition_cost:.3f}",
            ),
            ("total", total, f"{4 * self.transition_count} subprocesses"),
        ]
        width = max(len(r[0]) for r in rows)
        lines = [f"{'stage':<{width}} | {'time [s]':>9} | detail"]
        lines.append("-" * len(lines[0]))
        for name, t, detail in rows:
            lines.append(f"{name:<{width}} | {t:9.2f} | {detail}")
        return "\n".join(lines)


def _coverage(model: TrussModel, order: list[int]) -> dict[str, str]:
    """What keeps `order` from listing every model element exactly once:
    "missing", "repeated" and "unknown" ids, each kind present only if any."""
    known = {e.id for e in model.elements}
    counts = Counter(order)
    found = {
        "missing": sorted(known - counts.keys()),
        "repeated": sorted(eid for eid, n in counts.items() if n > 1),
        "unknown": sorted(counts.keys() - known),
    }
    return {what: f"{what} elements {ids}" for what, ids in found.items() if ids}


def _subprocess(robot: RobotModel, sid: int, kind: str, rows: np.ndarray) -> dict:
    """One plan subprocess; every kind but a transition carries tool poses."""
    return {
        "id": sid,
        "kind": kind,
        "data_kind": "joint" if kind == "transition" else "tcp",
        "joints": rows.tolist(),
        "tcp": None if kind == "transition" else tcp_entries(robot, rows),
        "io_anchors": (
            {"extruder_on": 0, "extruder_off": len(rows) - 1} if kind == "extrusion" else None
        ),
    }


def run_pipeline(
    model: TrussModel,
    robot: RobotModel,
    config: PlannerConfig | None = None,
    sequence: SequenceResult | None = None,
) -> tuple[dict, PipelineReport]:
    """Plan `model` end to end; returns the plan document and a stage report."""
    config = config or PlannerConfig()
    config.validate()
    if sequence is None:
        sequence = plan_sequence(model, robot, config)
    elif len(sequence.directions) != config.direction_count:
        raise PipelineError(
            f"sequence was planned over {len(sequence.directions)} directions "
            f"but the configuration says {config.direction_count}"
        )
    else:
        problems = "; ".join(_coverage(model, [t.element for t in sequence.tasks]).values())
        if problems:
            raise PipelineError("sequence does not cover the model: " + problems)

    t0 = time.monotonic()
    tasks = prepare_tasks(model, robot, sequence, config)
    sparse = expand_and_search(robot, tasks, config, max_capsules=config.capsule_budget)
    directions = sequence.directions
    rebuilt = rebuild_picks(robot, tasks, sparse.picks, directions, config)
    passes = []  # per task: first and last joint row, Cartesian subprocesses
    fallbacks = 0
    for k, (task, (cap, ei, xi), (rungs, *firsts)) in enumerate(
        zip(tasks, sparse.picks, rebuilt)
    ):
        traj = extract_block_path(robot, task, rungs, ei, xi, config)
        v = directions[cap.direction_index]
        slides = []  # per slide: its path out of the pass, else its anchor row
        for (end, shift), first in zip(SLIDES, firsts):
            out = plan_retraction(
                robot, task.waypoints[end], v, cap.rotation, traj[end],
                task.ordered.prefix(task.prefix + shift), config, directions,
                cap.direction_index, first,
            )
            slides.append(out if out is not None else traj[[end]])
            fallbacks += int(out is None)
        approach, depart = slides[0][::-1], slides[1]
        legs = zip(SUBPROCESS_TYPES[1:], (approach, traj, depart))
        subs = [_subprocess(robot, 4 * k + i, kind, rows) for i, (kind, rows) in enumerate(legs, 1)]
        passes.append((approach[0], depart[-1], subs))
    cart_time = time.monotonic() - t0

    t0 = time.monotonic()
    plan_tasks: list[dict] = []
    prev = robot.home
    trans_cost = 0.0
    via_home = 0
    for k, (task, (start, end, subs)) in enumerate(zip(tasks, passes)):
        move = plan_transition(
            robot, prev, start, task.ordered.prefix(task.prefix), config,
            np.random.default_rng((config.seed, k)),
        )
        trans_cost += move.cost
        via_home += int(move.via_home)
        subs = [_subprocess(robot, 4 * k, SUBPROCESS_TYPES[0], move.path), *subs]
        plan_tasks.append({"task_id": k, "element_id": task.element, "subprocesses": subs})
        prev = end
    trans_time = time.monotonic() - t0

    plan = {
        "version": PLAN_VERSION,
        "fingerprints": input_fingerprints(model, robot, config),
        "dof": robot.dof,
        "tasks": plan_tasks,
    }
    report = PipelineReport(
        sequence_stats=sequence.stats,
        cartesian_time=cart_time,
        transition_time=trans_time,
        capsules_built=sum(len(column) for column in sparse.columns),
        capsules_attempted=sparse.attempted,
        cartesian_cost=sparse.cost,
        transition_count=len(plan_tasks),
        transition_via_home=via_home,
        transition_cost=trans_cost,
        retraction_fallbacks=fallbacks,
    )
    return plan, report


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}} | {status} | {c.detail}")
        return "\n".join(lines)


def _check(report: ValidationReport, name: str, passed: bool, detail: str) -> None:
    report.checks.append(CheckResult(name, passed, detail))


def _transition_probe(rows: np.ndarray, inside: np.ndarray, fine_step: np.ndarray) -> np.ndarray:
    """The configs a transition's clearance is tested at: its rows, each edge
    between two rows within joint limits (`inside`) interpolated at
    `fine_step`.  An edge out of limits is not, so the probe's size is
    bounded by the limits, not by the file."""
    probe = [rows[0]]
    for a, b, ok in zip(rows[:-1], rows[1:], inside[:-1] & inside[1:]):
        n = max(2, int(np.ceil((np.abs(b - a) / fine_step).max())) + 1) if ok else 2
        probe.extend(np.linspace(a, b, n)[1:])
    return np.array(probe)


def validate_plan(
    plan: dict,
    model: TrussModel,
    robot: RobotModel,
    config: PlannerConfig | None = None,
) -> ValidationReport:
    """Re-derive every claim a plan document makes against its inputs.

    `plan` is the document as `run_pipeline` returns it or `load_plan` reads
    it; a malformed one fails the "format" check and nothing else runs.
    """
    config = config or PlannerConfig()
    config.validate()
    report = ValidationReport()

    try:
        validate_plan_document(plan)
        _check(report, "format", True, f"{len(plan['tasks'])} tasks, well-formed")
    except PlanFormatError as exc:
        _check(report, "format", False, str(exc))
        return report  # nothing else is trustworthy

    expected = input_fingerprints(model, robot, config)
    mismatched = [k for k in expected if plan["fingerprints"].get(k) != expected[k]]
    _check(
        report,
        "fingerprints",
        not mismatched,
        "model, robot, config all match" if not mismatched
        else "mismatch: " + ", ".join(mismatched),
    )

    # every later check reads joint rows as robot configurations
    if plan["dof"] != robot.dof:
        _check(report, "dof", False, f"plan has {plan['dof']} joints, robot has {robot.dof}")
        return report

    # reconstruct numeric views once, in document order: (task index,
    # subprocess, joint rows); ids are labels, not keys
    tasks = plan["tasks"]
    subs = [
        (k, s, np.array(s["joints"], dtype=float))
        for k, t in enumerate(tasks)
        for s in t["subprocesses"]
    ]

    # continuity: seams and the home start
    worst_gap = max(gap for _, _, gap in seam_gaps(plan))
    first = subs[0][2][0]
    home_gap = float(np.abs(first - robot.home).max())
    ok = worst_gap <= SEAM_TOLERANCE and home_gap <= SEAM_TOLERANCE
    _check(
        report,
        "continuity",
        ok,
        f"worst seam {worst_gap:.2e}, home offset {home_gap:.2e}",
    )

    # joint validity: limits everywhere, jump limits inside tcp subprocesses
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)
    within = [  # per subprocess, which rows are within joint limits
        ((rows >= robot.lower - LIMIT_TOLERANCE) & (rows <= robot.upper + LIMIT_TOLERANCE)).all(1)
        for _, _, rows in subs
    ]
    bad_limit = sum(int((~inside).sum()) for inside in within)
    bad_jump = 0
    for _, s, rows in subs:
        if s["data_kind"] == "tcp" and rows.shape[0] > 1:
            step = np.abs(np.diff(rows, axis=0))
            bad_jump += int((step > limits + LIMIT_TOLERANCE).any(axis=1).sum())
    _check(
        report,
        "joint validity",
        bad_limit == 0 and bad_jump == 0,
        f"{bad_limit} rows out of limits, {bad_jump} oversized steps",
    )

    # the remaining checks look each task's element up in the model
    order = [t["element_id"] for t in tasks]
    problems = _coverage(model, order)
    if "unknown" in problems:
        _check(report, "structure", False, problems["unknown"] + " are not in the model")
        return report

    # tool consistency: forward kinematics must reproduce the tcp data (one
    # call per task over its three tcp subprocesses) and each extrusion must
    # span exactly its element
    worst_tcp = 0.0
    coverage_errors = []
    spans = {}  # per task: its extrusion's tcp origins
    for k, group in groupby(subs, key=lambda sub: sub[0]):
        group = [(s, rows) for _, s, rows in group if s["data_kind"] == "tcp"]
        frames = fk_frames_batch(robot, np.concatenate([rows for _, rows in group]))[:, -1]
        poses = [e for s, _ in group for e in s["tcp"]]
        origins = np.array([e["origin"] for e in poses])
        zaxes = np.array([e["zaxis"] for e in poses])
        rots = np.array([e["rotation"] for e in poses])
        worst_tcp = max(
            worst_tcp,
            float(np.abs(frames[:, :3, 3] - origins).max()),
            float(np.abs(frames[:, :3, 2] - zaxes).max()),
            float(np.abs(frames[:, :3, :3] - rots).max()),
        )
        stop = 0
        for s, rows in group:
            stop += len(rows)
            if s["kind"] != "extrusion":
                continue
            spans[k] = origins[stop - len(rows):stop]
            t = tasks[k]
            elem = model.element(t["element_id"])
            a = model.node(elem.start).position
            b = model.node(elem.end).position
            length = float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
            expect_rows = int(np.ceil(length / config.path_spacing)) + 1
            ends = spans[k][[0, -1]]
            fwd = max(
                float(np.abs(ends[0] - a).max()), float(np.abs(ends[1] - b).max())
            )
            rev = max(
                float(np.abs(ends[0] - b).max()), float(np.abs(ends[1] - a).max())
            )
            if min(fwd, rev) > TCP_TOLERANCE:
                coverage_errors.append(
                    f"task {t['task_id']} does not span element {elem.id}"
                )
            if len(rows) != expect_rows:
                coverage_errors.append(
                    f"task {t['task_id']} has {len(rows)} waypoints, "
                    f"expected {expect_rows}"
                )
    _check(
        report,
        "tool consistency",
        worst_tcp <= TCP_TOLERANCE and not coverage_errors,
        f"worst pose error {worst_tcp:.2e}"
        + ("" if not coverage_errors else "; " + "; ".join(coverage_errors)),
    )

    # clearance: rebuild the scene of the plan's own order and test every
    # subprocess's rows against their prefix of it (statics are implicit):
    # task k's transition, approach and extrusion see the elements placed
    # before it, its depart also its own element.  The robot's capsules
    # include the extruder's on the tool frame, so this also tests the
    # extruder against every placed element at the pose the joints reach
    radius = model.section.radius
    ratio = config.prismatic_jump_limit / config.jump_limit
    fine_step = 0.5 * config.transition.step * robot.jump_limits(1.0, ratio)
    probes = [
        _transition_probe(rows, inside, fine_step) if s["kind"] == "transition" else rows
        for (_, s, rows), inside in zip(subs, within)
    ]
    seen = np.repeat(
        [k + (s["kind"] == "retraction-depart") for k, s, _ in subs],
        [len(probe) for probe in probes],
    )
    configs, scene = np.concatenate(probes), model.scene(order)
    hits = np.concatenate([
        config_collides_batch(
            robot, configs[i : i + CLEARANCE_ROWS], scene,
            clearance=config.clearance, upto=seen[i : i + CLEARANCE_ROWS],
        )
        for i in range(0, len(configs), CLEARANCE_ROWS)
    ])
    stops = np.cumsum([len(probe) for probe in probes])
    colliding = [int(h.sum()) for h in np.split(hits, stops[:-1])]  # per subprocess
    collision_errors = []
    for (k, s, _), inside, count in zip(subs, within, colliding):
        if s["kind"] == "transition" and not inside.all():
            collision_errors.append(f"subprocess {s['id']} (transition): not probed past limits")
        if count:
            collision_errors.append(
                f"subprocess {s['id']} ({s['kind']}): {count} colliding configs"
            )
        if s["kind"] == "extrusion":
            # the bead grows from the first waypoint; the tool keeps the
            # pass's own rotation, roll included
            rotation = np.array(s["tcp"][0]["rotation"])
            if ee_sweep_collision_batch(
                spans[k][1:], rotation[None], spans[k][0], spans[k][1:],
                radius, robot.ee, config.clearance,
            )[0, 0]:
                collision_errors.append(
                    f"subprocess {s['id']}: extruder body crosses its own bead"
                )
    _check(
        report,
        "clearance",
        not collision_errors,
        "all subprocesses clear the partial structure"
        if not collision_errors
        else "; ".join(collision_errors[:4]),
    )

    # structural admissibility of the element order; an order that lists an
    # element twice has no prefixes to check
    built_nodes = {n.id for n in model.nodes if n.grounded}
    placed: list[int] = []
    structure_errors = []
    if problems:
        structure_errors.append("plan does not cover the model: " + "; ".join(problems.values()))
    for t in tasks if "repeated" not in problems else []:
        elem = model.element(t["element_id"])
        # the route rule: a pass starts at a node that already exists
        first = next(s["tcp"][0]["origin"] for s in t["subprocesses"] if s["kind"] == "extrusion")
        built_ends = [model.node(n).position for n in (elem.start, elem.end) if n in built_nodes]
        if not built_ends:
            structure_errors.append(
                f"task {t['task_id']}: element {elem.id} touches no built node"
            )
        elif min(np.abs(np.subtract(first, p)).max() for p in built_ends) > TCP_TOLERANCE:
            structure_errors.append(f"task {t['task_id']}: extrusion starts at an unbuilt node")
        placed.append(elem.id)
        built_nodes.update((elem.start, elem.end))
        partial = PartialStructure(model, tuple(placed))
        result = analyze(partial)
        if not check_stiffness(partial, config.displacement_tolerance, result=result):
            structure_errors.append(
                f"task {t['task_id']}: prefix deflection exceeds "
                f"{config.displacement_tolerance} mm"
            )
        if not check_stability(partial, result=result):
            structure_errors.append(f"task {t['task_id']}: prefix is unstable")
    _check(
        report,
        "structure",
        not structure_errors,
        "every prefix connected, stiff, and stable"
        if not structure_errors
        else "; ".join(structure_errors[:4]),
    )

    return report

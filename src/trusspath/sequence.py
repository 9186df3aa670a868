"""Extrusion sequence search.

The planner assigns one truss element to each build slot so that every prefix
of the sequence is printable: the new element touches the structure built so
far (or the ground), the partial structure stays stiff and stable under its
own weight, and at least one end-effector direction with a reachable,
collision-free tool orientation survives for the element.

Feasible tool directions are tracked per element as bitsets over a fixed
direction set.  Placing an element prunes the bitsets of its unassigned
peers (two elements close to each other shadow each other's approach cones),
which both detects dead ends early and feeds the optional look-ahead value
ordering.  With layer decomposition enabled, the search runs layer by layer
and never backtracks across a finished layer; a layer that cannot be
completed aborts the whole search, which keeps worst-case behaviour bounded
at the cost of completeness across layers.

Every check on a candidate is a function of the placed set alone: the
element's bitset is its self-clear union minus the blocks of the placed
elements (undo restores it exactly), the route's start node follows from
per-node counts, the collision verdicts against the placed scene do not depend
on its order, and the candidate order depends only on the remaining set.
So a placed set whose level runs out of candidates fails the same way
however it is reached again; the search records such dead sets (nogood
recording) and refuses any placement that would reach one.  This holds only
up to summation order for a stiffness verdict within rounding of the
tolerance, because `analyze` scatter-adds the frame table's element rows in
placement order.  The probe's wall-clock guard only aborts the search, so no
timer decides an answer.

The kinematic probe asks, per (direction, roll) orientation, what
`build_rungs` against the placed elements would: does every waypoint keep
an IK row free of collisions.  Its parts change at different rates, so the
planner keeps a memo per orientation (element, route start, direction,
roll).  The IK rows, and their verdict against the workcell statics and the
robot itself, depend only on the robot, the waypoints and the tool
rotation, so they are solved once; an orientation with a waypoint left
without a clear row is remembered as unreachable.  Whether a row meets a
placed element depends only on that element, and the collision query's
verdict is an OR over such pair decisions, so the memo keeps a (rows,
elements) contact matrix whose column is filled the first time its element
is seen placed.  Every later probe of the orientation gathers the placed
columns: it runs no IK, no forward kinematics and no statics or self pass,
and answers as `build_rungs` would, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

import numpy as np

from .config import PlannerConfig, finite, integer
from .geometry import (
    EEGeometry,
    GeometryError,
    ee_sweep_collision_batch,
    sample_directions,
    tool_rotations,
)
from .kinematics import RobotModel, clear_rows, obstacle_contacts
from .structural import PartialStructure, analyze, check_stability, check_stiffness
from .truss import TrussModel, discretize_element

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


class SequencePlanningError(Exception):
    """No printable ordering was found within the search rules.

    Carries the search counters accumulated up to the failure so callers can
    still report how much work was done (`stats` attribute, may be None).
    """

    def __init__(self, message: str, stats: "SearchStats | None" = None):
        super().__init__(message)
        self.stats = stats


class SequenceFormatError(Exception):
    """A sequence document that is not shaped like `sequence_to_dict`'s output."""


@dataclass(frozen=True)
class SequenceTask:
    """One build slot: its position is its index in `SequenceResult.tasks`
    and its direction is `directions[direction_index]`."""

    element: int
    direction_index: int
    rotation: float
    start_node: int


@dataclass
class SearchStats:
    """Accounting for one sequence search, one row of the summary table."""

    total_time: float = 0.0
    partial_states: int = 0
    backtracks: int = 0
    stiffness_time: float = 0.0
    stiffness_checks: int = 0
    kinematics_time: float = 0.0
    kinematics_checks: int = 0
    ee_update_time: float = 0.0
    ee_update_checks: int = 0
    ee_update_pair_checks: int = 0
    collision_cost_time: float = 0.0
    collision_cost_checks: int = 0
    # placements undone at once because they emptied a peer's direction set
    refused_placements: int = 0
    # candidates skipped because placing them reaches a dead placed set
    dead_refusals: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


_TABLE_COLUMNS = (
    "total [s]",
    "states",
    "stiff+stab [s|n]",
    "kinematics [s|n]",
    "ee-update [s|n]",
    "coll-cost [s|n]",
)


def render_stats_table(rows: list[tuple[str, SearchStats]]) -> str:
    """Fixed six-column summary, one line per labelled run."""
    label_w = max([len(r[0]) for r in rows] + [4])
    header = " | ".join([f"{'run':<{label_w}}"] + [f"{c:>18}" for c in _TABLE_COLUMNS])
    sep = "-" * len(header)
    lines = [header, sep]
    for label, s in rows:
        cells = [
            f"{s.total_time:18.2f}",
            f"{s.partial_states:18d}",
            f"{s.stiffness_time:10.2f}|{s.stiffness_checks:7d}",
            f"{s.kinematics_time:10.2f}|{s.kinematics_checks:7d}",
            f"{s.ee_update_time:10.2f}|{s.ee_update_checks:7d}",
            f"{s.collision_cost_time:10.2f}|{s.collision_cost_checks:7d}",
        ]
        lines.append(" | ".join([f"{label:<{label_w}}"] + cells))
    return "\n".join(lines)


@dataclass
class SequenceResult:
    tasks: list[SequenceTask]
    stats: SearchStats
    directions: np.ndarray  # the (m, 3) direction lattice
    # the search's sweep table, for task preparation to reuse; never saved
    sweeps: SweepTable | None = field(default=None, compare=False, repr=False)


def sequence_to_dict(result: SequenceResult) -> dict:
    return {
        "direction_count": len(result.directions),
        "tasks": [
            {
                "position": position,
                "element": t.element,
                "direction_index": t.direction_index,
                "direction": result.directions[t.direction_index].tolist(),
                "rotation": t.rotation,
                "start_node": t.start_node,
            }
            for position, t in enumerate(result.tasks)
        ],
        "stats": result.stats.as_dict(),
    }


def sequence_from_dict(doc: dict) -> SequenceResult:
    """Rebuild a sequence result; direction indices are re-resolved against
    the deterministic direction lattice.  A document not shaped like
    `sequence_to_dict`'s output, or holding a fraction where an integer
    belongs, a non-finite direction or rotation, a direction that disagrees
    with its index, a position that is not the task's index in the list, or
    a stats count or time that is not a non-negative number, raises
    `SequenceFormatError`."""
    try:
        directions = sample_directions(integer(doc["direction_count"]))
        tasks = []
        for position, t in enumerate(doc["tasks"]):
            if integer(t["position"]) != position:
                raise SequenceFormatError(
                    f"task {position}: stored position {t['position']} is not "
                    "its place in the task list"
                )
            index = integer(t["direction_index"])
            if not 0 <= index < len(directions):
                raise IndexError(f"direction index {index} is off the lattice")
            direction = tuple(finite(v) for v in t["direction"])
            if np.abs(directions[index] - direction).max() > 1e-9:
                raise SequenceFormatError(
                    f"task {position}: stored direction does not match "
                    f"index {index} of a {len(directions)}-direction lattice"
                )
            tasks.append(
                SequenceTask(
                    element=integer(t["element"]),
                    direction_index=index,
                    rotation=finite(t["rotation"]),
                    start_node=integer(t["start_node"]),
                )
            )
        stats = SearchStats(**doc.get("stats", {}))
        for f in fields(stats):
            read = integer if isinstance(f.default, int) else finite
            value = read(getattr(stats, f.name))
            if value < 0:
                raise ValueError(f"stats {f.name} {value!r} is negative")
            setattr(stats, f.name, value)
    except KeyError as exc:
        raise SequenceFormatError(f"sequence document missing {exc}") from exc
    except (TypeError, ValueError, IndexError, GeometryError) as exc:
        raise SequenceFormatError(f"bad sequence document: {exc}") from exc
    return SequenceResult(tasks, stats, directions)


def rotation_sequence(count: int) -> np.ndarray:
    """Low-discrepancy roll angles: 0 first, then golden-ratio steps."""
    k = np.arange(count)
    return 2.0 * math.pi * np.mod(k * GOLDEN_FRACTION, 1.0)


# Path points per sweep-kernel call: the table splits a stacked request into
# groups of at most this many, so a fill's memory does not grow with the model.
SWEEP_GROUP_POINTS = 256


class SweepTable:
    """Which lattice directions let the extruder sweep an element, cached.

    This is the one answer to "can the extruder print element e along
    direction a" that sequencing and Cartesian task preparation share.  A
    placed element's block does not depend on the travel direction, so pair
    blocks use the element's route from its lower-id node; the self mask
    does depend on it and is cached per route.  Entries are computed on
    first use: a request for many entries stacks the paths of its misses
    and fills them with one sweep-kernel call per `SWEEP_GROUP_POINTS`
    path points.
    """

    def __init__(
        self,
        model: TrussModel,
        ee: EEGeometry,
        directions: np.ndarray,
        config: PlannerConfig,
    ):
        self.model = model
        self.ee = ee
        self.config = config
        # the sweep is posed at roll 0, whatever roll a pass is planned at
        self._rotations = tool_rotations(directions, 0.0)
        self._paths: dict[tuple[int, int], np.ndarray] = {}
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        self._self: dict[tuple[int, int], np.ndarray] = {}

    def serves(
        self, model: TrussModel, ee: EEGeometry, directions: np.ndarray, config: PlannerConfig
    ) -> bool:
        """Whether this table answers for the given inputs as a fresh one would."""
        return (
            self.model is model
            and self.ee == ee
            and len(self._rotations) == len(directions)
            and self.config.path_spacing == config.path_spacing
            and self.config.clearance == config.clearance
        )

    def waypoints(self, element_id: int, start_node: int) -> np.ndarray:
        key = (element_id, start_node)
        if key not in self._paths:
            self._paths[key] = discretize_element(
                self.model, element_id, self.config.path_spacing, start_node=start_node
            )
        return self._paths[key]

    def pair_blocks(self, pairs: list[tuple[int, int]]) -> list[np.ndarray]:
        """Per (element, placed element) pair, the directions of the element
        whose sweep hits the placed one."""
        jobs = {}
        for key in pairs:
            if key not in self._blocks:
                e = self.model.element(key[0])
                pts = self.waypoints(key[0], min(e.start, e.end))
                jobs[key] = (pts, *self.model.element_segment(key[1]))
        self._blocks.update(zip(jobs, self._hits(list(jobs.values()))))
        return [self._blocks[key] for key in pairs]

    def self_masks(self, routes: list[tuple[int, int]]) -> list[np.ndarray]:
        """Per (element, start node) route, the directions whose extruder
        body clears the element's own fresh bead."""
        jobs = {}
        for key in routes:
            if key not in self._self:
                pts = self.waypoints(*key)
                jobs[key] = (pts[1:], pts[0], pts[1:])
        self._self.update(zip(jobs, ~self._hits(list(jobs.values()))))
        return [self._self[key] for key in routes]

    def self_mask(self, element_id: int, start_node: int) -> np.ndarray:
        return self.self_masks([(element_id, start_node)])[0]

    def _hits(self, jobs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
        """(len(jobs), m) sweep hits of (path, q0, q1) jobs, stacked and cut
        into groups of `SWEEP_GROUP_POINTS` points; a job cut in two gets
        the union of its parts."""
        hit = np.zeros((len(jobs), len(self._rotations)), dtype=bool)
        if not jobs:
            return hit
        points = np.concatenate([pts for pts, _, _ in jobs])
        owner = np.repeat(np.arange(len(jobs)), [len(pts) for pts, _, _ in jobs])
        q0, q1 = (
            np.concatenate([np.broadcast_to(job[i], job[0].shape) for job in jobs])
            for i in (1, 2)
        )
        radius, clearance = self.model.section.radius, self.config.clearance
        for start in range(0, len(points), SWEEP_GROUP_POINTS):
            group = slice(start, start + SWEEP_GROUP_POINTS)
            first = owner[group][0]
            part = ee_sweep_collision_batch(
                points[group], self._rotations, q0[group], q1[group],
                radius, self.ee, clearance, owner=owner[group] - first,
            )
            hit[first : first + len(part)] |= part
        return hit


class SequencePlanner:
    def __init__(self, model: TrussModel, robot: RobotModel, config: PlannerConfig):
        config.validate()
        self.model = model
        self.robot = robot
        self.config = config
        self.directions = sample_directions(config.direction_count)
        self.stats = SearchStats()
        self._ids = [e.id for e in model.elements]
        self._index = {eid: k for k, eid in enumerate(self._ids)}
        self.sweeps = SweepTable(model, robot.ee, self.directions, config)
        # the reference route's waypoints, read by criterion 4's oracle
        self._waypoints = self.sweeps.waypoints
        self._rotations = rotation_sequence(config.rotation_samples)
        m = len(self.directions)
        self._domain = np.ones((len(self._ids), m), dtype=bool)
        self._placed: list[int] = []
        self._placed_mask = 0  # bit self._index[eid] set while eid is placed
        self._dead: set[int] = set()  # placed masks whose level ran out
        self._grounded = {n.id for n in model.nodes if n.grounded}
        self._touching = {n.id: 0 for n in model.nodes}  # placed elements per node
        self._tasks: list[SequenceTask] = []
        # every element's capsule in model order, the probe's obstacles
        self._elements = model.scene(self._ids)
        # per probed orientation (element index, start node, direction
        # index, roll index): None, or (owner, posed, contacts, known)
        self._reach: dict[tuple[int, int, int, int], tuple | None] = {}

    @property
    def _scene(self):
        """The placed elements' capsules; the workcell statics are implicit."""
        return self.model.scene(self._placed)

    def _exists(self, node_id: int) -> bool:
        return node_id in self._grounded or self._touching[node_id] > 0

    def _start_node(self, element_id: int) -> int:
        """Where the pass starts: an existing end (grounded or touched), so
        fresh material bonds to something; then the end more placed elements
        touch; ties go to the lower id."""
        e = self.model.element(element_id)
        return max(
            (e.start, e.end), key=lambda n: (self._exists(n), self._touching[n], -n)
        )

    # -- constraint stages ---------------------------------------------------

    def _connect_ok(self, element_id: int) -> bool:
        e = self.model.element(element_id)
        return self._exists(e.start) or self._exists(e.end)

    def _structural_ok(self, element_id: int) -> bool:
        t0 = time.monotonic()
        partial = PartialStructure(self.model, tuple(self._placed + [element_id]))
        result = analyze(partial)
        ok = check_stiffness(
            partial, self.config.displacement_tolerance, result=result
        ) and check_stability(partial, result=result)
        self.stats.stiffness_time += time.monotonic() - t0
        self.stats.stiffness_checks += 1
        return ok

    def _ee_pose_exists(self, element_id: int) -> tuple[int, float] | None:
        """First (direction index, roll) with reachable waypoints, or None.

        Directions come from the element's maintained bitset, which already
        encodes sweep collisions against everything placed.  Rolls follow the
        low-discrepancy sequence.  Each orientation is decided by `_clear`
        from its memo entry, as `build_rungs` against the placed elements
        would decide it.  A probe running past the kinematics timeout aborts
        the search rather than answer "infeasible", so the answer never
        depends on the machine's speed; the guard is read before each
        orientation, so an abort leaves every memo entry whole.
        """
        self.stats.kinematics_checks += 1
        t0 = time.monotonic()
        k = self._index[element_id]
        start = self._start_node(element_id)
        row = self._domain[k] & self.sweeps.self_mask(element_id, start)
        pts = self.sweeps.waypoints(element_id, start)
        placed = np.array([self._index[p] for p in self._placed], dtype=int)
        try:
            for a in np.flatnonzero(row).tolist():
                for j, rot in enumerate(self._rotations.tolist()):
                    if time.monotonic() - t0 > self.config.kinematics_timeout:
                        raise SequencePlanningError(
                            f"feasibility probe for element {element_id} exceeded "
                            f"kinematics_timeout ({self.config.kinematics_timeout:g}s)",
                            stats=self.stats,
                        )
                    if self._clear((k, start, a, j), pts, placed):
                        return a, rot
            return None
        finally:
            self.stats.kinematics_time += time.monotonic() - t0

    def _clear(self, key: tuple[int, int, int, int], pts: np.ndarray, placed: np.ndarray) -> bool:
        """Whether orientation `key` has a collision-free IK row at every
        waypoint of its route `pts` with the elements at model indices
        `placed` built.

        The orientation's first probe stores `clear_rows`'s answer: None if
        it can never succeed, else its rows' waypoints and posed capsules,
        with an empty (rows, elements) contact matrix.  A probe then fills
        the columns of the placed elements no earlier probe asked for, from
        the model-ordered scene, and gathers: a row is free when no placed
        element's column marks it.  That is `build_rungs`'s verdict, since
        its collision query decides each (row, obstacle) pair on its own.
        """
        if key not in self._reach:
            _, _, a, j = key
            rotation = tool_rotations(self.directions[a], self._rotations[j])[0]
            rows = clear_rows(self.robot, pts, rotation, self.config.clearance)
            if rows is not None:
                owner, posed = rows
                e = len(self._ids)
                rows = (owner, posed, np.zeros((len(owner), e), bool), np.zeros(e, bool))
            self._reach[key] = rows
        entry = self._reach[key]
        if entry is None:
            return False
        owner, posed, contacts, known = entry
        missing = placed[~known[placed]]
        if missing.size:
            contacts[:, missing] = obstacle_contacts(
                self.robot, posed, self._elements.take(missing), self.config.clearance
            )
            known[missing] = True
        free = ~contacts[:, placed].any(axis=1)
        return bool(np.bincount(owner[free], minlength=len(pts)).all())

    # -- domain maintenance ---------------------------------------------------

    def _prune_against(self, element_ids: list[int], placed_id: int) -> list[tuple[int, np.ndarray]]:
        """Clear directions of `element_ids` blocked by `placed_id`; return undo."""
        t0 = time.monotonic()
        self.stats.ee_update_checks += 1
        undo = []
        blocks = self.sweeps.pair_blocks([(eid, placed_id) for eid in element_ids])
        for eid, block in zip(element_ids, blocks):
            row = self._domain[self._index[eid]]
            self.stats.ee_update_pair_checks += 1
            cleared = np.flatnonzero(row & block)
            if cleared.size:
                row[cleared] = False
                undo.append((self._index[eid], cleared))
        self.stats.ee_update_time += time.monotonic() - t0
        return undo

    # -- value ordering ---------------------------------------------------------

    def _order_values(self, peers: list[int]) -> list[int]:
        """`peers` in trial order: first the one whose placement leaves the
        other peers the most directions."""
        if not self.config.collision_cost_ordering:
            return sorted(peers)
        t0 = time.monotonic()
        scored = []
        for eid in peers:
            self.stats.collision_cost_checks += 1
            others = [p for p in peers if p != eid]
            survive = 0
            for oid, block in zip(others, self.sweeps.pair_blocks([(o, eid) for o in others])):
                row = self._domain[self._index[oid]]
                survive += int(np.count_nonzero(row & ~block))
            scored.append((-survive, eid))
        scored.sort()
        self.stats.collision_cost_time += time.monotonic() - t0
        return [eid for _, eid in scored]

    # -- search -------------------------------------------------------------------

    def plan(self) -> SequenceResult:
        t_start = time.monotonic()
        try:
            return self._search(t_start + self.config.search_timeout)
        finally:
            self.stats.total_time = time.monotonic() - t_start

    def _search(self, deadline: float) -> SequenceResult:
        # an element's printable directions can never leave the union of its
        # two routes' self-clear sets, so start the bitsets there
        elements = [self.model.element(eid) for eid in self._ids]
        masks = self.sweeps.self_masks([(e.id, n) for e in elements for n in (e.start, e.end)])
        for eid, first, second in zip(self._ids, masks[::2], masks[1::2]):
            union = first | second
            self._domain[self._index[eid]] &= union
            if not union.any():
                raise SequencePlanningError(
                    f"element {eid} has no extrusion direction clear of its "
                    "own bead",
                    stats=self.stats,
                )

        if self.config.use_decomposition:
            groups = [
                sorted(e.id for e in self.model.elements if e.layer == layer)
                for layer in self.model.layers()
            ]
        else:
            groups = [sorted(self._ids)]

        for gi, group in enumerate(groups):
            for pid in self._placed:  # committed layers are never undone
                self._prune_against(group, pid)
            # depth-first search on an explicit stack: one frame per placed
            # element holds its level's untried candidates and its undo record
            remaining = set(group)
            stack: list[tuple[Iterator[int], int, tuple]] = []
            candidates = None
            while remaining:
                if candidates is None:  # a level starts
                    if time.monotonic() > deadline:
                        raise SequencePlanningError(
                            f"sequence search exceeded {self.config.search_timeout:.0f}s",
                            stats=self.stats,
                        )
                    candidates = iter(self._order_values(sorted(remaining)))
                eid = next(candidates, None)
                if eid is None:  # dead end: undo the placement one level up
                    self._dead.add(self._placed_mask)
                    if not stack:
                        raise SequencePlanningError(
                            f"no printable ordering for element group {gi} "
                            f"({len(group)} elements, {self.stats.backtracks} backtracks)",
                            stats=self.stats,
                        )
                    candidates, eid, record = stack.pop()
                    self._unplace(eid, record, remaining)
                    self.stats.backtracks += 1
                    continue
                if (self._placed_mask | 1 << self._index[eid]) in self._dead:
                    self.stats.dead_refusals += 1
                    continue
                if not (self._connect_ok(eid) and self._structural_ok(eid)):
                    continue
                witness = self._ee_pose_exists(eid)
                if witness is None:
                    continue
                record = self._place(eid, witness, remaining)
                if record is not None:  # else a peer lost its last direction
                    stack.append((candidates, eid, record))
                    candidates = None
        return SequenceResult(list(self._tasks), self.stats, self.directions, self.sweeps)

    def _place(self, eid, witness, remaining):
        start = self._start_node(eid)
        self._placed.append(eid)
        self._placed_mask |= 1 << self._index[eid]
        remaining.discard(eid)
        self._touch(eid, 1)
        undo = self._prune_against(sorted(remaining), eid)
        self._tasks.append(SequenceTask(eid, *witness, start))
        record = (undo,)  # [0]: the direction bits this placement cleared
        for oid in remaining:
            if not self._domain[self._index[oid]].any():
                self._unplace(eid, record, remaining)
                self.stats.refused_placements += 1
                return None
        self.stats.partial_states += 1
        return record

    def _unplace(self, eid, record, remaining):
        for idx, cols in record[0]:
            self._domain[idx, cols] = True
        self._placed.pop()
        self._placed_mask &= ~(1 << self._index[eid])
        remaining.add(eid)
        self._tasks.pop()
        self._touch(eid, -1)

    def _touch(self, eid, step):
        """Add `step` to the placed-element count of both of `eid`'s ends."""
        e = self.model.element(eid)
        self._touching[e.start] += step
        self._touching[e.end] += step


def plan_sequence(
    model: TrussModel, robot: RobotModel, config: PlannerConfig | None = None
) -> SequenceResult:
    cfg = config or PlannerConfig()
    return SequencePlanner(model, robot, cfg).plan()

"""Joint trajectories for the extrusion passes.

Every task (one element, in build order) needs a joint path visiting its
waypoints under a constant tool orientation.  The search space is organised
as a ladder: waypoints are rungs, IK solutions are the rung vertices, and
jump-limited joint moves connect consecutive rungs.  Orientations cannot
change mid-pass, so each feasible (direction, roll) pair forms its own
independent block of the ladder.

Materialising the full ladder for every orientation of every task is the
baseline ("full graph") and it is enormous; `estimate_full_graph_size` puts
numbers on that.  The production path instead summarises each block as a
*capsule*: its first-rung configs, last-rung configs, and the matrix of
optimal interior costs between them (computed while the rungs are in memory,
then discarded).  A chain search over capsules with boundary joint-distance
edges then finds the same optimum the full ladder would, at a tiny fraction
of the memory, and a budgeted sampler (`expand_and_search`) builds the
capsule set: a larger budget never makes the answer worse.

Every shortest path here is one kernel: `_minplus` relaxes costs over one
rung of edges and keeps back-pointers, `_ladder` applies it rung by rung and
`_walk_back` follows the pointers.  Block path extraction (from a one-hot
start), the chain search, the full-graph baseline and the retraction slides
(from their one-config anchor rung) all run on it, so ties always go to the
lowest index and an earlier capsule.  Capsule matrices need no pointers:
`_inner_cost_matrices` relaxes the identity starts of many blocks at once,
padded to one stack (`_relax_stack`), and each matrix is bit-equal to its
own `_ladder` run.  `LADDER_CELLS` bounds a stack's temporaries, so a block
too wide for it (a rail arm's rungs) relaxes one step and one start row at
a time.  Every step cost comes from `_step_costs`, which computes
a rung pair's joint differences once and takes both the weighted distance
and the jump mask from them.

Every rung comes from `kinematics.build_rungs_batch`.  Every scene of the
stage is a prefix of one build order, so a task carries that one ordered
scene and its prefix length, and orientations of many tasks share a call,
each against its own prefix.  The capsule sampler runs in rounds: each round
takes every open task's next chunk of at most `CANDIDATE_CHUNK` candidates,
and the round's chunks are stacked into calls of at most `STACK_ORIGINS` IK
origins; the capsules of each call are summarised together
(`capsules_from_rungs`).  The picked blocks' rungs and the first choice of
every retraction slide are rebuilt the same way (`rebuild_picks`); a slide
tries its other directions one `build_rungs` call each, only when its first
choice fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PlannerConfig
from .geometry import sample_directions
from .kinematics import CapsuleSet, RobotModel, build_rungs, build_rungs_batch
from .sequence import SequenceResult, SweepTable, rotation_sequence
from .truss import TrussModel

_INF = float("inf")
# Most orientation candidates a task hands the capsule sampler per round.  A
# chunk never exceeds the task's remaining capsule budget, so the capsules
# built are those of one candidate per call.
CANDIDATE_CHUNK = 6
# Most IK origins (waypoints over all orientations) one stacked
# `build_rungs_batch` call takes.  Bounds the sweep's and the collision
# query's temporaries however many tasks a round stacks.
STACK_ORIGINS = 256
# Most padded cells one temporary of a capsule-ladder relaxation holds.  A
# stack takes blocks while one relaxation step of it (blocks x start rows x
# configs x configs) fits; it then takes its step costs and its start rows
# as many steps and rows at a time as blocks x configs x configs cells fit
# into this, at least one, so a block wider than the cap alone relaxes one
# step and one start row at a time.  A bundled-cube call needs at most 448
# cells a step, so the cap never splits one there.  Sized by planning a
# one-story `bracing_tower` with the bundled arm on a -500..500 mm rail: at
# its default 10 mm step (rungs of up to 307 configs) caps of 2^12 to 2^16
# relax every block in 19-21 s with a 12 MB peak in the kernel and 2^18 in
# 23-25 s; at a 100 mm step (up to 34 configs) 2^14 takes 0.14-0.16 s, as the
# per-block ladders did, and 2^12, 2^16 and 2^18 0.17-0.23 s.
LADDER_CELLS = 1 << 14


class CartesianPlanningError(Exception):
    pass


class MemoryBudgetError(CartesianPlanningError):
    """Full ladder graph would not fit the configured vertex budget."""


# ---------------------------------------------------------------------------
# task preparation


@dataclass
class TaskSpec:
    """Everything the Cartesian stage needs to know about one extrusion pass."""

    index: int
    element: int
    waypoints: np.ndarray  # (k, 3), routed start first
    direction_indices: list[int]  # sweep-feasible against the placed prefix
    preferred_direction: int
    preferred_rotation: float
    # the whole build order's scene, one object shared by every task
    # (collision tests add the workcell statics); this pass sees its first
    # `prefix` elements, the ones placed before it
    ordered: CapsuleSet
    prefix: int


def prepare_tasks(
    model: TrussModel,
    robot: RobotModel,
    sequence: SequenceResult,
    config: PlannerConfig,
) -> list[TaskSpec]:
    """Recreate per-task waypoints and feasible direction sets from a
    sequence, with the sequence's one ordered scene.

    Reuses the sequence search's sweep table when it was built for the same
    model, extruder, lattice, path spacing and clearance."""
    sweeps = sequence.sweeps
    if sweeps is None or not sweeps.serves(model, robot.ee, sequence.directions, config):
        sweeps = SweepTable(model, robot.ee, sequence.directions, config)
    ordered = model.scene([t.element for t in sequence.tasks])
    placed: list[int] = []
    tasks: list[TaskSpec] = []
    masks = sweeps.self_masks([(t.element, t.start_node) for t in sequence.tasks])
    for t, own in zip(sequence.tasks, masks):
        pts = sweeps.waypoints(t.element, t.start_node)
        row = own.copy()
        for block in sweeps.pair_blocks([(t.element, pid) for pid in placed]):
            row &= ~block
        feasible = np.flatnonzero(row).tolist()
        if t.direction_index not in feasible:
            # the sequence stage applies identical gates, so its witness
            # direction must survive; anything else is an internal bug
            raise CartesianPlanningError(
                f"task {t.position}: sequence witness direction "
                f"{t.direction_index} is not sweep-feasible here"
            )
        tasks.append(
            TaskSpec(
                index=t.position,
                element=t.element,
                waypoints=pts,
                direction_indices=feasible,
                preferred_direction=t.direction_index,
                preferred_rotation=t.rotation,
                ordered=ordered,
                prefix=len(placed),
            )
        )
        placed.append(t.element)
    return tasks


# ---------------------------------------------------------------------------
# capsules


@dataclass
class Capsule:
    """Summary of one orientation block of one task's ladder.

    `inner_cost[i, j]` is the cheapest jump-limited interior path from
    first-rung config i to last-rung config j; infinity marks pairs the
    ladder cannot join.  The interior rungs themselves are rebuilt on demand
    (`extract_block_path`) instead of being stored.
    """

    task: int
    direction_index: int
    rotation: float
    entry: np.ndarray  # (k0, dof)
    exit: np.ndarray  # (k1, dof)
    inner_cost: np.ndarray  # (k0, k1)
    waypoints: int

    @property
    def feasible(self) -> bool:
        return bool(np.isfinite(self.inner_cost).any())


def _pair_costs(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted L1 distances between config rows of a (n,dof) and b (m,dof)."""
    diff = np.abs(a[:, None, :] - b[None, :, :]) * weights[None, None, :]
    return diff.sum(axis=2)


def _minplus(cost: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One min-plus relaxation: out[..., j] = min over m of cost[..., m] + step[m, j].

    Returns the relaxed costs and, per target j, the minimising row m.  Ties
    go to the lowest row, which is how every ladder in this module breaks
    them.
    """
    total = cost[..., :, None] + step
    return total.min(axis=-2), total.argmin(axis=-2)


def _step_costs(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, limits: np.ndarray
) -> np.ndarray:
    """Jump-limited move costs from the configs of rung `a` (..., n, dof) to
    those of rung `b` (..., m, dof), shaped (..., n, m): the weighted L1
    distance, or infinity where some joint moves more than its limit."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    np.abs(diff, out=diff)
    jump = (diff > limits).any(axis=-1)
    diff *= weights
    step = diff.sum(axis=-1)
    step[jump] = _INF
    return step


def _ladder(
    cost: np.ndarray, rungs: list[np.ndarray], weights: np.ndarray, limits: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Relax `cost`, shaped (..., len(rungs[0])), through jump-limited moves
    rung by rung.  Returns the last-rung costs and the back-pointers of each
    step (`backs[r - 1]` maps rung r to rung r - 1)."""
    backs = []
    for a, b in zip(rungs, rungs[1:]):
        cost, back = _minplus(cost, _step_costs(a, b, weights, limits))
        backs.append(back)
    return cost, backs


def _walk_back(
    rungs: list[np.ndarray], backs: list[np.ndarray], idx: int
) -> tuple[np.ndarray, int]:
    """The joint path of a 1-D `_ladder` run that ends at config `idx` of the
    last rung, plus the index of its first-rung config."""
    path = [rungs[-1][idx]]
    for rung, back in zip(rungs[-2::-1], backs[::-1]):
        idx = int(back[idx])
        path.append(rung[idx])
    return np.array(path[::-1]), idx


def _unflatten(sizes: list[int], flat: int) -> tuple[int, int]:
    """(block, index within the block) of row `flat` of blocks stacked in order."""
    block = 0
    while flat >= sizes[block]:
        flat -= sizes[block]
        block += 1
    return block, flat


def _relax_stack(
    blocks: list[list[np.ndarray]], weights: np.ndarray, limits: np.ndarray
) -> list[np.ndarray]:
    """The capsule matrices of `blocks`, relaxed from their identity starts
    together as one padded stack.

    Every rung is padded to the widest with configs of 0 and every ladder
    to the longest with identity steps (0 on the diagonal, infinity
    elsewhere).  A step into a padded config costs infinity, so a padded
    config is never reached and its own steps out only add infinite
    candidates to each min; an identity step leaves every cost as it is.
    Each matrix is thus the same min over the same sums as its own ladder's.
    Start rows relax independently, so they are taken in bands; step costs
    are taken in spans of steps (`LADDER_CELLS`).
    """
    lengths = np.array([len(rungs) for rungs in blocks])
    flat = [rung for rungs in blocks for rung in rungs]
    sizes = np.array([len(rung) for rung in flat])
    count, length, width = len(blocks), int(lengths.max()), int(sizes.max())
    # (block, rung, slot) of every config, blocks and rungs in order
    rung = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    at = (
        np.repeat(np.repeat(np.arange(count), lengths), sizes),
        np.repeat(rung, sizes),
        np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes),
    )
    configs = np.zeros((count, length, width, weights.shape[0]))
    configs[at] = np.concatenate(flat)
    real = np.zeros((count, length, width), dtype=bool)
    real[at] = True

    identity = np.where(np.eye(width, dtype=bool), 0.0, _INF)
    rows = max(len(rungs[0]) for rungs in blocks)
    cost = np.repeat(identity[None, :rows], count, axis=0)
    reach = max(1, LADDER_CELLS // (count * width * width))
    for first in range(0, length - 1, reach):
        last = min(first + reach, length - 1)  # steps into rungs first + 1 .. last
        to = slice(first + 1, last + 1)
        step = _step_costs(configs[:, first:last], configs[:, to], weights, limits)
        step[np.broadcast_to(~real[:, to, None, :], step.shape)] = _INF
        step[np.arange(first + 1, last + 1) >= lengths[:, None]] = identity
        for s in range(step.shape[1]):
            for band in range(0, rows, reach):
                part = cost[:, band : band + reach]
                np.min(part[:, :, :, None] + step[:, s, None, :, :], axis=-2, out=part)
    return [cost[b, : len(rungs[0]), : len(rungs[-1])] for b, rungs in enumerate(blocks)]


def _inner_cost_matrices(
    blocks: list[list[np.ndarray]], weights: np.ndarray, limits: np.ndarray
) -> list[np.ndarray]:
    """Per block of rungs: the cheapest jump-limited interior cost from each
    first-rung config to each last-rung config.

    Consecutive blocks are relaxed together (`_relax_stack`) while one
    relaxation step of their padded stack (blocks x start rows x configs x
    configs) holds at most `LADDER_CELLS` cells; a stack takes at least one
    block.
    """
    shapes = [(len(rungs[0]), max(map(len, rungs))) for rungs in blocks]
    out, start = [], 0
    while start < len(blocks):
        stop, (rows, width) = start + 1, shapes[start]
        while stop < len(blocks):
            grown = max(rows, shapes[stop][0]), max(width, shapes[stop][1])
            if (stop + 1 - start) * grown[0] * grown[1] ** 2 > LADDER_CELLS:
                break
            (rows, width), stop = grown, stop + 1
        out += _relax_stack(blocks[start:stop], weights, limits)
        start = stop
    return out


def _inner_cost_matrix(
    rungs: list[np.ndarray], weights: np.ndarray, limits: np.ndarray
) -> np.ndarray:
    """`_inner_cost_matrices` of one block."""
    return _inner_cost_matrices([rungs], weights, limits)[0]


def capsules_from_rungs(
    blocks: list[tuple[int, int, float, list[np.ndarray]]],
    weights: np.ndarray,
    limits: np.ndarray,
) -> list[Capsule | None]:
    """Summarise each (task, direction index, rotation, rungs) orientation
    block, or None where its ladder joins no first-rung config to a
    last-rung one.  The blocks' ladders are relaxed together."""
    inner = _inner_cost_matrices([rungs for *_, rungs in blocks], weights, limits)
    out = []
    for (task, direction_index, rotation, rungs), cost in zip(blocks, inner):
        capsule = Capsule(
            task=task,
            direction_index=direction_index,
            rotation=rotation,
            entry=rungs[0].copy(),
            exit=rungs[-1].copy(),
            inner_cost=cost,
            waypoints=len(rungs),
        )
        out.append(capsule if capsule.feasible else None)
    return out


def _stacked_calls(
    robot: RobotModel,
    scene: CapsuleSet,
    jobs: list[tuple[np.ndarray, np.ndarray, float, int]],
    clearance: float,
):
    """Per `build_rungs_batch` call, the rungs (or None) of each of its
    (waypoints, direction, roll, prefix) jobs against its prefix of the
    ordered `scene`, in job order.  Consecutive jobs share a call up to
    `STACK_ORIGINS` IK origins (a call takes at least one job); calls are
    made as the results are read."""
    start = 0
    while start < len(jobs):
        stop, origins = start + 1, len(jobs[start][0])
        while stop < len(jobs) and origins + len(jobs[stop][0]) <= STACK_ORIGINS:
            origins += len(jobs[stop][0])
            stop += 1
        part = jobs[start:stop]
        yield build_rungs_batch(
            robot, [w for w, _, _, _ in part], [(d, r) for _, d, r, _ in part],
            scene, clearance, upto=[u for _, _, _, u in part],
        )
        start = stop


def _stacked_rungs(
    robot: RobotModel,
    scene: CapsuleSet,
    jobs: list[tuple[np.ndarray, np.ndarray, float, int]],
    clearance: float,
):
    """The rungs (or None) of each job, in job order (`_stacked_calls`)."""
    for call in _stacked_calls(robot, scene, jobs, clearance):
        yield from call


def retraction_points(
    node: np.ndarray, direction: np.ndarray, config: PlannerConfig
) -> np.ndarray:
    """The tip positions of a retraction slide: `retraction_length` out of
    `node` along `direction`, in steps of at most `path_spacing`."""
    length = config.retraction_length
    k = max(1, math.ceil(length / config.path_spacing))
    offsets = np.linspace(length / k, length, k)
    return node[None, :] + direction[None, :] * offsets[:, None]


def rebuild_picks(
    robot: RobotModel,
    tasks: list[TaskSpec],
    picks: list[tuple[Capsule, int, int]],
    directions: np.ndarray,
    config: PlannerConfig,
) -> list[tuple[list[np.ndarray], list[np.ndarray] | None, list[np.ndarray] | None]]:
    """Per task: its picked block's rungs, then the first-choice rungs (or
    None) of its approach and depart slides, all from stacked calls.

    A slide's first choice runs along the pass's own tool direction.  The
    approach leaves the first waypoint among the elements placed before the
    pass; the depart leaves the last one with the pass's element placed.
    """
    jobs = []
    for task, (cap, _, _) in zip(tasks, picks):
        v = directions[cap.direction_index]
        jobs += [
            (task.waypoints, v, cap.rotation, task.prefix),
            (retraction_points(task.waypoints[0], v, config), v, cap.rotation, task.prefix),
            (retraction_points(task.waypoints[-1], v, config), v, cap.rotation, task.prefix + 1),
        ]
    built = list(_stacked_rungs(robot, tasks[0].ordered, jobs, config.clearance)) if tasks else []
    out = []
    for k, task in enumerate(tasks):
        block, approach, depart = built[3 * k : 3 * k + 3]
        if block is None:
            raise CartesianPlanningError(
                f"task {task.index}: chosen orientation block vanished on rebuild"
            )
        out.append((block, approach, depart))
    return out


def extract_block_path(
    robot: RobotModel,
    task: TaskSpec,
    rungs: list[np.ndarray],
    entry_index: int,
    exit_index: int,
    config: PlannerConfig,
) -> np.ndarray:
    """The optimal interior path of a chosen block through its rebuilt rungs
    (`rebuild_picks`), from first-rung config `entry_index` to last-rung
    config `exit_index`.

    Ties are broken towards the lowest rung index so extraction is
    deterministic and always reproduces `inner_cost[entry, exit]`.
    """
    weights = robot.weights
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)

    start = np.full(rungs[0].shape[0], _INF)
    start[entry_index] = 0.0
    cost, backs = _ladder(start, rungs, weights, limits)
    if not np.isfinite(cost[exit_index]):
        raise CartesianPlanningError(
            f"task {task.index}: interior path unreachable on rebuild"
        )
    return _walk_back(rungs, backs, exit_index)[0]


# ---------------------------------------------------------------------------
# chain search over capsule columns


def chain_search(
    columns: list[list[Capsule]],
    weights: np.ndarray,
    home: np.ndarray,
) -> tuple[float, list[tuple[Capsule, int, int]]]:
    """Exact optimum over the explored capsules of a task chain.

    State: (capsule, exit config).  Entering a capsule costs the boundary
    joint distance from the previous exit (home starts the chain), then the
    capsule's own interior matrix.  Returns the total cost and per-task
    (capsule, entry index, exit index) picks.
    """
    if any(len(col) == 0 for col in columns):
        raise CartesianPlanningError("a task has no feasible orientation block")

    # per column, per capsule: (entry back-pointers into the previous
    # column's stacked exits, exit back-pointers into the capsule's entries)
    trail: list[list[tuple[np.ndarray, np.ndarray]]] = []
    exits, cost = home[None, :], np.zeros(1)
    for col in columns:
        costs, links = [], []
        for cap in col:
            entry_cost, entry_from = _minplus(cost, _pair_costs(exits, cap.entry, weights))
            exit_cost, entry_pick = _minplus(entry_cost, cap.inner_cost)
            costs.append(exit_cost)
            links.append((entry_from, entry_pick))
        trail.append(links)
        exits = np.concatenate([cap.exit for cap in col])
        cost = np.concatenate(costs)

    flat = int(np.argmin(cost))
    total = float(cost[flat])
    if not math.isfinite(total):
        raise CartesianPlanningError("no jump-feasible path through the task chain")

    picks: list[tuple[Capsule, int, int]] = []
    for col, links in zip(reversed(columns), reversed(trail)):
        ci, exit_idx = _unflatten([cap.exit.shape[0] for cap in col], flat)
        entry_from, entry_pick = links[ci]
        entry_idx = int(entry_pick[exit_idx])
        picks.append((col[ci], entry_idx, exit_idx))
        flat = int(entry_from[entry_idx])
    picks.reverse()
    return total, picks


@dataclass
class SparseSearchResult:
    cost: float
    picks: list[tuple[Capsule, int, int]]
    columns: list[list[Capsule]]
    built_capsules: int
    attempted: int


def _candidate_grid(task: TaskSpec, rotations: np.ndarray) -> list[tuple[int, float]]:
    cands = [(task.preferred_direction, float(task.preferred_rotation))]
    for a in task.direction_indices:
        for r in rotations:
            pair = (a, float(r))
            if pair != cands[0]:
                cands.append(pair)
    return cands


def expand_and_search(
    robot: RobotModel,
    tasks: list[TaskSpec],
    config: PlannerConfig,
    rng: np.random.Generator | None = None,
    max_capsules: int | None = None,
) -> SparseSearchResult:
    """Capsule exploration followed by the exact chain search.

    Each task walks its own seeded shuffle of (direction, roll) candidates,
    the sequence witness first, until the queue is empty or it has built its
    budget of capsules (default: everything, which makes the result exact
    over all feasible orientation blocks).  Growing the budget can only add
    capsules, so reported cost is monotone non-increasing in the budget.
    The walks advance in rounds, one chunk per open task, and a round's
    chunks are built in stacked calls; each task's chunks, and so its
    column, are those of walking it alone.
    """
    rng = rng or np.random.default_rng(config.seed)
    directions = sample_directions(config.direction_count)
    rotations = rotation_sequence(config.rotation_samples)

    queues = [list(_candidate_grid(t, rotations)) for t in tasks]
    for q in queues:
        rng.shuffle(q)
    # the sequence witness must be attempted first so a plan always exists
    for q, t in zip(queues, tasks):
        w = (t.preferred_direction, float(t.preferred_rotation))
        q.remove(w)
        q.insert(0, w)

    weights = robot.weights
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)
    budgets = [max_capsules if max_capsules is not None else len(q) for q in queues]
    columns: list[list[Capsule]] = [[] for _ in tasks]
    done = [0] * len(tasks)
    while True:
        jobs, owners = [], []
        for i, (task, queue, column) in enumerate(zip(tasks, queues, columns)):
            if done[i] == len(queue) or len(column) == budgets[i]:
                continue
            # a chunk the budget could fill can't overshoot it: every
            # candidate in it would have been attempted one at a time
            chunk = queue[done[i] : done[i] + min(budgets[i] - len(column), CANDIDATE_CHUNK)]
            done[i] += len(chunk)
            jobs += [(task.waypoints, directions[a], rot, task.prefix) for a, rot in chunk]
            owners += [(i, a, rot) for a, rot in chunk]
        if not jobs:
            break
        start = 0
        for call in _stacked_calls(robot, tasks[0].ordered, jobs, config.clearance):
            found = [
                (i, (tasks[i].index, a, rot, rungs))
                for (i, a, rot), rungs in zip(owners[start:], call)
                if rungs is not None
            ]
            start += len(call)
            caps = capsules_from_rungs([block for _, block in found], weights, limits)
            for (i, _), cap in zip(found, caps):
                if cap is not None:
                    columns[i].append(cap)
    attempted = sum(done)

    cost, picks = chain_search(columns, robot.weights, robot.home)
    built = sum(len(column) for column in columns)
    return SparseSearchResult(cost, picks, columns, built, attempted)


# ---------------------------------------------------------------------------
# full ladder graph baseline


def estimate_full_graph_size(
    n_tasks: int,
    waypoints_per_task: int,
    orientation_blocks: int,
    configs_per_rung: int,
    vertex_bytes: int = 64,
    edge_bytes: int = 16,
) -> dict:
    """Memory footprint of the materialised full ladder graph.

    Vertices: every IK config of every rung of every orientation block.
    Intra edges: consecutive-rung pairs inside a block.  Boundary edges:
    full bipartite between consecutive tasks' boundary rungs across all
    blocks.  Returns counts and bytes.
    """
    f = configs_per_rung
    verts = n_tasks * waypoints_per_task * orientation_blocks * f
    intra = n_tasks * (waypoints_per_task - 1) * orientation_blocks * f * f
    boundary = (n_tasks - 1) * (orientation_blocks * f) ** 2
    total = verts * vertex_bytes + (intra + boundary) * edge_bytes
    return {
        "vertices": verts,
        "intra_edges": intra,
        "boundary_edges": boundary,
        "bytes": total,
        "gigabytes": total / 1e9,
    }


def full_ladder_graph(
    robot: RobotModel,
    tasks: list[TaskSpec],
    config: PlannerConfig,
) -> tuple[float, list[np.ndarray]]:
    """Materialised-ladder optimum; only viable for small test problems.

    Builds every orientation block's rungs for every task and runs one DP
    over the whole structure.  Raises MemoryBudgetError when the vertex
    count would exceed `config.full_graph_vertex_cap`.
    """
    directions = sample_directions(config.direction_count)
    rotations = rotation_sequence(config.rotation_samples)
    weights = robot.weights
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)

    ladders: list[list[list[np.ndarray]]] = []  # task -> block -> rungs
    n_vertices = 0
    for t in tasks:
        grid = _candidate_grid(t, rotations)
        blocks = []
        jobs = [(t.waypoints, directions[a], rot, t.prefix) for a, rot in grid]
        for rungs in _stacked_rungs(robot, t.ordered, jobs, config.clearance):
            if rungs is None:
                continue
            n_vertices += sum(r.shape[0] for r in rungs)
            if n_vertices > config.full_graph_vertex_cap:
                est = estimate_full_graph_size(
                    len(tasks),
                    tasks[0].waypoints.shape[0],
                    len(grid),
                    max(r.shape[0] for r in rungs),
                )
                raise MemoryBudgetError(
                    f"full ladder graph needs more than "
                    f"{config.full_graph_vertex_cap} vertices "
                    f"(estimated {est['gigabytes']:.1f} GB)"
                )
            blocks.append(rungs)
        if not blocks:
            raise CartesianPlanningError(
                f"task {t.index}: no feasible orientation block for the full graph"
            )
        ladders.append(blocks)

    # per task, per block: (entry back-pointers into the previous task's
    # stacked exits, the block ladder's back-pointers)
    trail: list[list[tuple[np.ndarray, list[np.ndarray]]]] = []
    exits, cost = robot.home[None, :], np.zeros(1)
    for blocks in ladders:
        costs, links = [], []
        for rungs in blocks:
            entry_cost, entry_from = _minplus(cost, _pair_costs(exits, rungs[0], weights))
            exit_cost, backs = _ladder(entry_cost, rungs, weights, limits)
            costs.append(exit_cost)
            links.append((entry_from, backs))
        trail.append(links)
        exits = np.concatenate([rungs[-1] for rungs in blocks])
        cost = np.concatenate(costs)

    flat = int(np.argmin(cost))
    total = float(cost[flat])
    if not math.isfinite(total):
        raise CartesianPlanningError("full ladder graph has no jump-feasible path")

    paths: list[np.ndarray] = []
    for blocks, links in zip(reversed(ladders), reversed(trail)):
        bi, idx = _unflatten([rungs[-1].shape[0] for rungs in blocks], flat)
        entry_from, backs = links[bi]
        path, first = _walk_back(blocks[bi], backs, idx)
        paths.append(path)
        flat = int(entry_from[first])
    paths.reverse()
    return total, paths


# ---------------------------------------------------------------------------
# retraction segments


def plan_retraction(
    robot: RobotModel,
    node: np.ndarray,
    orientation_direction: np.ndarray,
    rotation: float,
    anchor: np.ndarray,
    scene: CapsuleSet,
    config: PlannerConfig,
    directions: np.ndarray,
    preferred: int,
    *,
    upto: int | None = None,
    built: dict[int, list[np.ndarray] | None] | None = None,
) -> np.ndarray | None:
    """Straight tip slide away from a node with the tool orientation frozen.

    The returned path starts exactly at `anchor` (the extrusion boundary
    config, so the seam is continuous by construction) and steps outward
    along a candidate direction through collision-free IK solutions.  Each
    direction's rungs, led by `anchor` as a one-config rung, go through the
    ladder kernel, so the path is the cheapest jump-feasible chain (ties to
    the lowest index).  The pass direction is tried first, then the
    remaining directions by index; None means no candidate admits a full
    chain and the caller should fall back to a degenerate single-config
    segment.

    `upto` limits `scene` to its first `upto` obstacles, as in
    `config_collides_batch`.  `built` holds rungs already built against that
    scene, by direction index (None: the direction has none); any other
    direction is built with `build_rungs` when its turn comes.
    """
    built = built or {}
    weights = robot.weights
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)

    order = [preferred] + [i for i in range(len(directions)) if i != preferred]
    for a in order:
        if a in built:
            rungs = built[a]
        else:
            rungs = build_rungs(
                robot, retraction_points(node, directions[a], config),
                orientation_direction, rotation, scene,
                clearance=config.clearance, upto=upto,
            )
        if rungs is None:
            continue
        ladder = [anchor[None, :]] + rungs
        cost, backs = _ladder(np.zeros(1), ladder, weights, limits)
        if np.isfinite(cost).any():
            return _walk_back(ladder, backs, int(np.argmin(cost)))[0]
    return None

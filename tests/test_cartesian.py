"""Ladder blocks, capsule summaries, chain search, and retraction moves."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from trusspath import cartesian
from trusspath.cartesian import (
    Capsule,
    CartesianPlanningError,
    MemoryBudgetError,
    _inner_cost_matrix,
    _minplus,
    _step_costs,
    build_rungs,
    capsules_from_rungs,
    chain_search,
    estimate_full_graph_size,
    expand_and_search,
    extract_block_path,
    full_ladder_graph,
    plan_retraction,
    prepare_tasks,
)
from trusspath.config import PlannerConfig
from trusspath.fixtures import fixture_path, load_bundled_model, load_bundled_robot
from trusspath import kinematics
from trusspath.kinematics import (
    CapsuleSet,
    build_rungs_batch,
    config_collides_batch,
    fk,
    fk_frames,
    ik_sweep,
    load_robot,
)
from trusspath.geometry import (
    CapsuleShape,
    direction_rotation_from_frame,
    pose_from_direction,
    sample_directions,
)
from trusspath.sequence import (
    SequencePlanner,
    plan_sequence,
    rotation_sequence,
    sequence_from_dict,
    sequence_to_dict,
)

CART_CFG = PlannerConfig(direction_count=24, rotation_samples=2)
COST_TOL = 1e-9


@pytest.fixture(scope="module")
def robot():
    return load_bundled_robot("arm")


@pytest.fixture(scope="module")
def cube_tasks(robot):
    model = load_bundled_model("cube")
    sequence = plan_sequence(model, robot, CART_CFG)
    tasks = prepare_tasks(model, robot, sequence, CART_CFG)
    return model, sequence, tasks


def enumerate_ladder_cost(rungs, weights, limits, entry, exit_):
    """Cheapest jump-limited path cost by trying every rung combination."""
    best = math.inf
    choices = [range(r.shape[0]) for r in rungs[1:-1]]
    for mids in itertools.product(*choices):
        idx = [entry, *mids, exit_]
        cost = 0.0
        ok = True
        for r in range(1, len(rungs)):
            a = rungs[r - 1][idx[r - 1]]
            b = rungs[r][idx[r]]
            if np.any(np.abs(a - b) > limits):
                ok = False
                break
            cost += float((np.abs(a - b) * weights).sum())
        if ok:
            best = min(best, cost)
    return best


def test_inner_cost_matrix_matches_enumeration():
    rng = np.random.default_rng(51)
    weights = np.array([1.0, 2.0])
    limits = np.array([0.8, 0.8])
    for _ in range(30):
        n_rungs = int(rng.integers(2, 5))
        rungs = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 4)), 2)) for _ in range(n_rungs)]
        got = _inner_cost_matrix(rungs, weights, limits)
        assert got.shape == (rungs[0].shape[0], rungs[-1].shape[0])
        for i in range(rungs[0].shape[0]):
            for j in range(rungs[-1].shape[0]):
                expected = enumerate_ladder_cost(rungs, weights, limits, i, j)
                if math.isinf(expected):
                    assert math.isinf(got[i, j])
                else:
                    assert got[i, j] == pytest.approx(expected, abs=1e-12)


def ladder_capsule_matrix(rungs, weights, limits):
    """A block's capsule matrix from its own `_ladder` run, identity start."""
    start = np.where(np.eye(len(rungs[0]), dtype=bool), 0.0, math.inf)
    return cartesian._ladder(start, rungs, weights, limits)[0]


def assert_equal_to_own_ladders(got, blocks, weights, limits):
    assert len(got) == len(blocks)
    for matrix, rungs in zip(got, blocks):
        want = ladder_capsule_matrix(rungs, weights, limits)
        assert matrix.shape == want.shape
        assert matrix.tobytes() == want.tobytes()


def ragged_blocks(rng, count, weights, limits):
    """Random walks of 2-41 rungs of 1-8 configs, each config within about
    half a jump limit per joint of its rung's centre, so some moves inside a
    rung are within the limits too.  Some blocks hold one config per rung,
    and some are cut mid-way by a rung moved far off."""
    dof = len(weights)
    blocks = []
    for _ in range(count):
        length = int(rng.integers(2, 42))
        centres = np.cumsum(rng.normal(0.0, 0.4 * limits, size=(length, dof)), axis=0)
        most = 1 if rng.random() < 0.2 else 8
        rungs = [
            c + rng.normal(0.0, 0.5 * limits, size=(int(rng.integers(1, most + 1)), dof))
            for c in centres
        ]
        if length > 2 and rng.random() < 0.2:
            rungs[int(rng.integers(1, length - 1))] += 10.0 * limits
        blocks.append(rungs)
    return blocks


@pytest.mark.parametrize("cells", [None, 1, 200, 3000])
@pytest.mark.parametrize("dof", [6, 7])
def test_batched_ladders_equal_each_blocks_own_ladder_on_ragged_blocks(dof, cells, monkeypatch):
    # at 1 every block runs alone, one step and one start row at a time; at
    # 200 a lone block also runs bands of rows, and stacks of a few run
    # spans of steps, the last band and span short; at 3000 stacks grow
    if cells is not None:
        monkeypatch.setattr(cartesian, "LADDER_CELLS", cells)
    rng = np.random.default_rng(60 + dof)
    weights = rng.uniform(0.25, 2.0, size=dof)
    limits = np.full(dof, 0.15)
    kinds = set()
    for _ in range(12):
        blocks = ragged_blocks(rng, int(rng.integers(1, 13)), weights, limits)
        got = cartesian._inner_cost_matrices(blocks, weights, limits)
        assert_equal_to_own_ladders(got, blocks, weights, limits)
        for matrix, rungs in zip(got, blocks):
            kinds.add("finite" if np.isfinite(matrix).any() else "all inf")
            if max(map(len, rungs)) == 1:
                kinds.add("single configs")
    assert kinds == {"all inf", "finite", "single configs"}


@pytest.mark.parametrize("case", ["cube-dense", "cube-sparse"])
def test_batched_ladders_equal_each_blocks_own_ladder_on_every_cube_block(
    robot, cube_tasks, default_tasks, case, monkeypatch
):
    """Every block the capsule sampler relaxes on both cube configurations."""
    if case == "cube-dense":
        (_, _, tasks), config = default_tasks, PlannerConfig()
    else:
        (_, _, tasks), config = cube_tasks, CART_CFG
    relaxed = []
    batched = cartesian._inner_cost_matrices

    def recording(blocks, weights, limits):
        got = batched(blocks, weights, limits)
        relaxed.append((blocks, got))
        return got

    monkeypatch.setattr(cartesian, "_inner_cost_matrices", recording)
    result = expand_and_search(robot, tasks, config)
    weights = robot.weights
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)
    for blocks, got in relaxed:
        assert_equal_to_own_ladders(got, blocks, weights, limits)
    built = sum(len(column) for column in result.columns)
    assert sum(len(blocks) for blocks, _ in relaxed) >= built > len(tasks)
    assert max(len(blocks) for blocks, _ in relaxed) > 1


def test_wide_rail_rungs_relax_with_the_temporaries_of_one_step():
    """The bundled arm on a -500..500 mm rail, solved on its default 10 mm
    grid, has rungs of over 200 configs near home.  Such a block is wider
    than `LADDER_CELLS`, so it relaxes one step and one start row at a time:
    its peak holds under two steps' joint differences, where relaxing every
    step, or every start row, at once would hold one per step, or per row.
    Its rows are those of its own ladder run, taken 16 start rows a time."""
    doc = json.loads(fixture_path("kr6_like.json").read_text())
    doc["track"] = {"direction": [0.0, 1.0, 0.0], "lower": -500.0, "upper": 500.0}
    doc["home"]["track"] = 0.0
    railed = load_robot(doc)
    tip = fk_frames(railed, railed.home)[-1]
    direction, rotation = direction_rotation_from_frame(tip)
    waypoints = tip[:3, 3] + np.linspace(0.0, 30.0, 7)[:, None] * np.array([1.0, 0.0, 0.0])
    rungs = build_rungs(railed, waypoints, direction, rotation, CapsuleSet([]), 2.0)
    width = max(map(len, rungs))
    assert min(map(len, rungs)) > 200 and width**2 > cartesian.LADDER_CELLS
    weights = railed.weights
    limits = railed.jump_limits(0.1, 15.0)
    tracemalloc.start()
    try:
        got = _inner_cost_matrix(rungs, weights, limits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_step = width**2 * railed.dof * np.dtype(float).itemsize
    assert peak < 2 * one_step
    assert got.shape == (len(rungs[0]), len(rungs[-1]))
    starts = np.where(np.eye(len(rungs[0]), dtype=bool), 0.0, math.inf)
    for a in range(0, len(starts), 16):
        want = cartesian._ladder(starts[a : a + 16], rungs, weights, limits)[0]
        assert got[a : a + 16].tobytes() == want.tobytes()
    assert np.isfinite(got).any()


def pair_costs(a, b, weights):
    """Weighted L1 distances between config rows of a (n, dof) and b (m, dof)."""
    return (np.abs(a[:, None, :] - b[None, :, :]) * weights[None, None, :]).sum(axis=2)


def _pair_allowed(a, b, limits):
    """Which config pairs of a (n, dof) and b (m, dof) lie within the jump limits."""
    return (np.abs(a[:, None, :] - b[None, :, :]) <= limits[None, None, :]).all(axis=2)


def scene_before(model, sequence, k):
    """The scene of task k: the elements placed before it, `model.scene(order[:k])`."""
    return model.scene([t.element for t in sequence.tasks][:k])


def build_capsule(robot, task, scene, direction, direction_index, rotation, config):
    """One candidate's capsule from its own `build_rungs` call in the task's
    own `scene`: the per-candidate loop that `expand_and_search` batches."""
    rungs = build_rungs(
        robot, task.waypoints, direction, rotation, scene, clearance=config.clearance
    )
    if rungs is None:
        return None
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)
    block = (task.prefix, direction_index, rotation, rungs)
    return capsules_from_rungs([block], robot.weights, limits)[0]


def retraction_from_scratch(
    robot, node, orientation_direction, rotation, anchor, scene, config, directions, preferred
):
    """`plan_retraction` with the preferred direction's rungs built by their
    own `build_rungs` call against `scene`, as every other direction's are."""
    first = build_rungs(
        robot, cartesian.retraction_points(node, directions[preferred], config),
        orientation_direction, rotation, scene, clearance=config.clearance,
    )
    return plan_retraction(
        robot, node, orientation_direction, rotation, anchor, scene, config, directions,
        preferred, first,
    )


def test_pair_helpers():
    weights = np.array([1.0, 3.0])
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[0.5, 0.0], [0.0, 2.0], [1.0, 1.0]])
    costs = pair_costs(a, b, weights)
    assert costs.shape == (2, 3)
    assert costs[0, 0] == pytest.approx(0.5)
    assert costs[0, 1] == pytest.approx(6.0)
    assert costs[1, 2] == pytest.approx(0.0)
    # a boundary move is a step under no jump limit
    assert _step_costs(a, b, weights, math.inf).tobytes() == costs.tobytes()
    allowed = _pair_allowed(a, b, np.array([0.6, 0.6]))
    assert allowed.shape == (2, 3)
    assert allowed.tolist() == [[True, False, False], [False, False, True]]


def synthetic_capsule(rng, task, dof=2, inf_rate=0.3):
    k0 = int(rng.integers(1, 4))
    k1 = int(rng.integers(1, 4))
    inner = rng.uniform(0.0, 5.0, size=(k0, k1))
    inner[rng.uniform(size=(k0, k1)) < inf_rate] = math.inf
    return Capsule(
        task=task,
        direction_index=int(rng.integers(24)),
        rotation=float(rng.uniform(0, 2 * math.pi)),
        entry=rng.uniform(-2.0, 2.0, size=(k0, dof)),
        exit=rng.uniform(-2.0, 2.0, size=(k1, dof)),
        inner_cost=inner,
        waypoints=5,
    )


def enumerate_chain(columns, weights, home):
    """Brute-force optimum over capsule, entry, and exit choices per task."""
    best = math.inf
    options = []
    for col in columns:
        opts = []
        for cap in col:
            for ei in range(cap.entry.shape[0]):
                for xi in range(cap.exit.shape[0]):
                    opts.append((cap, ei, xi))
        options.append(opts)
    for combo in itertools.product(*options):
        cost = 0.0
        prev = home
        for cap, ei, xi in combo:
            cost += float((np.abs(prev - cap.entry[ei]) * weights).sum())
            cost += cap.inner_cost[ei, xi]
            prev = cap.exit[xi]
        best = min(best, cost)
    return best


def test_chain_search_matches_enumeration():
    rng = np.random.default_rng(53)
    weights = np.array([1.0, 2.0])
    home = np.zeros(2)
    for _ in range(25):
        columns = [
            [synthetic_capsule(rng, t) for _ in range(int(rng.integers(1, 3)))]
            for t in range(int(rng.integers(1, 4)))
        ]
        expected = enumerate_chain(columns, weights, home)
        if math.isinf(expected):
            with pytest.raises(CartesianPlanningError):
                chain_search(columns, weights, home)
            continue
        cost, picks = chain_search(columns, weights, home)
        assert cost == pytest.approx(expected, abs=1e-12)
        # the reported picks recompute to the reported cost
        total = 0.0
        prev = home
        for cap, ei, xi in picks:
            total += float((np.abs(prev - cap.entry[ei]) * weights).sum())
            total += cap.inner_cost[ei, xi]
            prev = cap.exit[xi]
        assert total == pytest.approx(cost, abs=1e-12)


# ---------------------------------------------------------------------------
# tie-breaking of the shared min-plus kernel against the loops it replaced


def oracle_chain_search(columns, weights, home):
    """`chain_search` as a per-source loop with a strict-`<` merge, so an
    earlier capsule keeps a tie.  Returns (cost, picks)."""
    prev_exits = [home[None, :]]
    prev_cost = [np.zeros(1)]
    per_column = []
    for col in columns:
        col_states = []
        for cap in col:
            best_entry_cost = np.full(cap.entry.shape[0], math.inf)
            best_entry_from = np.full((cap.entry.shape[0], 2), -1, dtype=int)
            for pi, configs in enumerate(prev_exits):
                total = prev_cost[pi][:, None] + pair_costs(configs, cap.entry, weights)
                src = np.argmin(total, axis=0)
                val = total[src, np.arange(total.shape[1])]
                better = val < best_entry_cost
                best_entry_cost[better] = val[better]
                best_entry_from[better] = np.stack(
                    [np.full(better.sum(), pi), src[better]], axis=1
                )
            through = best_entry_cost[:, None] + cap.inner_cost
            entry_pick = np.argmin(through, axis=0)
            exit_cost = through[entry_pick, np.arange(through.shape[1])]
            col_states.append((cap, exit_cost, entry_pick, best_entry_from))
        per_column.append(col_states)
        prev_exits = [st[0].exit for st in col_states]
        prev_cost = [st[1] for st in col_states]

    best = (math.inf, -1, -1)
    for ci, st in enumerate(per_column[-1]):
        j = int(np.argmin(st[1]))
        if float(st[1][j]) < best[0]:
            best = (float(st[1][j]), ci, j)
    if not math.isfinite(best[0]):
        return best[0], None
    picks = []
    ci, exit_idx = best[1], best[2]
    for col_states in reversed(per_column):
        cap, _, entry_pick, entry_from = col_states[ci]
        entry_idx = int(entry_pick[exit_idx])
        picks.append((cap, entry_idx, exit_idx))
        ci, exit_idx = (int(v) for v in entry_from[entry_idx])
    picks.reverse()
    return best[0], picks


def oracle_block_path(rungs, weights, limits, entry_index, exit_index):
    """The interior DP of `extract_block_path` with per-rung best/back lists."""
    best = [np.full(r.shape[0], math.inf) for r in rungs]
    back = [np.full(r.shape[0], -1, dtype=int) for r in rungs]
    best[0][entry_index] = 0.0
    for r in range(1, len(rungs)):
        step = pair_costs(rungs[r - 1], rungs[r], weights)
        step[~_pair_allowed(rungs[r - 1], rungs[r], limits)] = math.inf
        total = best[r - 1][:, None] + step
        back[r] = np.argmin(total, axis=0)
        best[r] = total[back[r], np.arange(total.shape[1])]
    if not np.isfinite(best[-1][exit_index]):
        return None
    idx = exit_index
    path = [rungs[-1][idx]]
    for r in range(len(rungs) - 1, 0, -1):
        idx = int(back[r][idx])
        path.append(rungs[r - 1][idx])
    path.reverse()
    return np.array(path)


def integer_capsule(rng, task):
    """Integer configs and interior costs, so equal-cost choices are common."""
    k0, k1 = (int(v) for v in rng.integers(1, 4, size=2))
    inner = rng.integers(0, 4, size=(k0, k1)).astype(float)
    inner[rng.uniform(size=(k0, k1)) < 0.2] = math.inf
    return Capsule(
        task=task,
        direction_index=0,
        rotation=0.0,
        entry=rng.integers(-2, 3, size=(k0, 2)).astype(float),
        exit=rng.integers(-2, 3, size=(k1, 2)).astype(float),
        inner_cost=inner,
        waypoints=2,
    )


def count_optimal_chains(columns, weights, home):
    """How many (capsule, entry, exit) choice sequences reach the optimum."""
    totals = []
    options = [
        [(cap, ei, xi) for cap in col for ei in range(len(cap.entry)) for xi in range(len(cap.exit))]
        for col in columns
    ]
    for combo in itertools.product(*options):
        cost, prev = 0.0, home
        for cap, ei, xi in combo:
            cost += float((np.abs(prev - cap.entry[ei]) * weights).sum()) + cap.inner_cost[ei, xi]
            prev = cap.exit[xi]
        totals.append(cost)
    best = min(totals)
    return sum(t == best for t in totals) if math.isfinite(best) else 0


def test_chain_search_breaks_ties_like_the_per_source_loop():
    rng = np.random.default_rng(61)
    weights = np.array([1.0, 2.0])
    home = np.zeros(2)
    tied = 0
    for _ in range(150):
        columns = [
            [integer_capsule(rng, t) for _ in range(int(rng.integers(1, 4)))]
            for t in range(int(rng.integers(1, 4)))
        ]
        want_cost, want_picks = oracle_chain_search(columns, weights, home)
        if want_picks is None:
            with pytest.raises(CartesianPlanningError):
                chain_search(columns, weights, home)
            continue
        tied += count_optimal_chains(columns, weights, home) > 1
        cost, picks = chain_search(columns, weights, home)
        assert cost == want_cost
        assert [(id(c), e, x) for c, e, x in picks] == [
            (id(c), e, x) for c, e, x in want_picks
        ]
    assert tied >= 30


def test_extract_block_path_breaks_ties_like_the_rung_loop():
    rng = np.random.default_rng(67)
    weights = np.array([1.0, 2.0])
    limits = np.array([2.0, 2.0])
    robot = SimpleNamespace(weights=weights, jump_limits=lambda *_: limits)
    task = SimpleNamespace(prefix=0)
    tied = checked = 0
    for _ in range(150):
        rungs = [
            rng.integers(-2, 3, size=(int(rng.integers(1, 5)), 2)).astype(float)
            for _ in range(int(rng.integers(2, 6)))
        ]
        inner = _inner_cost_matrix(rungs, weights, limits)
        for i, j in itertools.product(range(len(rungs[0])), range(len(rungs[-1]))):
            want = oracle_block_path(rungs, weights, limits, i, j)
            if want is None:
                with pytest.raises(CartesianPlanningError, match="unreachable"):
                    extract_block_path(robot, task, rungs, i, j, CART_CFG)
                continue
            got = extract_block_path(robot, task, rungs, i, j, CART_CFG)
            assert np.array_equal(got, want)
            checked += 1
            paths = itertools.product(*[range(len(r)) for r in rungs[1:-1]])
            optimal = 0
            for mids in paths:
                qs = [rungs[0][i], *(r[m] for r, m in zip(rungs[1:-1], mids)), rungs[-1][j]]
                steps = np.abs(np.diff(qs, axis=0))
                if np.all(steps <= limits):
                    optimal += float((steps * weights).sum()) == inner[i, j]
            tied += optimal > 1
    assert checked >= 200 and tied >= 30


def test_minplus_rows_equal_one_dimensional_calls():
    rng = np.random.default_rng(71)
    cost = rng.integers(0, 3, size=(4, 5)).astype(float)
    cost[0, 1] = math.inf
    step = rng.integers(0, 3, size=(5, 6)).astype(float)
    step[:, 2] = math.inf
    got, back = _minplus(cost, step)
    assert got.shape == back.shape == (4, 6)
    # the minimum is the very value at the arg-min
    total = cost[:, :, None] + step
    assert np.array_equal(got, np.take_along_axis(total, back[:, None, :], axis=1)[:, 0, :])
    for row in range(4):
        want, want_back = _minplus(cost[row], step)
        assert np.array_equal(got[row], want)
        assert np.array_equal(back[row], want_back)


def test_chain_search_rejects_empty_column():
    rng = np.random.default_rng(55)
    col = [synthetic_capsule(rng, 0)]
    with pytest.raises(CartesianPlanningError, match="no feasible orientation"):
        chain_search([col, []], np.array([1.0, 2.0]), np.zeros(2))


def test_estimate_full_graph_size_formula():
    est = estimate_full_graph_size(
        n_tasks=3,
        waypoints_per_task=5,
        orientation_blocks=2,
        configs_per_rung=4,
        vertex_bytes=10,
        edge_bytes=2,
    )
    assert est["vertices"] == 3 * 5 * 2 * 4
    assert est["intra_edges"] == 3 * 4 * 2 * 16
    assert est["boundary_edges"] == 2 * (2 * 4) ** 2
    expected_bytes = est["vertices"] * 10 + (est["intra_edges"] + est["boundary_edges"]) * 2
    assert est["bytes"] == expected_bytes
    assert est["gigabytes"] == pytest.approx(expected_bytes / 1e9)
    # more of anything means more memory
    bigger = estimate_full_graph_size(3, 5, 2, 8, 10, 2)
    assert bigger["bytes"] > est["bytes"]


def test_build_rungs_and_extract_block_path(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    task = tasks[0]
    directions = sequence.directions
    scene = scene_before(model, sequence, 0)
    cap = build_capsule(
        robot,
        task,
        scene,
        directions[task.preferred_direction],
        task.preferred_direction,
        task.preferred_rotation,
        CART_CFG,
    )
    assert cap is not None and cap.feasible
    assert cap.waypoints == task.waypoints.shape[0]

    finite = np.argwhere(np.isfinite(cap.inner_cost))
    i, j = map(int, finite[len(finite) // 2])
    rungs = build_rungs(
        robot, task.waypoints, directions[task.preferred_direction], task.preferred_rotation,
        scene, clearance=CART_CFG.clearance,
    )
    path = extract_block_path(robot, task, rungs, i, j, CART_CFG)
    assert path.shape == (task.waypoints.shape[0], robot.dof)
    assert np.allclose(path[0], cap.entry[i])
    assert np.allclose(path[-1], cap.exit[j])

    limits = robot.jump_limits(CART_CFG.jump_limit, CART_CFG.prismatic_jump_limit)
    steps = np.abs(np.diff(path, axis=0))
    assert np.all(steps <= limits[None, :] + 1e-12)
    recomputed = float((steps * robot.weights[None, :]).sum())
    assert recomputed == pytest.approx(float(cap.inner_cost[i, j]), abs=1e-12)

    # the tool tip follows the waypoints with the frozen orientation
    for q, target in zip(path, task.waypoints):
        pose = fk(robot, q)
        assert np.linalg.norm(pose.position - target) < 1e-6
        assert np.allclose(pose.direction, directions[task.preferred_direction], atol=1e-6)


def test_sparse_chain_equals_full_ladder(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    limits = robot.jump_limits(CART_CFG.jump_limit, CART_CFG.prismatic_jump_limit)
    for prefix in (tasks[:2], tasks[:3]):
        columns = expand_and_search(robot, prefix, CART_CFG, max_capsules=None).columns
        sparse_cost, picks = chain_search(columns, robot.weights, robot.home)
        full_cost, paths = full_ladder_graph(robot, prefix, CART_CFG)
        assert sparse_cost == pytest.approx(full_cost, abs=COST_TOL)

        # the full-graph paths recompute to exactly the reported optimum
        total = 0.0
        prev = robot.home
        for path in paths:
            total += float((np.abs(prev - path[0]) * robot.weights).sum())
            steps = np.abs(np.diff(path, axis=0))
            assert np.all(steps <= limits[None, :] + 1e-12)
            total += float((steps * robot.weights[None, :]).sum())
            prev = path[-1]
        assert total == pytest.approx(full_cost, abs=COST_TOL)

        # each back-pointer walk lands on its own task's waypoints, one row each
        assert len(paths) == len(prefix)
        for path, task in zip(paths, prefix):
            assert path.shape == (task.waypoints.shape[0], robot.dof)
            for q, target in zip(path, task.waypoints):
                assert np.linalg.norm(fk(robot, q).position - target) < 1e-6


def test_expand_budget_monotone_and_witness_first(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    prefix = tasks[:3]
    rng_seed = 7
    costs = []
    for budget in (1, 2, None):
        result = expand_and_search(
            robot,
            prefix,
            CART_CFG,
            rng=np.random.default_rng(rng_seed),
            max_capsules=budget,
        )
        costs.append(result.cost)
        assert all(len(col) >= 1 for col in result.columns)
        assert sum(len(col) for col in result.columns) <= result.attempted
        # the sequence witness block is always attempted first
        first = result.columns[0][0]
        assert first.direction_index == prefix[0].preferred_direction
        assert first.rotation == pytest.approx(prefix[0].preferred_rotation)
    assert costs[0] >= costs[1] - COST_TOL
    assert costs[1] >= costs[2] - COST_TOL


def test_full_ladder_respects_vertex_cap(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    tiny = CART_CFG.replace(full_graph_vertex_cap=10)
    with pytest.raises(MemoryBudgetError, match="vertices"):
        full_ladder_graph(robot, tasks[:2], tiny)


def test_plan_retraction_slides_straight_out(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    task = tasks[0]
    directions = sequence.directions
    scene, scene_after = scene_before(model, sequence, 0), scene_before(model, sequence, 1)
    cap = build_capsule(
        robot,
        task,
        scene,
        directions[task.preferred_direction],
        task.preferred_direction,
        task.preferred_rotation,
        CART_CFG,
    )
    finite = np.argwhere(np.isfinite(cap.inner_cost))
    i, j = map(int, finite[0])
    rungs = build_rungs(
        robot, task.waypoints, directions[task.preferred_direction], task.preferred_rotation,
        scene, clearance=CART_CFG.clearance,
    )
    block = extract_block_path(robot, task, rungs, i, j, CART_CFG)
    anchor = block[-1]
    node = task.waypoints[-1]

    path = retraction_from_scratch(
        robot,
        node,
        directions[task.preferred_direction],
        task.preferred_rotation,
        anchor,
        scene_after,
        CART_CFG,
        directions,
        task.preferred_direction,
    )
    assert path is not None
    k = max(1, math.ceil(CART_CFG.retraction_length / CART_CFG.path_spacing))
    assert path.shape == (k + 1, robot.dof)
    assert np.array_equal(path[0], anchor)

    limits = robot.jump_limits(CART_CFG.jump_limit, CART_CFG.prismatic_jump_limit)
    assert np.all(np.abs(np.diff(path, axis=0)) <= limits[None, :] + 1e-12)
    # orientation stays frozen and the tip walks outward to full length
    offsets = np.linspace(
        CART_CFG.retraction_length / k, CART_CFG.retraction_length, k
    )
    used_direction = None
    tip0 = fk(robot, path[1]).position
    for a in range(len(directions)):
        if np.linalg.norm(tip0 - (node + directions[a] * offsets[0])) < 1e-6:
            used_direction = a
            break
    assert used_direction is not None
    for q, off in zip(path[1:], offsets):
        pose = fk(robot, q)
        assert np.linalg.norm(pose.position - (node + directions[used_direction] * off)) < 1e-6
    hits = config_collides_batch(
        robot, path[1:], scene_after, clearance=CART_CFG.clearance
    )
    assert not hits.any()


def test_prepare_tasks_rejects_tampered_witness(robot, cube_tasks):
    model, sequence, tasks = cube_tasks

    # point the last task's witness straight down into the built structure
    down = len(sequence.directions) - 1
    tampered = dataclasses.replace(sequence.tasks[-1], direction_index=down)
    bad = dataclasses.replace(
        sequence, tasks=sequence.tasks[:-1] + [tampered]
    )
    with pytest.raises(CartesianPlanningError, match="not sweep-feasible"):
        prepare_tasks(model, robot, bad, CART_CFG)


def test_prepare_tasks_reuses_a_matching_sweep_table(robot, cube_tasks, monkeypatch):
    model, sequence, tasks = cube_tasks
    assert sequence.sweeps is not None
    built = []

    class CountingTable(cartesian.SweepTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cartesian, "SweepTable", CountingTable)
    again = prepare_tasks(model, robot, sequence, CART_CFG)
    assert not built
    fresh = [
        prepare_tasks(model, robot, sequence, CART_CFG.replace(clearance=CART_CFG.clearance)),
        prepare_tasks(model, robot, sequence_from_dict(sequence_to_dict(sequence)), CART_CFG),
        prepare_tasks(load_bundled_model("cube"), robot, sequence, CART_CFG),
    ]
    assert len(built) == 2  # the equal config still matches
    for other in (again, *fresh):
        assert [t.direction_indices for t in other] == [t.direction_indices for t in tasks]
        assert all(np.array_equal(a.waypoints, b.waypoints) for a, b in zip(other, tasks))
    with pytest.raises(CartesianPlanningError, match="not sweep-feasible"):
        # a larger clearance blocks more: the sequence's table must not answer
        prepare_tasks(model, robot, sequence, CART_CFG.replace(clearance=40.0))
    assert len(built) == 3


def test_plan_retraction_boxed_in_returns_none(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    task = tasks[0]
    directions = sequence.directions
    node = task.waypoints[-1]
    # a huge blob around the node leaves no collision-free retreat
    blob = CapsuleSet(
        (CapsuleShape(tuple(node - 1.0), tuple(node + 1.0), 400.0),)
    )
    path = retraction_from_scratch(
        robot,
        node,
        directions[task.preferred_direction],
        task.preferred_rotation,
        robot.home,
        blob,
        CART_CFG,
        directions,
        task.preferred_direction,
    )
    assert path is None


def test_plan_retraction_takes_the_farther_config_past_a_dead_end(monkeypatch):
    # the nearest first-rung config has no jump-feasible successor, so
    # chaining the nearest config at each waypoint fails on every direction
    weights = np.array([1.0, 1.0])
    limits = np.array([1.0, 1.0])
    robot = SimpleNamespace(weights=weights, jump_limits=lambda *_: limits)
    rungs = [np.array([[0.5, 0.0], [0.0, 0.9]]), np.array([[0.0, 1.8]])]
    assert not np.all(np.abs(rungs[1] - rungs[0][0]) <= limits, axis=1).any()
    monkeypatch.setattr(cartesian, "build_rungs", lambda *_, **__: rungs)
    anchor = np.zeros(2)
    path = plan_retraction(
        robot, np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.0, anchor, None,
        CART_CFG, np.eye(3), 0, rungs,
    )
    assert np.array_equal(path, [[0.0, 0.0], [0.0, 0.9], [0.0, 1.8]])


# ---------------------------------------------------------------------------
# one collision query per sweep against the per-waypoint loop it replaced


def oracle_build_rungs(robot, waypoints, direction, rotation, scene, clearance):
    """`build_rungs` with one collision query per waypoint.  Also says why a
    block fails: ("empty", rung) or ("collision", rung)."""
    frame = pose_from_direction(waypoints[0], direction, rotation)
    families = ik_sweep(robot, frame[:3, :3], waypoints)
    rungs = []
    for r, fam in enumerate(families):
        if not len(fam):
            return None, ("empty", r)
        qs = np.array(fam)
        free = ~config_collides_batch(robot, qs, scene, clearance=clearance)
        if not free.any():
            return None, ("collision", r)
        rungs.append(qs[free])
    return rungs, None


def oracle_plan_retraction(
    robot, node, orientation_direction, rotation, anchor, scene, config, directions, preferred
):
    """`plan_retraction` with one collision query per waypoint."""
    length = config.retraction_length
    k = max(1, math.ceil(length / config.path_spacing))
    rot = pose_from_direction(node, orientation_direction, rotation)[:3, :3]
    weights = robot.weights
    limits = robot.jump_limits(config.jump_limit, config.prismatic_jump_limit)
    order = [preferred] + [i for i in range(len(directions)) if i != preferred]
    offsets = np.linspace(length / k, length, k)
    for a in order:
        pts = node[None, :] + directions[a][None, :] * offsets[:, None]
        path = [anchor]
        ok = True
        for fam in ik_sweep(robot, rot, pts):
            if not len(fam):
                ok = False
                break
            qs = np.array(fam)
            qs = qs[~config_collides_batch(robot, qs, scene, clearance=config.clearance)]
            if qs.shape[0] == 0:
                ok = False
                break
            qs = qs[(np.abs(qs - path[-1][None, :]) <= limits[None, :]).all(axis=1)]
            if qs.shape[0] == 0:
                ok = False
                break
            costs = (np.abs(qs - path[-1][None, :]) * weights).sum(axis=1)
            path.append(qs[int(np.argmin(costs))])
        if ok:
            return np.array(path)
    return None


def oracle_pose_exists(planner, element_id):
    """`SequencePlanner._ee_pose_exists` with one collision query per
    waypoint and no time limit."""
    start = planner._start_node(element_id)
    row = planner._domain[planner._index[element_id]] & planner.sweeps.self_mask(
        element_id, start
    )
    pts = planner.sweeps.waypoints(element_id, start)
    for a in np.flatnonzero(row):
        for rot in planner._rotations:
            rungs, _ = oracle_build_rungs(
                planner.robot, pts, planner.directions[a], float(rot),
                planner._scene, planner.config.clearance,
            )
            if rungs is not None:
                return int(a), float(rot)
    return None


def same_rungs(a, b):
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_build_rungs_matches_per_waypoint_loop(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    directions = sequence.directions
    pairs = [(a, float(r)) for a in range(0, len(directions), 3)
             for r in rotation_sequence(CART_CFG.rotation_samples)]
    reasons = set()
    for task in tasks:
        scene = scene_before(model, sequence, task.prefix)
        for a, rot in pairs:
            got = build_rungs(
                robot, task.waypoints, directions[a], rot, scene,
                clearance=CART_CFG.clearance,
            )
            want, why = oracle_build_rungs(
                robot, task.waypoints, directions[a], rot, scene, CART_CFG.clearance
            )
            assert same_rungs(got, want), (task.prefix, a, rot)
            if why is not None:
                last = len(task.waypoints) - 1
                reasons.add((why[0], "interior" if 0 < why[1] < last else "end"))
    assert any(kind == "empty" for kind, _ in reasons)
    assert ("collision", "interior") in reasons


def test_plan_retraction_matches_per_waypoint_loop(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    directions = sequence.directions
    for task in tasks:
        scene_after = scene_before(model, sequence, task.prefix + 1)
        rungs = build_rungs(
            robot, task.waypoints, directions[task.preferred_direction],
            task.preferred_rotation, scene_before(model, sequence, task.prefix),
            clearance=CART_CFG.clearance,
        )
        anchor, node = rungs[-1][0], task.waypoints[-1]
        scenes = [scene_after]
        if task.prefix == 0:  # boxed in: every candidate direction fails
            scenes.append(
                CapsuleSet((CapsuleShape(tuple(node - 1.0), tuple(node + 1.0), 400.0),))
            )
        for preferred in range(0, len(directions), 6):
            for scene in scenes:
                args = (
                    robot, node, directions[task.preferred_direction],
                    task.preferred_rotation, anchor, scene, CART_CFG, directions, preferred,
                )
                want = oracle_plan_retraction(*args)
                assert (want is None) == (scene is not scene_after)
                assert same_rungs(retraction_from_scratch(*args), want), (task.prefix, preferred)


def test_stacked_first_choice_falls_back_like_the_per_waypoint_loop(robot, cube_tasks):
    """First-choice slides built in one stack, each against its own prefix
    of the ordered scene, then handed to `plan_retraction`: when the first
    choice fails it must land where the per-waypoint loop does."""
    model, sequence, tasks = cube_tasks
    directions = sequence.directions
    cases, jobs = [], []
    for task in tasks:
        v, rot = directions[task.preferred_direction], task.preferred_rotation
        rungs = build_rungs(
            robot, task.waypoints, v, rot, scene_before(model, sequence, task.prefix),
            clearance=CART_CFG.clearance,
        )
        for preferred in range(0, len(directions), 4):
            for anchor, node, upto in (
                (rungs[0][0], task.waypoints[0], task.prefix),
                (rungs[-1][0], task.waypoints[-1], task.prefix + 1),
            ):
                points = cartesian.retraction_points(node, directions[preferred], CART_CFG)
                jobs.append((points, v, rot, upto))
                cases.append((task, preferred, anchor, node, upto))
    stacked = list(cartesian._stacked_rungs(robot, tasks[0].ordered, jobs, CART_CFG.clearance))
    outcomes = set()  # (first choice has rungs, first choice chains, some slide found)
    for (task, preferred, anchor, node, upto), first in zip(cases, stacked):
        args = (
            robot, node, directions[task.preferred_direction], task.preferred_rotation, anchor,
        )
        scene = task.ordered.prefix(upto)
        got = plan_retraction(*args, scene, CART_CFG, directions, preferred, first)
        want = oracle_plan_retraction(
            *args, scene_before(model, sequence, upto), CART_CFG, directions, preferred
        )
        assert same_rungs(got, want), (task.prefix, preferred, upto)
        alone = plan_retraction(*args, scene, CART_CFG, directions[[preferred]], 0, first)
        outcomes.add((first is not None, alone is not None, want is not None))
    # first choices that chain, that have rungs but no chain from the
    # anchor, and that have no rungs, each falling back to another direction
    assert {(True, True, True), (True, False, True), (False, False, True)} <= outcomes


def test_rebuild_picks_builds_each_rung_set_against_its_own_prefix(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    directions = sequence.directions
    picks = expand_and_search(robot, tasks, CART_CFG, max_capsules=1).picks
    rebuilt = cartesian.rebuild_picks(robot, tasks, picks, directions, CART_CFG)
    for task, (cap, _, _), got in zip(tasks, picks, rebuilt):
        v, k = directions[cap.direction_index], task.prefix
        want = [
            build_rungs(robot, points, v, cap.rotation, scene, clearance=CART_CFG.clearance)
            for points, scene in (
                (task.waypoints, scene_before(model, sequence, k)),
                (
                    cartesian.retraction_points(task.waypoints[0], v, CART_CFG),
                    scene_before(model, sequence, k),
                ),
                (
                    cartesian.retraction_points(task.waypoints[-1], v, CART_CFG),
                    scene_before(model, sequence, k + 1),
                ),
            )
        ]
        assert all(same_rungs(a, b) for a, b in zip(got, want)), k

    # a lone pass whose own element sits inside the extruder's barrel at the
    # end of the depart slide: only the depart sees it
    task = tasks[0]
    v = directions[task.preferred_direction]
    node = task.waypoints[-1]
    element = CapsuleShape(tuple(node + 80.0 * v), tuple(node + 90.0 * v), 5.0)
    lone = dataclasses.replace(task, ordered=CapsuleSet((element,)), prefix=0)
    cap = Capsule(
        task.prefix, task.preferred_direction, task.preferred_rotation,
        np.zeros((1, robot.dof)), np.zeros((1, robot.dof)), np.zeros((1, 1)), 2,
    )
    block, approach, depart = cartesian.rebuild_picks(
        robot, [lone], [(cap, 0, 0)], directions, CART_CFG
    )[0]
    assert block is not None and approach is not None and depart is None


def test_pose_probe_matches_per_waypoint_loop(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    cfg = CART_CFG.replace(kinematics_timeout=600.0)
    planner = SequencePlanner(model, robot, cfg)
    remaining = {e.id for e in model.elements}
    for t in sequence.tasks[: len(sequence.tasks) // 2]:
        assert planner._place(t.element, (t.direction_index, t.rotation), remaining)
    witnesses = []
    for eid in sorted(remaining):
        witnesses.append(planner._ee_pose_exists(eid))
        assert witnesses[-1] == oracle_pose_exists(planner, eid), eid
    assert any(w is not None for w in witnesses)


# ---------------------------------------------------------------------------
# batched candidates against one candidate per call


def test_build_rungs_batch_equals_one_orientation_calls(robot, cube_tasks, monkeypatch):
    model, sequence, tasks = cube_tasks
    directions = sequence.directions
    pairs = [(a, float(r)) for a in range(0, len(directions), 2)
             for r in rotation_sequence(CART_CFG.rotation_samples)]
    queries = []
    real_query = kinematics.config_collides_batch

    def counting_query(*args, **kwargs):
        queries.append(args)
        return real_query(*args, **kwargs)

    mixed = set()  # failure reasons seen beside a built block in one batch
    for task in tasks[::2]:
        scene = scene_before(model, sequence, task.prefix)
        for i in range(0, len(pairs), 7):
            chunk = pairs[i : i + 7]
            orientations = [(directions[a], rot) for a, rot in chunk]
            monkeypatch.setattr(kinematics, "config_collides_batch", counting_query)
            got = build_rungs_batch(
                robot, [task.waypoints] * len(chunk), orientations, scene, CART_CFG.clearance
            )
            monkeypatch.undo()
            # one collision query per batch, none when no block has IK on every rung
            assert len(queries) <= 1
            reasons, reached = [], 0
            for (a, rot), rungs in zip(chunk, got):
                rot_matrix = pose_from_direction(task.waypoints[0], directions[a], rot)[:3, :3]
                reached += all(len(fam) for fam in ik_sweep(robot, rot_matrix, task.waypoints))
                one = build_rungs(
                    robot, task.waypoints, directions[a], rot, scene,
                    clearance=CART_CFG.clearance,
                )
                want, why = oracle_build_rungs(
                    robot, task.waypoints, directions[a], rot, scene, CART_CFG.clearance
                )
                assert same_rungs(rungs, one) and same_rungs(rungs, want), (task.prefix, a, rot)
                if why is not None:
                    reasons.append(why[0])
            assert len(got) == len(chunk)
            assert bool(queries) == (reached > 0)
            if any(rungs is not None for rungs in got):
                mixed.update(reasons)
            queries.clear()
    assert mixed == {"empty", "collision"}


def oracle_expand(robot, tasks, scenes, config, rng, max_capsules):
    """`expand_and_search`'s capsule columns from one `build_capsule` call per
    candidate in its task's scene, stopping as soon as a column holds its
    budget."""
    directions = sample_directions(config.direction_count)
    rotations = rotation_sequence(config.rotation_samples)
    queues = [list(cartesian._candidate_grid(t, rotations)) for t in tasks]
    for q in queues:
        rng.shuffle(q)
    for q, t in zip(queues, tasks):
        w = (t.preferred_direction, float(t.preferred_rotation))
        q.remove(w)
        q.insert(0, w)
    columns, attempted = [], 0
    for task, scene, queue in zip(tasks, scenes, queues):
        budget = max_capsules if max_capsules is not None else len(queue)
        column = []
        for a, rot in queue:
            if len(column) >= budget:
                break
            attempted += 1
            cap = build_capsule(robot, task, scene, directions[a], a, rot, config)
            if cap is not None:
                column.append(cap)
        columns.append(column)
    return columns, attempted


def same_capsule(a, b):
    return (
        (a.task, a.direction_index, a.rotation, a.waypoints)
        == (b.task, b.direction_index, b.rotation, b.waypoints)
        and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.entry, b.entry), (a.exit, b.exit), (a.inner_cost, b.inner_cost))
        )
    )


@pytest.fixture(scope="module")
def default_tasks(robot):
    model = load_bundled_model("cube")
    sequence = plan_sequence(model, robot, PlannerConfig())
    return model, sequence, prepare_tasks(model, robot, sequence, PlannerConfig())


@pytest.mark.parametrize("budget", [1, 6, None])
@pytest.mark.parametrize("case", ["cube 24x2", "default slice"])
def test_expand_and_search_columns_equal_per_candidate_loop(
    robot, cube_tasks, default_tasks, budget, case
):
    if case == "cube 24x2":
        (model, sequence, tasks), config = cube_tasks, CART_CFG
    else:
        (model, sequence, tasks), config = default_tasks, PlannerConfig()
        tasks = tasks[8:10]
    scenes = [scene_before(model, sequence, task.prefix) for task in tasks]
    got = expand_and_search(
        robot, tasks, config, rng=np.random.default_rng(5), max_capsules=budget
    )
    want, attempted = oracle_expand(
        robot, tasks, scenes, config, np.random.default_rng(5), budget
    )
    assert got.attempted == attempted
    assert [len(col) for col in got.columns] == [len(col) for col in want]
    for col, want_col in zip(got.columns, want):
        assert all(same_capsule(a, b) for a, b in zip(col, want_col))
    if budget is None:  # whole queues: every candidate attempted
        rotations = rotation_sequence(config.rotation_samples)
        assert got.attempted == sum(len(cartesian._candidate_grid(t, rotations)) for t in tasks)

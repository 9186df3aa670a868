"""Ladder blocks, capsule summaries, chain search, and retraction moves."""

import itertools
import math

import numpy as np
import pytest

from trusspath.cartesian import (
    Capsule,
    CartesianPlanningError,
    MemoryBudgetError,
    _inner_cost_matrix,
    _pair_allowed,
    _pair_costs,
    build_capsule,
    build_rungs,
    chain_search,
    estimate_full_graph_size,
    exhaustive_sparse_graph,
    expand_and_search,
    extract_block_path,
    full_ladder_graph,
    plan_retraction,
    prepare_tasks,
)
from trusspath.config import PlannerConfig
from trusspath.fixtures import load_bundled_model, load_bundled_robot
from trusspath.kinematics import CapsuleSet, config_collides_batch, fk, ik_sweep
from trusspath.geometry import CapsuleShape, pose_from_direction
from trusspath.sequence import (
    SequencePlanner,
    plan_sequence,
    rotation_sequence,
    route_start_node,
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


def test_pair_helpers():
    weights = np.array([1.0, 3.0])
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[0.5, 0.0], [0.0, 2.0], [1.0, 1.0]])
    costs = _pair_costs(a, b, weights)
    assert costs.shape == (2, 3)
    assert costs[0, 0] == pytest.approx(0.5)
    assert costs[0, 1] == pytest.approx(6.0)
    assert costs[1, 2] == pytest.approx(0.0)
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
    cap = build_capsule(
        robot,
        task,
        directions[task.preferred_direction],
        task.preferred_direction,
        task.preferred_rotation,
        CART_CFG,
    )
    assert cap is not None and cap.feasible
    assert cap.waypoints == task.waypoints.shape[0]

    finite = np.argwhere(np.isfinite(cap.inner_cost))
    i, j = map(int, finite[len(finite) // 2])
    path = extract_block_path(robot, task, cap, directions, i, j, CART_CFG)
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
    prefix = tasks[:2]
    columns = exhaustive_sparse_graph(robot, prefix, CART_CFG)
    sparse_cost, picks = chain_search(columns, robot.weights, robot.home)
    full_cost, paths = full_ladder_graph(robot, prefix, CART_CFG)
    assert sparse_cost == pytest.approx(full_cost, abs=COST_TOL)

    # the full-graph paths recompute to exactly the reported optimum
    limits = robot.jump_limits(CART_CFG.jump_limit, CART_CFG.prismatic_jump_limit)
    total = 0.0
    prev = robot.home
    for path in paths:
        total += float((np.abs(prev - path[0]) * robot.weights).sum())
        steps = np.abs(np.diff(path, axis=0))
        assert np.all(steps <= limits[None, :] + 1e-12)
        total += float((steps * robot.weights[None, :]).sum())
        prev = path[-1]
    assert total == pytest.approx(full_cost, abs=COST_TOL)


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
        assert result.built_capsules <= result.attempted
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
    cap = build_capsule(
        robot,
        task,
        directions[task.preferred_direction],
        task.preferred_direction,
        task.preferred_rotation,
        CART_CFG,
    )
    finite = np.argwhere(np.isfinite(cap.inner_cost))
    i, j = map(int, finite[0])
    block = extract_block_path(robot, task, cap, directions, i, j, CART_CFG)
    anchor = block[-1]
    node = task.waypoints[-1]

    path = plan_retraction(
        robot,
        node,
        directions[task.preferred_direction],
        task.preferred_rotation,
        anchor,
        task.scene_after,
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
        robot, path[1:], task.scene_after, clearance=CART_CFG.clearance
    )
    assert not hits.any()


def test_prepare_tasks_rejects_tampered_witness(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    import dataclasses

    # point the last task's witness straight down into the built structure
    down = len(sequence.directions) - 1
    tampered = dataclasses.replace(
        sequence.tasks[-1],
        direction_index=down,
        direction=tuple(float(v) for v in sequence.directions[down]),
    )
    bad = dataclasses.replace(
        sequence, tasks=sequence.tasks[:-1] + [tampered]
    )
    with pytest.raises(CartesianPlanningError, match="not sweep-feasible"):
        prepare_tasks(model, robot, bad, CART_CFG)


def test_plan_retraction_boxed_in_returns_none(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    task = tasks[0]
    directions = sequence.directions
    node = task.waypoints[-1]
    # a huge blob around the node leaves no collision-free retreat
    blob = CapsuleSet(
        (CapsuleShape(tuple(node - 1.0), tuple(node + 1.0), 400.0),)
    )
    path = plan_retraction(
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


# ---------------------------------------------------------------------------
# one collision query per sweep against the per-waypoint loop it replaced


def oracle_build_rungs(robot, waypoints, direction, rotation, scene, clearance):
    """`build_rungs` with one collision query per waypoint.  Also says why a
    block fails: ("empty", rung) or ("collision", rung)."""
    frame = pose_from_direction(waypoints[0], direction, rotation)
    families = ik_sweep(robot, frame[:3, :3], waypoints)
    rungs = []
    for r, fam in enumerate(families):
        if not fam:
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
            if not fam:
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
    start = route_start_node(planner.model, element_id, planner._placed)
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
        for a, rot in pairs:
            got = build_rungs(
                robot, task.waypoints, directions[a], rot, task.scene,
                clearance=CART_CFG.clearance,
            )
            want, why = oracle_build_rungs(
                robot, task.waypoints, directions[a], rot, task.scene, CART_CFG.clearance
            )
            assert same_rungs(got, want), (task.index, a, rot)
            if why is not None:
                last = len(task.waypoints) - 1
                reasons.add((why[0], "interior" if 0 < why[1] < last else "end"))
    assert any(kind == "empty" for kind, _ in reasons)
    assert ("collision", "interior") in reasons


def test_plan_retraction_matches_per_waypoint_loop(robot, cube_tasks):
    model, sequence, tasks = cube_tasks
    directions = sequence.directions
    for task in tasks:
        rungs = build_rungs(
            robot, task.waypoints, directions[task.preferred_direction],
            task.preferred_rotation, task.scene, clearance=CART_CFG.clearance,
        )
        anchor, node = rungs[-1][0], task.waypoints[-1]
        scenes = [task.scene_after]
        if task.index == 0:  # boxed in: every candidate direction fails
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
                assert (want is None) == (scene is not task.scene_after)
                assert same_rungs(plan_retraction(*args), want), (task.index, preferred)


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

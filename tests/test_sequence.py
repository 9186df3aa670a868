"""Sequence search: domain propagation, ordering rules, and full runs."""

import math
import sys
import types

import numpy as np
import pytest

from dense_collision import dense_ee_sweep_collision_batch
from trusspath import kinematics
from trusspath import sequence as sequence_module
from trusspath.config import PlannerConfig
from trusspath.fixtures import (
    DEFAULT_MATERIAL,
    DEFAULT_SECTION,
    bracing_tower,
    load_bundled_model,
    load_bundled_robot,
    random_truss,
)
from trusspath.geometry import (
    ee_element_collision,
    ee_self_collision,
    ee_sweep_collision_batch,
    sample_directions,
)
from trusspath.kinematics import build_rungs
from trusspath.sequence import (
    SWEEP_GROUP_POINTS,
    SequenceFormatError,
    SequencePlanner,
    SequencePlanningError,
    SweepTable,
    plan_sequence,
    render_stats_table,
    rotation_sequence,
    sequence_from_dict,
    sequence_to_dict,
)
from trusspath.structural import PartialStructure, analyze, check_stability, check_stiffness
from trusspath.truss import TrussModel, discretize_element, load_model

FAST = PlannerConfig(direction_count=16, rotation_samples=2)
# the starved lattice on which the cube search backtracks 78 times
SPARSE = PlannerConfig(direction_count=24, rotation_samples=2)
TOWER_CFG = PlannerConfig(direction_count=24, rotation_samples=4)


@pytest.fixture(scope="module")
def robot():
    return load_bundled_robot("arm")


@pytest.fixture(scope="module")
def tower_result(robot):
    model = bracing_tower()
    return model, plan_sequence(model, robot, TOWER_CFG)


def test_rotation_sequence_low_discrepancy():
    rolls = rotation_sequence(16)
    assert rolls[0] == 0.0
    assert rolls.shape == (16,)
    assert np.all((rolls >= 0.0) & (rolls < 2 * math.pi))
    assert len(np.unique(rolls.round(12))) == 16
    # successive prefixes stay spread out: max gap shrinks roughly like 1/n
    sorted8 = np.sort(rolls[:8])
    gaps = np.diff(np.append(sorted8, sorted8[0] + 2 * math.pi))
    assert gaps.max() < 2 * math.pi / 8 * 2.5


def chain_model():
    return load_model(
        {
            "nodes": [
                {"id": 0, "xyz": [0.0, 0.0, 0.0], "grounded": True},
                {"id": 1, "xyz": [100.0, 0.0, 0.0]},
                {"id": 2, "xyz": [200.0, 0.0, 0.0]},
                {"id": 3, "xyz": [150.0, 80.0, 0.0]},
            ],
            "elements": [
                {"id": 0, "start": 0, "end": 1},
                {"id": 1, "start": 1, "end": 2},
                {"id": 2, "start": 2, "end": 3},
                {"id": 3, "start": 1, "end": 3},
            ],
            "material": DEFAULT_MATERIAL,
            "section": DEFAULT_SECTION,
        }
    )


def route_start_node(model, element_id, placed):
    """Oracle for the planner's route rule, recounted over `placed`: an
    existing end (grounded or touched) first, then the end more placed
    elements touch, then the lower id."""
    elem = model.element(element_id)
    degree = {elem.start: 0, elem.end: 0}
    exists = {n: model.node(n).grounded for n in (elem.start, elem.end)}
    for pid in placed:
        other = model.element(pid)
        for n in (other.start, other.end):
            if n in degree:
                degree[n] += 1
                exists[n] = True
    a, b = elem.start, elem.end
    if exists[a] != exists[b]:
        return a if exists[a] else b
    if degree[a] != degree[b]:
        return a if degree[a] > degree[b] else b
    return min(a, b)


def test_route_start_node_rules(robot):
    model = chain_model()
    planner = SequencePlanner(model, robot, FAST)
    cases = [
        (0, [], 0),  # grounded endpoint anchors the pass
        (1, [0], 1),  # an endpoint touched by the built structure anchors it
        (2, [0, 1, 3], 2),  # both ends exist, equal degree: lower id
        (3, [0, 1, 2], 1),  # both ends exist, higher degree wins
    ]
    for eid, placed, want in cases:
        assert route_start_node(model, eid, placed) == want
        for pid in placed:
            planner._touch(pid, 1)
        assert planner._start_node(eid) == want
        for pid in placed:
            planner._touch(pid, -1)


def oracle_row(model, robot, cfg, directions, element_id, placed):
    """Feasible-direction bitset rebuilt from scratch for one element."""
    e = model.element(element_id)
    pts_min = discretize_element(
        model, element_id, cfg.path_spacing, start_node=min(e.start, e.end)
    )
    routes = [
        discretize_element(model, element_id, cfg.path_spacing, start_node=n)
        for n in (e.start, e.end)
    ]
    row = np.zeros(len(directions), dtype=bool)
    for a in range(len(directions)):
        d = directions[a]
        self_ok = any(
            not ee_self_collision(
                pts, d, 0.0, model.section.radius, robot.ee, clearance=cfg.clearance
            )
            for pts in routes
        )
        if not self_ok:
            continue
        blocked = any(
            ee_element_collision(
                pts_min,
                d,
                0.0,
                model.element_segment(pid),
                model.section.radius,
                robot.ee,
                clearance=cfg.clearance,
            )
            for pid in placed
        )
        row[a] = not blocked
    return row


def test_domain_propagation_matches_recompute(robot):
    # place elements through the planner's incremental updates, then rebuild
    # the surviving-direction bitsets from scratch at checkpoints
    for seed in (0, 1):
        model = random_truss(seed=seed)
        planner = SequencePlanner(model, robot, FAST)
        for eid in planner._ids:
            e = model.element(eid)
            union = planner.sweeps.self_mask(eid, e.start) | planner.sweeps.self_mask(eid, e.end)
            planner._domain[planner._index[eid]] &= union

        rng = np.random.default_rng(seed + 100)
        remaining = set(planner._ids)
        placed = []
        checkpoints = {4, 11, model.n_elements - 1}
        while remaining:
            options = [e for e in sorted(remaining) if planner._connect_ok(e)]
            if not options:
                break
            eid = int(rng.choice(options))
            if planner._place(eid, (0, 0.0), remaining) is None:
                continue
            placed.append(eid)
            if len(placed) in checkpoints:
                for oid in sorted(remaining):
                    expected = oracle_row(
                        model, robot, FAST, planner.directions, oid, placed
                    )
                    got = planner._domain[planner._index[oid]]
                    assert np.array_equal(got, expected), (seed, len(placed), oid)
        assert len(placed) >= model.n_elements - 1


def test_place_undo_restores_state(robot):
    model = random_truss(seed=2)
    planner = SequencePlanner(model, robot, FAST)
    remaining = set(planner._ids)
    first = next(e for e in sorted(remaining) if planner._connect_ok(e))
    out = planner._place(first, (0, 0.0), remaining)
    assert out is not None

    domain_before = planner._domain.copy()
    placed_before = list(planner._placed)
    touching_before = dict(planner._touching)
    scene_before = len(planner._scene)
    tasks_before = len(planner._tasks)

    second = next(e for e in sorted(remaining) if planner._connect_ok(e))
    undo = planner._place(second, (1, 0.5), remaining)
    assert undo is not None
    assert len(planner._placed) == len(placed_before) + 1
    assert second not in remaining

    planner._unplace(second, undo, remaining)
    assert np.array_equal(planner._domain, domain_before)
    assert planner._placed == placed_before
    assert planner._touching == touching_before
    assert len(planner._scene) == scene_before
    assert len(planner._tasks) == tasks_before
    assert second in remaining


def test_tower_sequence_is_printable(tower_result, robot):
    model, result = tower_result
    tasks = result.tasks
    assert len(tasks) == model.n_elements
    assert sorted(t.element for t in tasks) == sorted(e.id for e in model.elements)
    positions = [t["position"] for t in sequence_to_dict(result)["tasks"]]
    assert positions == list(range(len(tasks)))

    built_nodes = {n.id for n in model.nodes if n.grounded}
    placed = []
    for task in tasks:
        e = model.element(task.element)
        # connectivity: one endpoint must already exist, and the pass starts there
        assert e.start in built_nodes or e.end in built_nodes
        assert task.start_node in (e.start, e.end)
        assert task.start_node in built_nodes

        # structural safety of the new prefix, recomputed independently
        prefix = PartialStructure(model, tuple(placed + [task.element]))
        res = analyze(prefix)
        assert check_stiffness(prefix, TOWER_CFG.displacement_tolerance, result=res)
        assert check_stability(prefix, result=res)

        # the chosen direction clears the fresh bead on its own route and
        # sweeps past everything already printed
        pts = discretize_element(
            model, task.element, TOWER_CFG.path_spacing, start_node=task.start_node
        )
        direction = result.directions[task.direction_index]
        assert not ee_self_collision(
            pts, direction, task.rotation, model.section.radius, robot.ee,
            clearance=TOWER_CFG.clearance,
        )
        for pid in placed:
            assert not ee_element_collision(
                pts,
                direction,
                task.rotation,
                model.element_segment(pid),
                model.section.radius,
                robot.ee,
                clearance=TOWER_CFG.clearance,
            )
        placed.append(task.element)
        built_nodes.update((e.start, e.end))


def test_tower_layers_build_in_order(tower_result):
    model, result = tower_result
    layers = [model.element(t.element).layer for t in result.tasks]
    assert layers == sorted(layers)


def test_flat_mode_covers_all_elements(robot):
    model = bracing_tower()
    cfg = TOWER_CFG.replace(use_decomposition=False)
    result = plan_sequence(model, robot, cfg)
    assert sorted(t.element for t in result.tasks) == sorted(
        e.id for e in model.elements
    )


def test_collision_cost_ordering_runs(robot):
    model = bracing_tower()
    cfg = TOWER_CFG.replace(collision_cost_ordering=True)
    result = plan_sequence(model, robot, cfg)
    assert len(result.tasks) == model.n_elements
    assert result.stats.collision_cost_checks > 0
    assert result.stats.collision_cost_time > 0.0


def test_search_timeout_raises_with_stats(robot):
    model = bracing_tower()
    with pytest.raises(SequencePlanningError, match="exceeded") as info:
        plan_sequence(model, robot, FAST.replace(search_timeout=1e-6))
    assert info.value.stats is not None
    assert info.value.stats.partial_states == 0


def test_partial_states_count_accepted_placements(robot):
    # on the cube, some placements empty a peer's direction set and are
    # undone at once; those count as refused, not as partial states
    model = load_bundled_model("cube")
    cfg = PlannerConfig(direction_count=32, rotation_samples=2)
    stats = plan_sequence(model, robot, cfg).stats
    assert stats.refused_placements > 0
    assert stats.partial_states == len(model.elements) + stats.backtracks


def test_sequence_dict_round_trip(tower_result):
    _, result = tower_result
    doc = sequence_to_dict(result)
    again = sequence_from_dict(doc)
    assert len(again.tasks) == len(result.tasks)
    for a, b in zip(again.tasks, result.tasks):
        assert a == b
    assert np.array_equal(again.directions, result.directions)

    good = sequence_to_dict(result)
    for bad in (
        [],
        {k: v for k, v in good.items() if k != "tasks"},
        dict(good, stats={"bogus": 1}),
        dict(good, direction_count="many"),
        dict(good, tasks=[{"position": 0}]),
    ):
        with pytest.raises(SequenceFormatError):
            sequence_from_dict(bad)

    doc["tasks"][0]["direction"] = [1.0, 0.0, 0.0]
    with pytest.raises(SequenceFormatError, match="does not match"):
        sequence_from_dict(doc)


def test_sequence_document_positions_are_list_indices(tower_result):
    # the position labels the task in every later error and the scene
    # prefixes follow list order, so a label that differs would mislead
    _, result = tower_result
    doc = sequence_to_dict(result)
    for tasks in (
        doc["tasks"][::-1],
        [dict(t, position=t["position"] + 1) for t in doc["tasks"]],
        doc["tasks"][1:],
    ):
        with pytest.raises(SequenceFormatError, match="is not its place in the task list"):
            sequence_from_dict(dict(doc, tasks=tasks))
    assert sequence_from_dict(doc).tasks == result.tasks


def _edit_first_task(doc, key, value):
    if key == "direction":
        doc["tasks"][0]["direction"][1] = value
    else:
        doc["tasks"][0][key] = value
    return doc


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("direction", math.nan, "not a finite number"),
        ("rotation", math.nan, "not a finite number"),
        ("rotation", math.inf, "not a finite number"),
        ("element", 0.5, "is not an integer"),
        ("position", True, "is not an integer"),
        ("start_node", "0", "is not an integer"),
        ("direction_index", 1.5, "is not an integer"),
        ("direction_index", -1, "off the lattice"),
    ],
    ids=["nan-direction", "nan-rotation", "inf-rotation", "fractional-element",
         "bool-position", "string-start-node", "fractional-index", "negative-index"],
)
def test_sequence_document_values_must_be_what_they_say(tower_result, key, value, message):
    # NaN never exceeds the lattice tolerance and int() truncates, so these
    # once loaded as a different sequence
    _, result = tower_result
    doc = _edit_first_task(sequence_to_dict(result), key, value)
    with pytest.raises(SequenceFormatError, match=message):
        sequence_from_dict(doc)


def test_sequence_document_reads_integral_floats_as_integers(tower_result):
    _, result = tower_result
    doc = sequence_to_dict(result)
    doc["direction_count"] = float(doc["direction_count"])
    doc["tasks"][0]["element"] = float(doc["tasks"][0]["element"])
    assert sequence_from_dict(doc).tasks == result.tasks


def test_search_runs_deeper_than_the_recursion_limit(robot, monkeypatch):
    # a straight chain off one grounded node, one element per level, with
    # every check except connectivity stubbed to pass
    n = sys.getrecursionlimit() + 100
    model = load_model(
        {
            "nodes": [
                {"id": i, "xyz": [10.0 * i, 0.0, 0.0], "grounded": i == 0}
                for i in range(n + 1)
            ],
            "elements": [{"id": i, "start": i, "end": i + 1} for i in range(n)],
            "material": DEFAULT_MATERIAL,
            "section": DEFAULT_SECTION,
        }
    )
    planner = SequencePlanner(model, robot, FAST)
    clear = np.ones(FAST.direction_count, dtype=bool)
    monkeypatch.setattr(planner, "_structural_ok", lambda eid: True)
    monkeypatch.setattr(planner, "_ee_pose_exists", lambda eid: (0, 0.0))
    monkeypatch.setattr(planner, "_prune_against", lambda ids, pid: [])
    monkeypatch.setattr(planner.sweeps, "self_masks", lambda routes: [clear] * len(routes))
    result = planner.plan()
    assert [t.element for t in result.tasks] == list(range(n))
    assert result.stats.backtracks == 0


def test_render_stats_table_layout(tower_result):
    _, result = tower_result
    table = render_stats_table([("layered", result.stats), ("flat", result.stats)])
    lines = table.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "stiff+stab [s|n]" in lines[0]
    assert "coll-cost [s|n]" in lines[0]
    assert lines[2].startswith("layered")
    assert lines[3].startswith("flat")


class NoMemo(set):
    """A dead-set memo that stores nothing: the search without nogoods."""

    def add(self, mask):
        pass


def test_dead_set_memo_keeps_the_plain_search_tasks(robot):
    # the search with dead placed sets recorded finds the same first
    # solution as the one without, in fewer steps; counts are
    # (backtracks, stiffness checks, kinematics checks, dead refusals)
    cases = [
        (load_bundled_model("cube"), SPARSE, (17, 99, 99, 14), (78, 292, 292)),
        (
            bracing_tower(stories=1, origin=(650.0, 0.0)),
            PlannerConfig(direction_count=32, rotation_samples=2),
            (32, 76, 76, 52),
            (412, 836, 836),
        ),
    ]
    for model, cfg, memo_counts, plain_counts in cases:
        memo = SequencePlanner(model, robot, cfg)
        plain = SequencePlanner(model, robot, cfg)
        plain._dead = NoMemo()
        got, want = memo.plan(), plain.plan()
        assert got.tasks == want.tasks
        s = got.stats
        assert (s.backtracks, s.stiffness_checks, s.kinematics_checks, s.dead_refusals) == memo_counts
        s = want.stats
        assert (s.backtracks, s.stiffness_checks, s.kinematics_checks) == plain_counts
        assert len(memo._dead) > 0


def test_probe_past_its_guard_raises_with_stats(robot):
    # the probe's wall clock only aborts the search; it never answers
    # "infeasible" in place of the probe
    model = load_bundled_model("cube")
    starved = SPARSE.replace(kinematics_timeout=1e-9)
    with pytest.raises(SequencePlanningError, match="kinematics_timeout") as info:
        plan_sequence(model, robot, starved)
    stats = info.value.stats
    assert stats.kinematics_checks >= 1 and stats.kinematics_time > 0.0
    assert stats.total_time > 0.0

    planner = SequencePlanner(model, robot, starved)
    eid = next(e for e in planner._ids if planner._connect_ok(e))
    with pytest.raises(SequencePlanningError) as info:
        planner._ee_pose_exists(eid)
    assert info.value.stats is planner.stats
    planner.config = SPARSE
    assert planner._ee_pose_exists(eid) is not None
    assert planner.stats.kinematics_checks == 2


def test_probe_inputs_are_a_function_of_the_placed_set(robot):
    # random place / refused placement / unplace interleavings; after every
    # step, what a probe reads must equal its recomputation from the set
    model = load_bundled_model("cube")
    planner = SequencePlanner(model, robot, SPARSE)

    def ends(eid):
        return model.element(eid).start, model.element(eid).end

    union = {}
    for eid in planner._ids:
        a, b = ends(eid)
        union[eid] = planner.sweeps.self_mask(eid, a) | planner.sweeps.self_mask(eid, b)
        planner._domain[planner._index[eid]] &= union[eid]
    grounded = {n.id for n in model.nodes if n.grounded}
    rng = np.random.default_rng(11)
    remaining = set(planner._ids)
    stack = []
    refused = unplaced = 0
    for _ in range(400):
        options = [e for e in sorted(remaining) if planner._connect_ok(e)]
        if stack and (not options or rng.random() < 0.35):
            eid, undo = stack.pop()
            planner._unplace(eid, undo, remaining)
            unplaced += 1
        else:
            eid = int(rng.choice(options))
            undo = planner._place(eid, (0, 0.0), remaining)
            if undo is None:
                refused += 1
            else:
                stack.append((eid, undo))

        placed = {e for e, _ in stack}
        assert set(planner._placed) == placed
        assert planner._placed_mask == sum(1 << planner._index[p] for p in placed)
        for oid in sorted(remaining):
            want = union[oid].copy()
            for block in planner.sweeps.pair_blocks([(oid, pid) for pid in placed]):
                want &= ~block
            assert np.array_equal(planner._domain[planner._index[oid]], want), oid
            assert planner._start_node(oid) == route_start_node(model, oid, sorted(placed))
            built = grounded | {n for p in placed for n in ends(p)}
            assert planner._connect_ok(oid) == bool(set(ends(oid)) & built)
        assert len(planner._scene) == len(placed)
        assert set(planner._scene.capsules) == {model.element_capsules[p] for p in placed}
        assert planner._touching == {
            n.id: sum(n.id in ends(p) for p in placed) for n in model.nodes
        }
    assert refused > 0 and unplaced > 0


# ---------------------------------------------------------------------------
# the memo probe against one `build_rungs` call per orientation


def build_rungs_probe(planner, element_id):
    """The feasibility probe without its memo: one `build_rungs` call per
    (direction, roll) against the placed elements' scene, in the probe's
    order, with no time limit."""
    start = planner._start_node(element_id)
    row = planner._domain[planner._index[element_id]] & planner.sweeps.self_mask(
        element_id, start
    )
    pts = planner.sweeps.waypoints(element_id, start)
    scene = planner._scene
    for a in np.flatnonzero(row):
        for rot in planner._rotations:
            rungs = build_rungs(
                planner.robot, pts, planner.directions[a], float(rot), scene,
                clearance=planner.config.clearance,
            )
            if rungs is not None:
                return int(a), float(rot)
    return None


class BuildRungsPlanner(SequencePlanner):
    """The search with `build_rungs_probe` in place of the memo probe."""

    def _ee_pose_exists(self, element_id):
        self.stats.kinematics_checks += 1
        return build_rungs_probe(self, element_id)


def counters(stats):
    """Every `SearchStats` count, without the times."""
    return {k: v for k, v in stats.as_dict().items() if not k.endswith("_time")}


def start_domains(planner):
    """Narrow every bitset to its routes' self-clear union, as the search does."""
    for eid in planner._ids:
        e = planner.model.element(eid)
        union = planner.sweeps.self_mask(eid, e.start) | planner.sweeps.self_mask(eid, e.end)
        planner._domain[planner._index[eid]] &= union


def test_memo_probe_equals_build_rungs_probe_under_place_and_unplace(robot):
    # random place / refused placement / unplace interleavings on the cube;
    # after every step, both probes on a sample of the connected elements
    model = load_bundled_model("cube")
    planner = SequencePlanner(model, robot, SPARSE.replace(kinematics_timeout=600.0))
    start_domains(planner)
    rng = np.random.default_rng(12)
    remaining = set(planner._ids)
    stack = []
    refused = unplaced = 0
    witnesses = set()
    for _ in range(300):
        options = [e for e in sorted(remaining) if planner._connect_ok(e)]
        if stack and (not options or rng.random() < 0.35):
            eid, undo = stack.pop()
            planner._unplace(eid, undo, remaining)
            unplaced += 1
        else:
            eid = int(rng.choice(options))
            undo = planner._place(eid, (0, 0.0), remaining)
            if undo is None:
                refused += 1
            else:
                stack.append((eid, undo))
        options = [e for e in sorted(remaining) if planner._connect_ok(e)]
        for oid in rng.choice(options, size=min(3, len(options)), replace=False).tolist():
            got = planner._ee_pose_exists(oid)
            assert got == build_rungs_probe(planner, oid), (oid, planner._placed)
            witnesses.add(got is None)
    assert refused > 0 and unplaced > 0
    assert witnesses == {True, False}
    # the memo answered some probes from columns an earlier probe filled
    assert any(entry is not None and entry[3].any() for entry in planner._reach.values())


@pytest.mark.parametrize(
    "case",
    ["cube-dense", "cube-sparse", "tower-5", "tower-6"],
)
def test_memo_search_equals_build_rungs_search(robot, case):
    if case.startswith("cube"):
        model = load_bundled_model("cube")
        config = PlannerConfig() if case == "cube-dense" else SPARSE
    else:
        model = bracing_tower(stories=int(case[len("tower-"):]))
        config = PlannerConfig(search_timeout=600.0)
    config = config.replace(kinematics_timeout=600.0)
    got = SequencePlanner(model, robot, config).plan()
    want = BuildRungsPlanner(model, robot, config).plan()
    got_doc, want_doc = sequence_to_dict(got), sequence_to_dict(want)
    assert got_doc["tasks"] == want_doc["tasks"]
    assert counters(got.stats) == counters(want.stats)
    if case in ("cube-sparse", "tower-6"):
        assert got.stats.backtracks > 0


def counting_kinematics(monkeypatch):
    """Count calls of the IK, forward-kinematics, collision-query and
    exact-kernel entry points the probe reaches."""
    calls = {name: 0 for name in ("ik_sweep", "fk_frames_batch", "config_collides_batch", "mark_contacts")}
    for name in calls:
        real = getattr(kinematics, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(kinematics, name, counting)
    return calls


def failing_probe_state(robot, guard):
    """A planner holding a placed set of the cube's SPARSE search on which
    its probe of element 19 fails, and the elements still to place."""
    model = load_bundled_model("cube")
    planner = SequencePlanner(model, robot, SPARSE.replace(kinematics_timeout=guard))
    start_domains(planner)
    remaining = set(planner._ids)
    for eid in (0, 1, 2, 3, 12, 4, 5, 6, 7, 13, 18, 16):
        assert planner._place(eid, (0, 0.0), remaining)
    return planner, remaining


def test_a_repeated_probe_runs_no_kinematics(robot, monkeypatch):
    # a second probe of every connected element makes no IK,
    # forward-kinematics, collision-query or exact-kernel call
    planner, remaining = failing_probe_state(robot, 600.0)
    calls = counting_kinematics(monkeypatch)
    probes = sorted(e for e in remaining if planner._connect_ok(e))
    first = [planner._ee_pose_exists(eid) for eid in probes]
    assert first[probes.index(19)] is None
    assert calls["ik_sweep"] > 0 and calls["mark_contacts"] > 0
    calls.update(dict.fromkeys(calls, 0))
    again = [planner._ee_pose_exists(eid) for eid in probes]
    assert again == first
    assert calls == dict.fromkeys(calls, 0)
    assert first == [build_rungs_probe(planner, eid) for eid in probes]


def test_a_probe_aborted_by_its_guard_leaves_whole_memo_entries(robot, monkeypatch):
    # a clock that ticks once per reading aborts each probe at its second
    # orientation; every entry it leaves is whole, and the probe rerun with
    # a real clock and a generous guard answers as `build_rungs` does
    planner, remaining = failing_probe_state(robot, 1.5)
    placed = [planner._index[p] for p in planner._placed]
    clock = [0.0]

    def tick():
        clock[0] += 1.0
        return clock[0]

    aborted = []
    for eid in sorted(e for e in remaining if planner._connect_ok(e)):
        before = set(planner._reach)
        with monkeypatch.context() as patch:
            patch.setattr(sequence_module, "time", types.SimpleNamespace(monotonic=tick))
            try:
                planner._ee_pose_exists(eid)
            except SequencePlanningError:
                aborted.append(eid)
                assert len(set(planner._reach) - before) == 1
        for entry in planner._reach.values():
            if entry is not None:
                owner, _, contacts, known = entry
                assert contacts.shape == (len(owner), len(planner._ids))
                assert known[placed].all()
    assert aborted == [19]
    planner.config = SPARSE.replace(kinematics_timeout=600.0)
    assert planner._ee_pose_exists(19) is None is build_rungs_probe(planner, 19)


@pytest.mark.parametrize("config", [PlannerConfig(), SPARSE], ids=["cube-dense", "cube-sparse"])
def test_sequence_search_builds_at_most_one_scene(robot, monkeypatch, config):
    model = load_bundled_model("cube")
    built, real_scene = [], TrussModel.scene

    def counting_scene(self, element_ids):
        built.append(list(element_ids))
        return real_scene(self, element_ids)

    monkeypatch.setattr(TrussModel, "scene", counting_scene)
    plan_sequence(model, robot, config.replace(kinematics_timeout=600.0))
    assert len(built) <= 1


def cube_jobs(table):
    """The sweep jobs of the cube: (pair, (path, q0, q1)) for every ordered
    (element, placed element) pair and (route, (path, q0, q1)) for every
    self-bead route, as `SweepTable` poses them."""
    model = table.model
    pairs, routes = [], []
    for e in model.elements:
        pts = table.waypoints(e.id, min(e.start, e.end))
        for p in model.elements:
            if p.id != e.id:
                pairs.append(((e.id, p.id), (pts, *model.element_segment(p.id))))
        for n in (e.start, e.end):
            route = table.waypoints(e.id, n)
            routes.append(((e.id, n), (route[1:], route[0], route[1:])))
    return pairs, routes


def stacked_hits(table, jobs):
    """One stacked kernel call over `jobs`, unsplit."""
    points, q0, q1 = (
        np.concatenate([np.broadcast_to(job[i], job[0].shape) for job in jobs]) for i in range(3)
    )
    owner = np.repeat(np.arange(len(jobs)), [len(job[0]) for job in jobs])
    radius, clearance = table.model.section.radius, table.config.clearance
    return ee_sweep_collision_batch(
        points, table._rotations, q0, q1, radius, table.ee, clearance, owner=owner
    )


def test_stacked_sweeps_equal_the_dense_oracle_on_every_cube_job(robot):
    # all 506 ordered pairs, stacked per placed element, and all 46 routes in
    # one stack, at 72 directions: each job gets the dense kernel's booleans
    config = PlannerConfig(direction_count=72)
    table = SweepTable(load_bundled_model("cube"), robot.ee, sample_directions(72), config)
    pairs, routes = cube_jobs(table)
    assert (len(pairs), len(routes)) == (506, 46)
    stacks = [[job for (_, pid), job in pairs if pid == p] for p in sorted({k[1] for k, _ in pairs})]
    stacks.append([job for _, job in routes])
    radius, clearance = table.model.section.radius, config.clearance
    outcomes = set()
    for jobs in stacks:
        for row, (pts, q0, q1) in zip(stacked_hits(table, jobs), jobs):
            want = dense_ee_sweep_collision_batch(
                pts, table._rotations, q0, q1, radius, robot.ee, clearance
            )[0]
            assert np.array_equal(row, want)
            outcomes.update(row.tolist())
    assert outcomes == {True, False}


@pytest.mark.parametrize("group", [7, SWEEP_GROUP_POINTS])
def test_batch_filled_sweep_table_equals_one_entry_fills(robot, monkeypatch, group):
    # with groups cut inside jobs (7 points) or across them (the default)
    model = load_bundled_model("cube")
    directions = sample_directions(SPARSE.direction_count)
    single = SweepTable(model, robot.ee, directions, SPARSE)
    pairs, routes = ([key for key, _ in jobs] for jobs in cube_jobs(single))
    want_blocks = [single.pair_blocks([key])[0] for key in pairs]
    want_masks = [single.self_mask(*key) for key in routes]
    monkeypatch.setattr(sequence_module, "SWEEP_GROUP_POINTS", group)
    batched = SweepTable(model, robot.ee, directions, SPARSE)
    for got, want in zip(batched.pair_blocks(pairs), want_blocks):
        assert np.array_equal(got, want)
    for got, want in zip(batched.self_masks(routes), want_masks):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "config",
    [PlannerConfig(), SPARSE, SPARSE.replace(collision_cost_ordering=True)],
    ids=["72x16", "24x2", "24x2+coll-cost"],
)
def test_search_does_not_depend_on_sweep_fill_batching(robot, monkeypatch, config):
    # a table that fills one entry per kernel call, as a per-pair fill does,
    # gives the same tasks and the same counters
    model = load_bundled_model("cube")
    batched = plan_sequence(model, robot, config)
    fill = SweepTable._hits

    def one_job_per_call(table, jobs):
        hit = np.zeros((len(jobs), len(table._rotations)), dtype=bool)
        for row, job in zip(hit, jobs):
            row[:] = fill(table, [job])[0]
        return hit

    monkeypatch.setattr(SweepTable, "_hits", one_job_per_call)
    single = plan_sequence(model, robot, config)
    assert single.tasks == batched.tasks
    assert counters(single.stats) == counters(batched.stats)


def test_a_placement_fills_its_blocks_in_grouped_calls(robot, monkeypatch):
    # the call-count guard: one placement's blocks, and the search's start
    # masks, cost at most one kernel call per SWEEP_GROUP_POINTS path points,
    # and a second request for the same entries costs none
    model = load_bundled_model("cube")
    planner = SequencePlanner(model, robot, SPARSE)
    kernel, calls = sequence_module.ee_sweep_collision_batch, []

    def counting(points, *args, **kwargs):
        calls.append(len(points))
        return kernel(points, *args, **kwargs)

    monkeypatch.setattr(sequence_module, "ee_sweep_collision_batch", counting)
    placed, others = planner._ids[0], planner._ids[1:]
    planner._prune_against(others, placed)
    points = sum(
        len(planner.sweeps.waypoints(e, min(model.element(e).start, model.element(e).end)))
        for e in others
    )
    assert 1 < len(calls) <= math.ceil(points / SWEEP_GROUP_POINTS)
    assert sum(calls) == points
    calls.clear()
    planner._prune_against(others, placed)
    planner.sweeps.pair_blocks([(e, placed) for e in others])
    assert not calls

    routes = [(e.id, n) for e in model.elements for n in (e.start, e.end)]
    planner.sweeps.self_masks(routes)
    points = sum(len(planner.sweeps.waypoints(*route)) - 1 for route in routes)
    assert len(calls) <= math.ceil(points / SWEEP_GROUP_POINTS)
    calls.clear()
    planner.sweeps.self_masks(routes)
    assert not calls

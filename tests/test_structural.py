"""Frame analysis against closed-form oracles and equilibrium identities."""

import numpy as np
import pytest

from trusspath import sequence
from trusspath.config import PlannerConfig
from trusspath.fixtures import (
    DEFAULT_MATERIAL,
    DEFAULT_SECTION,
    bracing_tower,
    load_bundled_model,
    load_bundled_robot,
)
from trusspath.structural import (
    _MILLI,
    DEFAULT_GRAVITY,
    PartialStructure,
    StiffnessResult,
    StructuralError,
    analyze,
    center_of_gravity,
    check_stability,
    check_stiffness,
    element_mass,
    element_rotation,
    local_stiffness,
    support_hull,
)
from trusspath.truss import load_model

E_MOD = DEFAULT_MATERIAL["elastic_modulus"]
DENSITY = DEFAULT_MATERIAL["density"]
AREA = DEFAULT_SECTION["area"]
INERTIA = DEFAULT_SECTION["iy"]
GRAVITY_N_PER_KG = 9810.0 * 1e-3  # mm/s^2 to N per kg


def column_model(n_elements, length=1000.0):
    """Vertical column split into n equal frame elements, clamped at base."""
    nodes = [
        {"id": i, "xyz": [0.0, 0.0, length * i / n_elements], "grounded": i == 0}
        for i in range(n_elements + 1)
    ]
    elements = [{"id": i, "start": i, "end": i + 1} for i in range(n_elements)]
    return load_model(
        {
            "nodes": nodes,
            "elements": elements,
            "material": DEFAULT_MATERIAL,
            "section": DEFAULT_SECTION,
        }
    )


def bar_model(points, element_pairs, grounded):
    nodes = [
        {"id": i, "xyz": list(map(float, p)), "grounded": i in grounded}
        for i, p in enumerate(points)
    ]
    elements = [
        {"id": k, "start": a, "end": b} for k, (a, b) in enumerate(element_pairs)
    ]
    return load_model(
        {
            "nodes": nodes,
            "elements": elements,
            "material": DEFAULT_MATERIAL,
            "section": DEFAULT_SECTION,
        }
    )


def test_element_mass_formula():
    model = column_model(1, length=1000.0)
    # density[kg/m^3] * volume[mm^3] * 1e-9 -> kg
    expected = DENSITY * AREA * 1000.0 * 1e-9
    assert element_mass(model, 0) == pytest.approx(expected, rel=1e-12)


def test_local_stiffness_entries():
    k = local_stiffness(E_MOD, 1300.0, AREA, INERTIA, INERTIA, 2 * INERTIA, 250.0)
    assert k.shape == (12, 12)
    assert np.allclose(k, k.T)
    assert k[0, 0] == pytest.approx(E_MOD * AREA / 250.0)
    assert k[0, 6] == pytest.approx(-E_MOD * AREA / 250.0)
    assert k[3, 3] == pytest.approx(1300.0 * 2 * INERTIA / 250.0)
    assert k[1, 1] == pytest.approx(12 * E_MOD * INERTIA / 250.0**3)
    assert k[5, 5] == pytest.approx(4 * E_MOD * INERTIA / 250.0)
    # rigid translation produces no force
    rigid = np.zeros(12)
    rigid[0] = rigid[6] = 1.0
    assert np.allclose(k @ rigid, 0.0, atol=1e-9)


def test_element_rotation_frames():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p0 = rng.uniform(-100, 100, 3)
        p1 = p0 + rng.normal(size=3) * 50.0
        if np.linalg.norm(p1 - p0) < 1.0:
            continue
        rot = element_rotation(p0, p1)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        axis = (p1 - p0) / np.linalg.norm(p1 - p0)
        assert np.allclose(rot[0], axis, atol=1e-12)
    with pytest.raises(StructuralError):
        element_rotation(np.zeros(3), np.zeros(3))


def test_column_self_weight_matches_closed_form():
    # with half-half weight lumping the discrete tip displacement equals the
    # continuum value rho*g*L^2/(2E) for any number of segments
    length = 1000.0
    expected = -(DENSITY * 1e-9) * (9810.0 * 1e-3) * length**2 / (2.0 * E_MOD)
    for n in (1, 4, 9):
        model = column_model(n, length)
        res = analyze(PartialStructure(model, tuple(range(n))))
        assert not res.singular
        assert res.residual < 1e-9
        tip = res.displacements[n][2]
        assert tip == pytest.approx(expected, rel=1e-9)


def test_cantilever_bending_matches_closed_form():
    # one horizontal element: half the weight acts as a tip point load, and
    # cubic beam elements represent a tip-loaded cantilever exactly
    length = 800.0
    model = bar_model([(0, 0, 0), (length, 0, 0)], [(0, 1)], grounded={0})
    res = analyze(PartialStructure(model, (0,)))
    weight = element_mass(model, 0) * GRAVITY_N_PER_KG
    tip_deflection = -(weight / 2.0) * length**3 / (3.0 * E_MOD * INERTIA)
    tip_rotation = (weight / 2.0) * length**2 / (2.0 * E_MOD * INERTIA)
    assert res.displacements[1][2] == pytest.approx(tip_deflection, rel=1e-9)
    assert res.displacements[1][4] == pytest.approx(tip_rotation, rel=1e-9)
    assert res.max_translation == pytest.approx(abs(tip_deflection), rel=1e-9)


def test_reactions_balance_total_weight():
    model = load_bundled_model("cube")
    prefix = PartialStructure(model, tuple(range(model.n_elements)))
    res = analyze(prefix)
    assert not res.singular
    assert res.residual < 1e-9
    total_weight = sum(
        element_mass(model, e.id) for e in model.elements
    ) * GRAVITY_N_PER_KG
    reaction_z = sum(v[2] for v in res.reactions.values())
    assert reaction_z == pytest.approx(total_weight, rel=1e-9)
    # no lateral net force under purely vertical load
    assert sum(v[0] for v in res.reactions.values()) == pytest.approx(0.0, abs=1e-12)
    assert sum(v[1] for v in res.reactions.values()) == pytest.approx(0.0, abs=1e-12)


def test_floating_prefix_is_singular():
    # chain 0g-1-2-3; the far element alone has no path to ground
    model = bar_model(
        [(0, 0, 0), (100, 0, 0), (200, 0, 0), (300, 0, 0)],
        [(0, 1), (1, 2), (2, 3)],
        grounded={0},
    )
    res = analyze(PartialStructure(model, (2,)))
    assert res.singular
    assert not check_stiffness(PartialStructure(model, (2,)), 1.0)
    assert not check_stability(PartialStructure(model, (2,)))
    # the full chain is fine
    assert not analyze(PartialStructure(model, (0, 1, 2))).singular


def test_check_stiffness_threshold():
    stiff = column_model(2)
    assert check_stiffness(PartialStructure(stiff, (0, 1)), tolerance=1.0)
    # the floppy 800 mm cantilever sags hundreds of mm
    floppy = bar_model([(0, 0, 0), (800, 0, 0)], [(0, 1)], grounded={0})
    partial = PartialStructure(floppy, (0,))
    assert not check_stiffness(partial, tolerance=1.0)
    assert check_stiffness(partial, tolerance=1e6)
    # empty prefix is trivially fine
    assert check_stiffness(PartialStructure(stiff, ()), 1.0)


def test_analyze_rejects_empty_and_duplicate():
    model = column_model(2)
    with pytest.raises(StructuralError):
        analyze(PartialStructure(model, ()))
    with pytest.raises(StructuralError):
        PartialStructure(model, (0, 0))


def test_center_of_gravity_and_hull():
    model = bar_model(
        [(0, 0, 0), (100, 0, 0), (50, 0, 80)],
        [(0, 2), (1, 2), (0, 1)],
        grounded={0, 1},
    )
    partial = PartialStructure(model, (0, 1))
    cog = center_of_gravity(partial)
    # two equal-length struts, midpoints (25,0,40) and (75,0,40)
    assert np.allclose(cog, [50.0, 0.0, 40.0])
    hull = support_hull(partial)
    assert hull.shape == (2, 2)
    assert support_hull(PartialStructure(model, (0,))).shape == (1, 2)


def test_stability_depends_on_support_extent():
    model = bar_model(
        [(0, 0, 0), (100, 0, 0), (50, 0, 80)],
        [(0, 2), (1, 2), (0, 1)],
        grounded={0, 1},
    )
    # one leg only: support is a single point under a slanted strut
    assert not check_stability(PartialStructure(model, (0,)))
    # both legs: weight projects onto the segment between the feet
    assert check_stability(PartialStructure(model, (0, 1)))


def test_stability_rejects_uplift():
    model = bar_model(
        [(0, 0, 0), (100, 0, 0), (50, 0, 80)],
        [(0, 2), (1, 2), (0, 1)],
        grounded={0, 1},
    )
    partial = PartialStructure(model, (0, 1))
    real = analyze(partial)
    assert check_stability(partial, result=real)
    # same geometry, but one support asked to hold the structure down
    forged = StiffnessResult(
        displacements=real.displacements,
        reactions={
            0: np.array([0.0, 0.0, -1e-3, 0.0, 0.0, 0.0]),
            1: real.reactions[1],
        },
        max_translation=real.max_translation,
        residual=real.residual,
        singular=False,
    )
    assert not check_stability(partial, result=forged)


def oracle_analyze(partial, gravity=DEFAULT_GRAVITY):
    """`analyze` as it was before the per-model frame table: every element's
    stiffness, rotation and mass rebuilt on each call."""
    model = partial.model
    g = np.asarray(gravity, dtype=float)
    node_ids = sorted(
        {model.element(eid).start for eid in partial.element_ids}
        | {model.element(eid).end for eid in partial.element_ids}
    )
    index = {nid: i for i, nid in enumerate(node_ids)}
    ndof = 6 * len(node_ids)
    K = np.zeros((ndof, ndof))
    f = np.zeros(ndof)
    mat, sec = model.material, model.section
    for eid in partial.element_ids:
        e = model.element(eid)
        p0 = model.node_position(e.start)
        p1 = model.node_position(e.end)
        length = float(np.linalg.norm(p1 - p0))
        k_local = local_stiffness(
            mat.elastic_modulus, mat.shear_modulus, sec.area, sec.iy, sec.iz, sec.j, length
        )
        rot = element_rotation(p0, p1)
        T = np.zeros((12, 12))
        for b in range(4):
            T[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = rot
        k_global = T.T @ k_local @ T
        dofs = np.r_[6 * index[e.start] + np.arange(6), 6 * index[e.end] + np.arange(6)]
        K[np.ix_(dofs, dofs)] += k_global
        half_weight = 0.5 * element_mass(model, eid) * g * _MILLI
        f[6 * index[e.start] : 6 * index[e.start] + 3] += half_weight
        f[6 * index[e.end] : 6 * index[e.end] + 3] += half_weight
    fixed = np.zeros(ndof, dtype=bool)
    for nid in node_ids:
        if model.node(nid).grounded:
            fixed[6 * index[nid] : 6 * index[nid] + 6] = True
    free = ~fixed
    u = np.zeros(ndof)
    singular = False
    residual = 0.0
    if free.any():
        Kff = K[np.ix_(free, free)]
        ff = f[free]
        try:
            c = np.linalg.cholesky(Kff)
            uf = np.linalg.solve(c.T, np.linalg.solve(c, ff))
        except np.linalg.LinAlgError:
            singular = True
            uf = np.zeros(free.sum())
        if not singular:
            norm_f = np.linalg.norm(ff)
            residual = float(np.linalg.norm(Kff @ uf - ff) / (norm_f if norm_f > 0 else 1.0))
            if not np.all(np.isfinite(uf)) or residual > 1e-6:
                singular = True
                uf = np.zeros(free.sum())
        u[free] = uf
    reaction_vec = K @ u - f
    displacements = {nid: u[6 * index[nid] : 6 * index[nid] + 6].copy() for nid in node_ids}
    reactions = {
        nid: reaction_vec[6 * index[nid] : 6 * index[nid] + 6].copy()
        for nid in node_ids
        if model.node(nid).grounded
    }
    translations = np.array([np.linalg.norm(d[:3]) for d in displacements.values()])
    return StiffnessResult(
        displacements=displacements,
        reactions=reactions,
        max_translation=float(translations.max()) if translations.size else 0.0,
        residual=residual,
        singular=singular,
    )


def oracle_center_of_gravity(partial):
    model = partial.model
    total = 0.0
    acc = np.zeros(3)
    for eid in partial.element_ids:
        m = element_mass(model, eid)
        acc += m * model.element_midpoint(eid)
        total += m
    return acc / total


class NoMemo(set):
    """A dead-set memo that stores nothing, so the search revisits sets."""

    def add(self, mask):
        pass


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_frame_table_analysis_is_bit_identical_to_per_call_assembly(monkeypatch):
    # every prefix the search without dead placed sets analyses on the cube
    # at 24 directions x 2 rolls (78 backtracks), plus random prefixes, many
    # of them floating, of the cube (9 nodes) and of the 84-element tower
    model = load_bundled_model("cube")
    prefixes = []

    def recording(partial, *args, **kwargs):
        prefixes.append((partial.model, partial.element_ids))
        return analyze(partial, *args, **kwargs)

    monkeypatch.setattr(sequence, "analyze", recording)
    cfg = PlannerConfig(direction_count=24, rotation_samples=2)
    planner = sequence.SequencePlanner(model, load_bundled_robot("arm"), cfg)
    planner._dead = NoMemo()
    stats = planner.plan().stats
    assert len(prefixes) == stats.stiffness_checks == 292
    rng = np.random.default_rng(7)
    tower = bracing_tower(stories=7)
    assert tower.n_elements == 84
    for random_model in (model, tower):
        ids = [e.id for e in random_model.elements]
        for _ in range(150):
            size = int(rng.integers(1, len(ids) + 1))
            prefixes.append(
                (random_model, tuple(int(e) for e in rng.permutation(ids)[:size]))
            )

    singular = 0
    for model, prefix in prefixes:
        partial = PartialStructure(model, prefix)
        got, want = analyze(partial), oracle_analyze(partial)
        assert got.singular == want.singular, prefix
        assert got.residual.hex() == want.residual.hex(), prefix
        assert got.max_translation.hex() == want.max_translation.hex(), prefix
        assert list(got.displacements) == list(want.displacements)
        assert all(same_bits(got.displacements[n], want.displacements[n]) for n in want.displacements)
        assert list(got.reactions) == list(want.reactions)
        assert all(same_bits(got.reactions[n], want.reactions[n]) for n in want.reactions)
        assert same_bits(center_of_gravity(partial), oracle_center_of_gravity(partial)), prefix
        singular += got.singular
    assert singular >= 5  # the floating random prefixes

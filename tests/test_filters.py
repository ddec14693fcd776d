import numpy as np
import pytest

from orbitcheck import catalog, core, filters, linalg, spaces, zoo
from orbitcheck.linalg import rng_for


def test_centralizer_of_basis_vector_in_so3():
    so3 = zoo.classical("so", 3)
    u = np.array([1.0, 0.0, 0.0])
    cent = filters.centralizer(so3, np.eye(3), u)
    assert cent.shape[1] == 1
    assert np.abs(so3.bracket(cent[:, 0], u)).max() < 1e-12


def test_normalizer_split_dims_on_projective_pair(so5_u2):
    rng = rng_for("test-split", so5_u2.name, 0, 0)
    xm = so5_u2.modules[0].basis @ rng.normal(size=2)
    ym = so5_u2.modules[1].basis @ rng.normal(size=4)
    split = filters.normalizer_split(so5_u2, xm + ym)
    # generic direction: trivial centralizer, all of h normalizes
    assert split.dims == (0, 4, 4)
    split1 = filters.normalizer_split(so5_u2, xm)
    assert split1.dims == (3, 4, 1)


def test_normalizer_complement_commutes_with_centralizer(so5_u2):
    g = so5_u2.g
    rng = rng_for("test-split", so5_u2.name, 1, 0)
    xm = so5_u2.modules[0].basis @ rng.normal(size=2)
    split = filters.normalizer_split(so5_u2, xm)
    c, c_tilde = split.c, split.c_tilde
    assert c.shape[1] and c_tilde.shape[1]
    for s in range(c_tilde.shape[1]):
        for t in range(c.shape[1]):
            assert np.abs(g.bracket(c_tilde[:, s], c[:, t])).max() < 1e-10
    # the complement is orthogonal to the centralizer inside n
    assert np.abs(c.T @ g.inner_product @ c_tilde).max() < 1e-10


BRACKET_LOCATIONS = {
    "so5_u2": "in_m2",
    "so8_g2": "mixed",
    "su3_su2": "in_m2",
    "sp2_sp1u1": "in_m2",
    "so9_spin7": "in_m2",
    "sp3_principal": "mixed",
    "so9_tensor": "mixed",
}


@pytest.mark.parametrize("fixture_name", sorted(BRACKET_LOCATIONS))
def test_bracket_location_is_stable(fixture_name, request):
    space = request.getfixturevalue(fixture_name)
    assert filters.bracket_location(space) == BRACKET_LOCATIONS[fixture_name]


def test_principal_isotropy_dims():
    # generic stabilizer of the 7-dim representation is 8-dimensional
    g2_action = zoo.embed_g2_in_so7()
    so7_mats = np.stack(zoo.matrix_basis("so", 7))
    action = np.einsum("ka,kpq->apq", g2_action.matrix, so7_mats)
    assert filters.principal_isotropy_dim(action) == 8
    # the adjoint action of so(3) on itself keeps the axis
    so3 = zoo.classical("so", 3)
    adjoint = np.stack([so3.ad(e) for e in np.eye(3)])
    assert filters.principal_isotropy_dim(adjoint) == 1
    # a trivial action stabilizes everything
    assert filters.principal_isotropy_dim(np.zeros((5, 4, 4))) == 5


def _per_draw_principal_dim(action):
    # reference: one generator and one SVD per draw, minimum over draws
    k, d, _ = action.shape
    best = k
    for i in range(20):
        v = rng_for("principal", 0, i).standard_normal(d)
        v /= np.linalg.norm(v) if d else 1.0
        best = min(best, k - linalg.svd_rank((action @ v).T))
    return best


def _stabilizer_cases():
    yield "so(3) on R^3", np.stack(zoo.matrix_basis("so", 3)).real, 1
    yield "so(2) on R^2", np.stack(zoo.matrix_basis("so", 2)).real, 0
    yield "zero action", np.zeros((5, 4, 4)), 5
    yield "no generators", np.zeros((0, 4, 4)), 0
    for entry in catalog.catalog_list(constructible=True):
        space = catalog.catalog_instantiate(entry, seed=0)
        if not space.two_summand:
            continue
        for i in range(2):
            yield (f"{entry.id} module {i + 1}",
                   filters._module_action(space, i), None)
            yield (f"{entry.id} h + m{2 - i} on m{i + 1}",
                   filters._subalgebra_action_on_module(space, 1 - i, i), None)


def test_principal_isotropy_dim_matches_per_draw_reference():
    cases = list(_stabilizer_cases())
    assert len(cases) == 4 + 4 * 20
    for label, action, known in cases:
        got = filters.principal_isotropy_dim(action)
        assert got == _per_draw_principal_dim(action), label
        assert known is None or got == known, label


def test_principal_isotropy_dim_draws_once(monkeypatch, so9_spin7):
    calls = {"rng_for": 0, "svd": 0}

    def counted(name, inner):
        def spy(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return spy
    monkeypatch.setattr(filters, "rng_for", counted("rng_for", rng_for))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    action = filters._subalgebra_action_on_module(so9_spin7, 0, 1)
    assert filters.principal_isotropy_dim(action) == 21
    assert calls == {"rng_for": 1, "svd": 1}


def test_filter_passes_on_go_catalog_spaces(so5_u2, so8_g2):
    rep = filters.necessary_filter(so5_u2)
    assert rep.passed
    assert rep.bracket_location == "in_m2"
    assert rep.principal_dims == {
        "module_1_stabilizer": 3,
        "module_2_stabilizer": 1,
        "extended_action_stabilizer": 3,
    }
    assert [r.rule for r in rep.rules] == [
        "module_1_stabilizer_positive", "extended_action_stabilizer_bound"]
    rep2 = filters.necessary_filter(so8_g2)
    assert rep2.passed
    assert rep2.principal_dims == {
        "module_1_stabilizer": 8, "module_2_stabilizer": 8}


def test_filter_fails_on_principal_triple(sp3_principal):
    rep = filters.necessary_filter(sp3_principal)
    assert not rep.passed
    assert rep.bracket_location == "mixed"
    # both generic stabilizers vanish
    assert rep.principal_dims["module_1_stabilizer"] == 0
    assert rep.principal_dims["module_2_stabilizer"] == 0
    for rule in rep.rules:
        assert rule.required == 1 and rule.actual == 0


def test_filter_fails_on_tensor_space(so9_tensor):
    rep = filters.necessary_filter(so9_tensor)
    assert not rep.passed
    data = rep.as_dict()
    assert data["passed"] is False
    assert data["bracket_location"] == "mixed"
    assert all(not r["passed"] for r in data["rules"])


def test_commuting_modules_branch_on_a_product():
    so3 = zoo.classical("so", 3)
    g = core.direct_sum([so3, so3], name="so(3)+so(3)")
    circle = zoo.embed_so_in_so(2, 3)
    emb = zoo.embed_sum([zoo.embed_into_summand(circle, g, 0),
                         zoo.embed_into_summand(circle, g, 3)])
    space = spaces.decompose_isotropy(
        spaces.reductive_space(g, emb, name="product-of-spheres"))
    assert space.module_dims == (2, 2)
    rep = filters.necessary_filter(space)
    assert rep.bracket_location == "zero"
    assert rep.passed
    assert rep.principal_dims["algebra_components"] == 2
    assert rep.rules[0].rule == "commuting_modules_need_decomposable_g"


def test_filter_requires_two_modules():
    space = spaces.reductive_space(
        None, zoo.named_embedding("u_in_so_odd", k=2))
    with pytest.raises(filters.FilterError):
        filters.necessary_filter(space)
    with pytest.raises(filters.FilterError):
        filters.bracket_location(space)


def _assert_split(space, split):
    """C centralizes u, N is the normalizer of C in h, and C~ is the
    complement of C in N; every basis is orthonormal."""
    g, h = space.g, space.h.basis
    gram = g.inner_product
    for basis in (split.c, split.n, split.c_tilde):
        np.testing.assert_allclose(basis.T @ gram @ basis,
                                   np.eye(basis.shape[1]), atol=1e-10)
    ad_u = g.ad(split.u)
    assert np.abs(ad_u @ split.c).max(initial=0.0) < 1e-10
    assert split.c.shape[1] == h.shape[1] - linalg.svd_rank(ad_u @ h)
    c_sub = core.Subspace(g, split.c) if split.c.shape[1] else None
    for z in split.n.T:
        for c in split.c.T:
            assert c_sub.distance(g.bracket(z, c)) < 1e-10
    assert split.n.shape[1] == split.c.shape[1] + split.c_tilde.shape[1]
    assert np.abs(split.c.T @ gram @ split.c_tilde).max(initial=0.0) < 1e-10


def test_normalizer_split_at_zero_is_all_centralizer(so5_u2):
    split = filters.normalizer_split(so5_u2, np.zeros(so5_u2.g.dim))
    assert split.dims == (4, 4, 0)
    _assert_split(so5_u2, split)


def test_normalizer_split_inside_one_module(so5_u2):
    rng = rng_for("test-split", so5_u2.name, 2, 0)
    for index, want in ((0, (3, 4, 1)), (1, (1, 2, 1))):
        mod = so5_u2.modules[index]
        split = filters.normalizer_split(so5_u2,
                                         mod.basis @ rng.normal(size=mod.dim))
        assert split.dims == want
        _assert_split(so5_u2, split)


def test_normalizer_split_with_trivial_h():
    space = catalog.catalog_instantiate("struct-5", seed=0)
    assert space.h.dim == 0
    split = filters.normalizer_split(space, space.m.basis @ np.ones(2))
    assert split.dims == (0, 0, 0)
    _assert_split(space, split)


@pytest.mark.parametrize("scale", [1e-4, 1e-5])
def test_normalizer_split_near_a_larger_centralizer(so8_g2, scale):
    # on go-1, X and Y each have an 8-dimensional centralizer and X + Y a
    # 3-dimensional one, the same for scale X + Y at every scale > 0. A
    # split cut at the unbalanced u lost N: (3, 0, 0) at 1e-5, and at
    # 1e-4 (3, 4, 1) for draw 2
    space = so8_g2
    for t in range(4):
        rng = rng_for("test-split", space.name, 3, t)
        x, y = (mod.basis @ rng.normal(size=mod.dim) for mod in space.modules)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        assert filters.normalizer_split(space, y).dims == (8, 8, 0)
        unit = filters.normalizer_split(space, x + y)
        split = filters.normalizer_split(space, scale * x + y)
        assert split.dims == unit.dims == (3, 6, 3)
        _assert_split(space, split)
        np.testing.assert_array_equal(split.u, scale * x + y)
        # the same C, N and C~ as at scale 1
        for got, want in ((split.c, unit.c), (split.n, unit.n),
                          (split.c_tilde, unit.c_tilde)):
            np.testing.assert_allclose(got @ got.T, want @ want.T, atol=1e-10)

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import catalog, core, filters, linalg, spaces, zoo


EXPECTED_MODULE_DIMS = {
    "so5_u2": (2, 4),
    "so8_g2": (7, 7),
    "su3_su2": (1, 4),
    "sp2_sp1u1": (2, 4),
    "so9_spin7": (7, 8),
    "sp3_principal": (7, 11),
    "so9_tensor": (15, 15),
}


@pytest.mark.parametrize("fixture_name", sorted(EXPECTED_MODULE_DIMS))
def test_module_dimensions_are_stable(fixture_name, request):
    space = request.getfixturevalue(fixture_name)
    assert space.module_dims == EXPECTED_MODULE_DIMS[fixture_name]
    assert space.two_summand


def test_reductive_split_is_orthogonal_and_complete(so5_u2):
    g = so5_u2.g
    assert so5_u2.h.dim + so5_u2.m.dim == g.dim
    cross = so5_u2.h.basis.T @ g.inner_product @ so5_u2.m.basis
    assert np.abs(cross).max() < 1e-12
    gram_m = so5_u2.m.basis.T @ g.inner_product @ so5_u2.m.basis
    np.testing.assert_allclose(gram_m, np.eye(so5_u2.m.dim), atol=1e-12)


def test_modules_are_invariant_orthogonal_and_span(so8_g2):
    g = so8_g2.g
    total = 0
    for i, mod in enumerate(so8_g2.modules):
        total += mod.dim
        for a in range(so8_g2.h.dim):
            images = g.bracket_matrix(so8_g2.h.basis[:, a], mod.basis)
            for j in range(mod.dim):
                assert mod.distance(images[:, j]) < 1e-8
        for other in so8_g2.modules[i + 1:]:
            cross = mod.basis.T @ g.inner_product @ other.basis
            assert np.abs(cross).max() < 1e-10
    assert total == so8_g2.m.dim


def test_decomposition_is_deterministic_under_seed(so5_u2):
    again = spaces.decompose_isotropy(
        spaces.reductive_space(None, zoo.named_embedding("u_in_so_odd", k=2),
                               name=so5_u2.name), seed=so5_u2.decomposition_seed)
    for mod, mod2 in zip(so5_u2.modules, again.modules):
        np.testing.assert_allclose(mod.basis, mod2.basis, atol=1e-12)


def test_isotypic_groups_flag_equivalent_summands(so8_g2, so5_u2):
    # both 7-dim summands of the triality space carry the same module
    assert so8_g2.isotypic_groups == ((0, 1),)
    # the two summands of the complex projective-space pair differ
    assert so5_u2.isotypic_groups == ((0,), (1,))


def test_metric_space_dimension(so5_u2, so8_g2, su3_su2):
    assert so5_u2.metric_space_dim == 2
    assert su3_su2.metric_space_dim == 2
    # isomorphic summands admit intertwining metrics as well
    assert so8_g2.metric_space_dim == 3


def test_h_equal_g_is_rejected():
    so5 = zoo.classical("so", 5)
    with pytest.raises(core.EffectivenessError):
        spaces.reductive_space(so5, np.eye(10))


def test_trivially_acting_ideal_is_rejected():
    so3 = zoo.classical("so", 3)
    g = core.direct_sum([so3, so3])
    cols = np.zeros((6, 3))
    cols[:3, :] = np.eye(3)
    with pytest.raises(core.EffectivenessError):
        spaces.reductive_space(g, cols)


def test_non_subalgebra_h_is_rejected(so5_u2):
    g = so5_u2.g
    cols = np.zeros((10, 2))
    cols[0, 0] = 1.0
    cols[1, 0] = 0.3
    cols[2, 1] = 1.0
    with pytest.raises(core.ValidationError):
        spaces.reductive_space(g, cols)


def test_minimal_ideal_dimensions():
    cases = {
        "so(3)+so(3)+so(3)": [3, 3, 3],
        "so(9)": [36],
        "su(3)+so(3)": [3, 8],
        "u(3)": [8],
    }
    for name, dims in cases.items():
        parts = spaces.minimal_ideals(zoo.algebra_by_name(name))
        assert [p.shape[1] for p in parts] == dims


def test_minimal_ideals_are_ideals():
    alg = zoo.algebra_by_name("su(3)+so(3)")
    for part in spaces.minimal_ideals(alg):
        sub = spaces.Subspace.from_columns(alg, part, name="ideal")
        for i in range(alg.dim):
            e = np.zeros(alg.dim)
            e[i] = 1.0
            images = alg.bracket_matrix(e, part)
            for j in range(part.shape[1]):
                assert sub.distance(images[:, j]) < 1e-8


def test_classify_structure_on_projective_pair(so5_u2):
    report = spaces.classify_structure(so5_u2)
    assert report.case_label == 7
    assert report.counting_value == 0
    data = report.as_dict()
    assert data["case"] == 7
    assert "hit_matrix" in data and "v" in data


def test_exact_module_bases_match_float_dims(so5_u2):
    bases = spaces.exact_module_bases(so5_u2)
    assert tuple(b.shape[1] for b in bases) == (2, 4)
    g = so5_u2.g
    gram = core.exact.to_float(g.inner_product_exact)
    for exact_b, mod in zip(bases, so5_u2.modules):
        cols = core.exact.to_float(exact_b)
        # same subspace as the float module, checked via gram projections
        proj = mod.basis.T @ gram @ cols
        recon = mod.basis @ np.linalg.solve(
            mod.basis.T @ gram @ mod.basis, proj)
        np.testing.assert_allclose(recon, cols, atol=1e-8)


def _with_modules(space, blocks):
    """The space with its modules replaced by orthonormal m-coordinate blocks."""
    modules = tuple(core.Subspace(ambient=space.g, basis=space.m.basis @ b,
                                  name=f"m{i + 1}")
                    for i, b in enumerate(blocks))
    return replace(space, modules=modules)


def test_exact_module_bases_refuse_a_tilted_module(so5_u2):
    # rotate one basis vector of m1 slightly toward m2, keeping both
    # bases orthonormal: the float split is no longer invariant
    b1 = so5_u2.module_coords_in_m(0).copy()
    b2 = so5_u2.module_coords_in_m(1).copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    b1[:, 0], b2[:, 0] = c * b1[:, 0] + s * b2[:, 0], c * b2[:, 0] - s * b1[:, 0]
    with pytest.raises(spaces.ExactUnavailableError):
        spaces.exact_module_bases(_with_modules(so5_u2, [b1, b2]))


def test_exact_module_bases_refuse_a_rational_split_that_is_not_invariant(
        so5_u2):
    # span{u1, u2}, with u_i a rational vector of module i, has a rational
    # projector that rounds exactly, so only the invariance check refuses it
    bases = spaces.exact_module_bases(so5_u2)
    cols = np.stack([core.exact.to_float(b[:, 0]) for b in bases], axis=1)
    coords = so5_u2.m.basis.T @ so5_u2.g.inner_product @ cols
    full = np.linalg.qr(coords, mode="complete")[0]
    with pytest.raises(spaces.ExactUnavailableError, match="invariant"):
        spaces.exact_module_bases(
            _with_modules(so5_u2, [full[:, :2], full[:, 2:]]))


def test_iso_action_is_antisymmetric_in_orthonormal_coords(so5_u2):
    action = so5_u2.iso_action
    np.testing.assert_allclose(
        action, -np.transpose(action, (0, 2, 1)), atol=1e-10)


def test_bracket_tensors_are_consistent(su3_su2):
    g = su3_su2.g
    x = su3_su2.m.basis @ np.arange(1.0, su3_su2.m.dim + 1)
    y = su3_su2.m.basis[:, 0]
    full = g.bracket(x, y)
    m_part = su3_su2.m.basis @ np.einsum(
        "abc,a,b->c", su3_su2.m_bracket_m,
        np.arange(1.0, su3_su2.m.dim + 1), np.eye(su3_su2.m.dim)[0])
    h_part = su3_su2.h.basis @ np.einsum(
        "abc,a,b->c", su3_su2.m_bracket_h,
        np.arange(1.0, su3_su2.m.dim + 1), np.eye(su3_su2.m.dim)[0])
    np.testing.assert_allclose(m_part + h_part, full, atol=1e-10)


def test_space_as_dict_round_trip(so9_spin7):
    data = so9_spin7.as_dict()
    assert data["dim_g"] == 36
    assert data["dim_h"] == 21
    assert data["dim_m"] == 15
    assert data["module_dims"] == [7, 8]
    assert data["metric_space_dim"] == 2


def _module_action(space, index):
    block = space.module_coords_in_m(index)
    return np.einsum("pi,apq,qj->aij", block, space.iso_action, block)


def _assert_intertwiner_basis(maps, src, dst):
    residual = dst[:, None] @ maps[None] - maps[None] @ src[:, None]
    assert np.abs(residual).max(initial=0.0) < 1e-10
    flat = maps.reshape(len(maps), maps.shape[1] * maps.shape[2])
    np.testing.assert_allclose(flat @ flat.T, np.eye(len(maps)), atol=1e-10)


def _symmetric_dim(maps):
    return linalg.svd_rank(
        (maps + maps.transpose(0, 2, 1)).reshape(len(maps), -1))


def test_intertwiners_of_the_isotropy_action(so5_u2, so8_g2):
    for space in (so5_u2, so8_g2):
        action = space.iso_action
        maps = spaces.intertwiners(action, action)
        _assert_intertwiner_basis(maps, action, action)
        assert _symmetric_dim(maps) == space.metric_space_dim


def test_equivalent_real_modules_have_one_intertwiner(so8_g2):
    src, dst = _module_action(so8_g2, 0), _module_action(so8_g2, 1)
    maps = spaces.intertwiners(src, dst)
    assert maps.shape == (1, 7, 7)
    _assert_intertwiner_basis(maps, src, dst)


def test_complex_type_module_has_one_symmetric_intertwiner():
    space = catalog.catalog_instantiate("go-3-k3", seed=0)
    for index in range(2):
        action = _module_action(space, index)
        maps = spaces.intertwiners(action, action)
        assert len(maps) == 2
        _assert_intertwiner_basis(maps, action, action)
        assert _symmetric_dim(maps) == 1


def test_inequivalent_modules_have_no_intertwiner():
    space = catalog.catalog_instantiate("go-2", seed=0)
    maps = spaces.intertwiners(_module_action(space, 0),
                               _module_action(space, 1))
    assert maps.shape == (0, 14, 7)


def test_intertwiners_without_generators_span_every_map():
    maps = spaces.intertwiners(np.zeros((0, 2, 2)), np.zeros((0, 3, 3)))
    assert maps.shape == (6, 3, 2)
    np.testing.assert_array_equal(maps.reshape(6, 6), np.eye(6))


def _so3_summands():
    vector = np.array([m.real for m in zoo.matrix_basis("so", 3)])
    eye = np.eye(3)
    tensor = np.array([np.kron(x, eye) + np.kron(eye, x) for x in vector])
    return [np.zeros((3, 1, 1)), vector, tensor]


def _random_direct_sum(counts, rng):
    blocks = [block for block, count in zip(_so3_summands(), counts)
              for _ in range(count)]
    dim = sum(b.shape[1] for b in blocks)
    rep = np.zeros((3, dim, dim))
    start = 0
    for block in blocks:
        d = block.shape[1]
        rep[:, start:start + d, start:start + d] = block
        start += d
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q.T @ rep @ q


_COUNTS = st.tuples(st.integers(0, 2), st.integers(0, 2),
                    st.integers(0, 1)).filter(any)


@given(_COUNTS, _COUNTS, st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_intertwiners_match_the_kronecker_nullspace(src_counts, dst_counts,
                                                    seed):
    rng = np.random.default_rng(seed)
    src = _random_direct_sum(src_counts, rng)
    dst = _random_direct_sum(dst_counts, rng)
    ds, dd = src.shape[1], dst.shape[1]
    rows = [np.kron(dst[a], np.eye(ds)) - np.kron(np.eye(dd), src[a].T)
            for a in range(3)]
    reference = linalg.nullspace(np.vstack(rows))
    maps = spaces.intertwiners(src, dst)
    _assert_intertwiner_basis(maps, src, dst)
    flat = maps.reshape(len(maps), dd * ds).T
    assert flat.shape[1] == reference.shape[1]
    np.testing.assert_allclose(reference @ (reference.T @ flat), flat,
                               atol=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_module_order_does_not_depend_on_the_seed(seed):
    # so(7)/u(3): both modules are 6-dimensional; h + m1 must be the
    # subalgebra u(3) + m1 = so(6), so [m1, m2] lies in m2
    space = catalog.catalog_instantiate("go-3-k3", seed=seed)
    assert filters.bracket_location(space) == "in_m2"

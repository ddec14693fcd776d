import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import core, zoo


CLASSICAL_DIMS = {
    ("so", 3): 3, ("so", 5): 10, ("so", 7): 21, ("so", 8): 28, ("so", 9): 36,
    ("su", 2): 3, ("su", 3): 8, ("su", 5): 24,
    ("u", 2): 4, ("u", 3): 9,
    ("sp", 1): 3, ("sp", 2): 10, ("sp", 3): 21,
    ("torus", 4): 4,
}


def test_classical_dimensions_match_closed_forms():
    for (family, n), dim in CLASSICAL_DIMS.items():
        assert zoo.classical(family, n).dim == dim


def test_classical_structures_validate_exactly():
    for family, n in (("so", 6), ("su", 4), ("u", 3), ("sp", 2)):
        report = zoo.classical(family, n).validate()
        assert report.mode == "exact"
        assert report.jacobi == 0.0
        assert report.antisymmetry == 0.0


def test_rank_caps_are_enforced():
    with pytest.raises(ValueError):
        zoo.classical("so", 17)
    with pytest.raises(ValueError):
        zoo.classical("su", 1)
    with pytest.raises(ValueError):
        zoo.classical("sp", 8)
    assert zoo.classical("torus", 1).dim == 1


def test_octonion_table_properties():
    table, signs = zoo.octonion_table()
    e0 = np.zeros(8)
    e0[0] = 1.0
    rng = np.random.default_rng(7)
    x = rng.normal(size=8)
    y = rng.normal(size=8)
    # unital, norm-multiplicative (composition algebra)
    np.testing.assert_allclose(zoo.octonion_multiply(e0, x), x, atol=1e-14)
    np.testing.assert_allclose(
        np.linalg.norm(zoo.octonion_multiply(x, y)),
        np.linalg.norm(x) * np.linalg.norm(y), atol=1e-12)
    # non-associative but alternative: (xx)y = x(xy)
    xx_y = zoo.octonion_multiply(zoo.octonion_multiply(x, x), y)
    x_xy = zoo.octonion_multiply(x, zoo.octonion_multiply(x, y))
    np.testing.assert_allclose(xx_y, x_xy, atol=1e-12)


def test_quaternion_multiplication():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(zoo.quaternion_multiply(i, j), k, atol=0)
    np.testing.assert_allclose(zoo.quaternion_multiply(j, i), -k, atol=0)
    np.testing.assert_allclose(
        zoo.quaternion_multiply(i, i), np.array([-1.0, 0, 0, 0]), atol=0)
    np.testing.assert_allclose(
        zoo.quaternion_conjugate(i + j), -(i + j), atol=0)


def test_g2_dimension_and_validation():
    alg = zoo.g2()
    assert alg.dim == 14
    report = alg.validate()
    assert report.passed
    assert alg.inner_ad_invariance() < 1e-12


def test_algebra_by_name_parses_sums():
    alg = zoo.algebra_by_name("su(3)+su(2)")
    assert alg.dim == 11
    assert zoo.algebra_by_name("g2").dim == 14
    assert zoo.algebra_by_name("torus(2)").dim == 2
    with pytest.raises((core.ValidationError, KeyError, ValueError)):
        zoo.algebra_by_name("e8")


SMALL_PARAMS = {
    "so_in_so": {"k": 3, "n": 5},
    "su_in_su": {"k": 2, "n": 3},
    "su_in_u": {"n": 3},
    "u_in_so_even": {"k": 2},
    "u_in_so_odd": {"k": 2},
    "su_in_so_even": {"k": 3},
    "su_x_su_in_su": {"m": 2, "n": 1},
    "sp_in_su_even": {"n": 2},
    "sp_u1_in_su_odd": {"n": 2},
    "sp_u1_in_sp": {"n": 1},
    "so_x_so_tensor": {"p": 3, "q": 3},
    "diagonal": {"family": "so", "n": 3, "copies": 2},
    "g2_in_so7": {},
    "g2_in_so7_in_so8": {},
    "spin7_in_so8": {},
    "spin7_in_so8_in_so9": {},
    "irreducible_su2_in_su": {"two_j": 4},
    "principal_su2_in_sp3": {},
    "so2_plus_g2_in_so9": {},
}


def test_registry_keys_all_have_smoke_params():
    assert set(SMALL_PARAMS) == set(zoo.EMBEDDING_KEYS)


def test_registry_keys_show_builder_signatures():
    assert zoo.EMBEDDING_KEYS["so_in_so"] == "k, n, offset=0"
    assert zoo.EMBEDDING_KEYS["u_in_so_odd"] == "k (chain)"
    assert zoo.EMBEDDING_KEYS["g2_in_so7_in_so8"] == "(chain)"
    assert zoo.EMBEDDING_KEYS["g2_in_so7"] == ""


@pytest.mark.parametrize("key", sorted(SMALL_PARAMS))
def test_named_embeddings_are_homomorphisms(key):
    emb = zoo.as_embedding(zoo.named_embedding(key, **SMALL_PARAMS[key]))
    assert emb.homomorphism_residual() <= 1e-8
    assert emb.matrix.shape == (emb.target.dim, emb.source.dim)


def test_named_embedding_unknown_key():
    with pytest.raises(KeyError):
        zoo.named_embedding("so_in_sp")


def test_chain_composite_matches_step_composition():
    chain = zoo.named_embedding("su_in_so_even", k=3)
    assert isinstance(chain, zoo.EmbeddingChain)
    manual = chain.steps[0]
    for step in chain.steps[1:]:
        manual = step.compose(manual)
    np.testing.assert_allclose(chain.composite.matrix, manual.matrix, atol=0)
    assert chain.source.name == "su(3)"
    assert chain.target.name == "so(6)"


def test_su2_irrep_matrices_bracket():
    su2 = zoo.classical("su", 2)
    for two_j in (1, 2, 4, 6):
        rho = zoo.su2_irrep_matrices(two_j)
        dim = two_j + 1
        assert rho.shape == (3, dim, dim)
        # anti-Hermitian images with the su(2) commutation relations
        np.testing.assert_allclose(
            rho, -np.conj(np.transpose(rho, (0, 2, 1))), atol=1e-12)
        for i in range(3):
            for j in range(3):
                lhs = rho[i] @ rho[j] - rho[j] @ rho[i]
                rhs = np.einsum("k,kpq->pq", su2.structure[i, j], rho)
                np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_principal_su2_killing_index():
    emb = zoo.as_embedding(zoo.named_embedding("principal_su2_in_sp3"))
    assert emb.source.dim == 3
    assert emb.target.name == "sp(3)"
    ratio, residual = emb.killing_index()
    assert residual < 1e-8
    # index grows with the representation; a principal triple is far from minimal
    assert ratio > 5.0


def test_diagonal_embedding_matrix_shape():
    emb = zoo.embed_diagonal("so", 3, 3)
    assert emb.source.dim == 3
    assert emb.target.dim == 9
    x = np.array([1.0, -2.0, 0.5])
    image = emb.apply(x)
    np.testing.assert_allclose(image[:3], image[3:6], atol=0)
    np.testing.assert_allclose(image[:3], image[6:], atol=0)


def test_embedding_rejects_non_homomorphism():
    so3 = zoo.classical("so", 3)
    so5 = zoo.classical("so", 5)
    bad = np.zeros((10, 3))
    bad[0, 0] = bad[1, 1] = bad[2, 2] = 1.0
    bad[3, 0] = 0.7
    with pytest.raises(core.ValidationError):
        zoo.Embedding(source=so3, target=so5, matrix=bad)


@given(st.sampled_from(["so", "su", "sp"]), st.integers(min_value=3, max_value=4))
@settings(max_examples=12, deadline=None)
def test_killing_form_negative_definite_on_semisimple_algebras(family, n):
    alg = zoo.classical(family, n)
    eigs = np.linalg.eigvalsh(alg.killing_form)
    assert eigs.max() < 0


def test_composite_exact_matrix_is_the_fraction_product():
    chain = zoo.named_embedding("u_in_so_odd", k=3)
    inner, outer = chain.steps
    composite = zoo.as_embedding(chain).matrix_exact
    naive = outer.matrix_exact @ inner.matrix_exact
    assert composite.shape == naive.shape
    assert all(a == b for a, b in zip(composite.flat, naive.flat))

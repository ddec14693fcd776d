import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import core, exact, spaces, zoo


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
        assert zoo._DIMENSION[family](n) == dim


def test_classical_structures_validate_exactly():
    # no build runs the Jacobi join: this oracle runs it on every
    # buildable classical algebra
    for family in ("so", "su", "u", "sp"):
        for n in range(zoo.RANK_MIN[family], zoo.RANK_CAPS[family] + 1):
            report = zoo.classical(family, n).validate()
            assert report.mode == "exact", (family, n)
            assert report.jacobi == 0.0, (family, n)
            assert report.antisymmetry == 0.0, (family, n)


def test_classical_builds_run_no_jacobi_or_invariance_check(monkeypatch):
    # the constructions prove what the two checks test, so a build runs
    # neither
    def refuse(*args):
        raise AssertionError("a build ran a check its construction proves")
    monkeypatch.setattr(core.StructureConstants, "residuals", refuse)
    monkeypatch.setattr(core.LieAlgebra, "inner_ad_invariance", refuse)
    for family in zoo.RANK_CAPS:
        for n in (zoo.RANK_MIN[family], zoo.RANK_CAPS[family]):
            assert zoo.classical.__wrapped__(family, n).dim \
                == zoo._DIMENSION[family](n)
    assert zoo._g2_data.__wrapped__()[0].dim == 14
    assert core.trivial_algebra().dim == 0


def test_classical_and_g2_constants_are_integers():
    for alg in (zoo.classical("so", 5), zoo.classical("su", 3),
                zoo.classical("u", 2), zoo.classical("sp", 2), zoo.g2()):
        assert alg.structure_exact.denom == 1


def test_rank_caps_are_enforced():
    with pytest.raises(ValueError):
        zoo.classical("so", 17)
    with pytest.raises(ValueError):
        zoo.classical("su", 1)
    with pytest.raises(ValueError):
        zoo.classical("sp", 8)
    assert zoo.classical("torus", 1).dim == 1
    # a diagonal needs two copies and a power no larger than so(16)
    for family, n, copies in (("so", 16, 2), ("su", 8, 2), ("sp", 7, 2),
                              ("so", 3, 41), ("so", 3, 1), ("so", 3, 0),
                              ("so", 17, 2)):
        with pytest.raises(ValueError):
            zoo.embed_diagonal(family, n, copies)
    for family, n, copies in (("so", 3, 3), ("su", 3, 3), ("so", 3, 40),
                              ("so", 11, 2)):
        assert zoo.embed_diagonal(family, n, copies).target.dim <= 120


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


def test_named_embeddings_are_built_once_per_parameter_set():
    emb = zoo.named_embedding("so_in_so", k=2, n=5)
    assert zoo.named_embedding("so_in_so", n=5, k=2) is emb
    assert zoo.named_embedding("so_in_so", k=2, n=5, offset=1) is not emb
    chain = zoo.named_embedding("u_in_so_odd", k=2)
    assert zoo.named_embedding("u_in_so_odd", k=2).composite is \
        chain.composite
    # 2.0 == 2, but it is not the same parameter
    with pytest.raises(TypeError):
        zoo.named_embedding("so_in_so", k=2.0, n=5)
    assert zoo._named_embedding.cache_info().maxsize == 64
    with pytest.raises(ValueError, match="read-only"):
        chain.composite.matrix[0, 0] = 1


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
    # for a simple source the pulled-back Killing form is a multiple of
    # the source's own
    induced = emb.matrix.T @ emb.target.killing_form @ emb.matrix
    source = emb.source.killing_form
    ratio = float((induced * source).sum() / (source * source).sum())
    assert float(np.abs(induced - ratio * source).max()) < 1e-8
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


def _fractions(emb):
    """The embedding's float matrix as Fractions, one ``exact.frac`` per
    entry (ValueError on an entry that is not exactly rational)."""
    return exact.over(*exact.cleared(emb.matrix.astype(object)))


CHAINS = [("u_in_so_odd", {"k": 3}), ("su_in_so_even", {"k": 3}),
          ("g2_in_so7_in_so8", {}), ("spin7_in_so8_in_so9", {})]


def test_composite_exact_matrix_is_the_fraction_product():
    # the float product of the steps is exact on every chain: its entries
    # read as Fractions are those of the Fraction product
    assert sorted(key for key, _ in CHAINS) == sorted(zoo._CHAIN_BUILDERS)
    for key, params in CHAINS:
        chain = zoo.named_embedding(key, **params)
        want = _fractions(chain.steps[0])
        for step in chain.steps[1:]:
            want = _fractions(step) @ want
        composite = _fractions(chain.composite)
        assert composite.shape == want.shape, key
        assert all(a == b for a, b in zip(composite.flat, want.flat)), key


def test_registry_embeddings_read_exactly_unless_irrational():
    # exact.rounded gives the float matrix back, and the Fractions that
    # exact.frac reads entry by entry, on every rational embedding; on an
    # irrational one it does not, and the exact lane refuses the space.
    # The spin representations of su(2) past spin 1/2 hold square roots.
    irrational = [("irreducible_su2_in_su", {"two_j": j}) for j in range(2, 8)]
    irrational.append(("principal_su2_in_sp3", {}))
    rational = [(key, params) for key, params in SMALL_PARAMS.items()
                if key not in dict(irrational)]
    rational.append(("irreducible_su2_in_su", {"two_j": 1}))
    for key, params in rational + irrational:
        emb = zoo.as_embedding(zoo.named_embedding(key, **params))
        n, d = exact.rounded(emb.matrix)
        reads = np.array_equal(exact.to_float(n, d), emb.matrix)
        assert reads == ((key, params) not in irrational), (key, params)
        if reads:
            assert list(exact.over(n, d).flat) == list(_fractions(emb).flat)
            continue
        with pytest.raises(ValueError, match="not exactly rational"):
            _fractions(emb)
        with pytest.raises(spaces.ExactUnavailableError,
                           match="lacks exact coordinates"):
            spaces.exact_module_bases(spaces.reductive_space(None, emb))


# --- the integer builds against the per-entry Fraction builds -----------

def _fraction_constants(family, n):
    """Classical constants built as before: one Fraction per commutator
    coordinate, each through ``exact.frac``, into ``structure_constants``."""
    stack = np.stack(zoo.matrix_basis(family, n))
    entries = []
    for i, x in enumerate(stack):
        coords = zoo._coordinates(x @ stack - stack @ x, family, n, stack, "")
        entries += [(i, j, k, coords[j, k]) for j, k in zip(*np.nonzero(coords))]
    return core.structure_constants(len(stack), entries)


def _same_constants(got, want):
    assert got.dim == want.dim and got.denom == want.denom
    assert got.index.dtype == want.index.dtype and got.index.flags.c_contiguous
    assert got.index.tobytes() == want.index.tobytes()
    assert got.numer.dtype == want.numer.dtype == object
    assert [type(v) for v in got.numer] == [int] * len(want.numer)
    assert list(got.numer) == list(want.numer)


@pytest.mark.parametrize("family, n", [
    (f, n) for f in ("so", "su", "u", "sp")
    for n in range(zoo.RANK_MIN[f], zoo.RANK_CAPS[f] + 1)])
def test_classical_constants_equal_the_fraction_build(family, n):
    _same_constants(zoo.classical(family, n).structure_exact,
                    _fraction_constants(family, n))


def test_classical_refuses_non_integer_constants(monkeypatch):
    # in the basis L_ab / 2 of so(3) the constants are +-1/2: the rebuild
    # is exact, the integer test is not met
    extract = zoo._EXTRACTORS["so"]
    monkeypatch.setitem(zoo._EXTRACTORS, "so",
                        lambda batch, n: 2 * extract(batch, n))
    monkeypatch.setitem(zoo._MATRIX_BASES, "so",
                        lambda n: [m / 2 for m in zoo._so_matrices(n)])
    with pytest.raises(core.ValidationError, match="not integers"):
        zoo.classical.__wrapped__("so", 3)


def test_classical_refuses_a_basis_matrix_outside_its_family(monkeypatch):
    # E_01 + E_10 is symmetric: the extractor reads its commutators' upper
    # triangles as integers, but they do not rebuild the commutators
    def bases(n):
        sym = np.zeros((n, n), dtype=np.complex128)
        sym[0, 1] = sym[1, 0] = 1
        return [sym] + zoo._so_matrices(n)[1:]
    monkeypatch.setitem(zoo._MATRIX_BASES, "so", bases)
    with pytest.raises(core.ValidationError, match="do not lie in so"):
        zoo.classical.__wrapped__("so", 3)


def test_classical_refuses_a_dependent_basis(monkeypatch):
    # a copy of L_01 appended to so(3)'s basis: every commutator still
    # lies in the span and has integer coordinates that rebuild it, but
    # the four matrices are not a basis
    monkeypatch.setitem(zoo._MATRIX_BASES, "so",
                        lambda n: zoo._so_matrices(n) + zoo._so_matrices(n)[:1])
    with pytest.raises(core.ValidationError,
                       match=r"so\(3\): basis matrices are not independent"):
        zoo.classical.__wrapped__("so", 3)


def _derivation_system():
    f = zoo._octonion_f()
    basis = np.real(np.stack(zoo._so_matrices(7))).astype(np.int64)
    defect = (np.einsum("abc,tqc->abqt", f, basis)
              - np.einsum("tca,cbq->abqt", basis, f)
              - np.einsum("tcb,acq->abqt", basis, f))
    return defect.reshape(-1, 21)


def test_g2_kernel_and_constants_equal_the_full_fraction_build():
    alg, kernel = zoo._g2_data()
    # the kernel of the whole system, duplicate and zero rows included
    want = exact.over(*exact.null_space(_derivation_system()))
    assert [repr(v) for v in kernel.flat] == [repr(v) for v in want.flat]
    # the 91 brackets one pair at a time, in Fractions
    free = [int(np.flatnonzero(col)[-1]) for col in want.T]
    so7 = zoo.classical("so", 7)
    entries = []
    for s in range(14):
        for t in range(s + 1, 14):
            w = so7.bracket_exact(want[:, s], want[:, t])
            assert np.array_equal(want @ w[free], w)
            entries += [(s, t, k, w[free][k]) for k in np.flatnonzero(w[free])]
            entries += [(t, s, k, -w[free][k]) for k in np.flatnonzero(w[free])]
    _same_constants(alg.structure_exact, core.structure_constants(14, entries))


def test_spin7_matrix_passes_the_fraction_homomorphism_test():
    emb = zoo.embed_spin7_in_so8()
    phi = _fractions(emb)
    assert all(type(v) is Fraction and v.denominator <= 2 for v in phi.flat)
    assert emb.matrix.tobytes() == exact.to_float(phi).tobytes()
    so7, so8 = emb.source, emb.target
    units = np.identity(21, dtype=object)
    for i in range(21):
        for j in range(i + 1, 21):
            w = so7.bracket_exact(units[:, i], units[:, j])
            assert np.array_equal(so8.bracket_exact(phi[:, i], phi[:, j]),
                                  phi[:, w != 0] @ w[w != 0]), (i, j)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_zoo_triples_and_grams_match_the_checked_in_digests():
    # the triples, Gram and exact Gram read-off of every algebra the
    # acceptance test validates, and of the cap algebras, pinned to the byte
    data = json.loads(Path(__file__).with_name(
        "algebra_digests.json").read_text())["sha256"]
    for name, want in data.items():
        alg = zoo.algebra_by_name(name)
        c = alg.structure_exact
        # the exact lane's read-off of the float Gram, where it reads back
        ip, dip = exact.rounded(alg.inner_product)
        gram_exact = (exact.over(ip, dip) if np.array_equal(
            exact.to_float(ip, dip), alg.inner_product) else None)
        triples = [c.dim, c.index.tolist(), [int(v) for v in c.numer], c.denom]
        got = {"triples": _sha256(json.dumps(triples).encode()),
               "gram": _sha256(alg.inner_product.tobytes()),
               "gram_exact": _sha256(json.dumps(
                   None if gram_exact is None
                   else [str(v) for v in gram_exact.flat]).encode())}
        assert got == want, name

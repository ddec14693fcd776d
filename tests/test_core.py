import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import core, zoo


def naive_jacobi(structure):
    """Cubic-loop Jacobi defect, independent of the vectorized version."""
    n = structure.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = np.zeros(n)
                for m in range(n):
                    total += structure[i, j, m] * structure[m, k, :]
                    total += structure[j, k, m] * structure[m, i, :]
                    total += structure[k, i, m] * structure[m, j, :]
                worst = max(worst, np.abs(total).max())
    return worst


def test_jacobi_residual_matches_naive_loop_on_so3():
    so3 = zoo.classical("so", 3)
    assert core.jacobi_residual(so3.structure) == pytest.approx(
        naive_jacobi(so3.structure), abs=1e-14)


def test_jacobi_residual_detects_broken_structure():
    so3 = zoo.classical("so", 3)
    bad = so3.structure.copy()
    bad[0, 1, 2] *= 1.5
    assert core.jacobi_residual(bad) > 0.1
    assert not core.validate_algebra(bad).passed
    # a NaN is not dropped by the running maximum
    bad[0, 1, 2] = np.nan
    assert np.isnan(core.jacobi_residual(bad))
    assert not core.validate_algebra(bad).passed


def test_so3_killing_form_is_minus_two_identity():
    so3 = zoo.classical("so", 3)
    np.testing.assert_allclose(so3.killing_form, -2 * np.eye(3), atol=1e-13)
    exact_k = core.exact.to_float(so3.killing_form_exact)
    np.testing.assert_allclose(exact_k, -2 * np.eye(3), atol=0)


def test_exact_killing_matches_float_trace_on_zoo():
    for name in ("su(2)", "su(3)", "so(5)", "sp(2)", "g2"):
        alg = zoo.algebra_by_name(name)
        exact_k = core.exact.to_float(alg.killing_form_exact)
        np.testing.assert_allclose(exact_k, alg.killing_form, atol=1e-11)


def test_bracket_and_ad_agree_on_so3():
    so3 = zoo.classical("so", 3)
    x = np.array([1.0, 2.0, -1.0])
    y = np.array([0.5, 0.0, 3.0])
    np.testing.assert_allclose(so3.bracket(x, y), so3.ad(x) @ y, atol=1e-14)
    # basis convention fixes [e_i, e_j] = -eps_ijk e_k
    np.testing.assert_allclose(so3.bracket(x, y), -np.cross(x, y), atol=1e-13)


def test_inner_product_is_ad_invariant_on_zoo_algebras():
    for name in ("so(5)", "su(3)", "sp(2)", "g2"):
        alg = zoo.algebra_by_name(name)
        assert alg.inner_ad_invariance() < 1e-12


def test_validate_reports_exact_mode_when_available():
    so3 = zoo.classical("so", 3)
    report = so3.validate()
    data = report.as_dict()
    assert data["jacobi"] == 0.0
    assert data["mode"] == "exact"


def test_direct_sum_blocks_and_cross_brackets():
    so3 = zoo.classical("so", 3)
    su2 = zoo.classical("su", 2)
    g = core.direct_sum([so3, su2])
    assert g.dim == 6
    x = np.zeros(6)
    y = np.zeros(6)
    x[0] = 1.0
    y[4] = 1.0
    assert np.abs(g.bracket(x, y)).max() == 0.0
    sub = g.structure[:3, :3, :3]
    np.testing.assert_allclose(sub, so3.structure)


def test_center_basis_of_u2():
    u2 = zoo.classical("u", 2)
    z = u2.center
    assert z.shape[1] == 1
    # the central direction commutes with everything
    assert np.abs(np.einsum("ijk,ia->ajk", u2.structure, z)).max() < 1e-12


def test_json_round_trip_preserves_structure():
    su2 = zoo.classical("su", 2)
    text = su2.to_json()
    back = core.algebra_from_json(text)
    np.testing.assert_allclose(back.structure, su2.structure, atol=1e-15)
    np.testing.assert_allclose(back.inner_product, su2.inner_product,
                               atol=1e-15)
    assert back.name == su2.name


def test_trivial_algebra_has_dimension_zero():
    t = core.trivial_algebra()
    assert t.dim == 0
    assert t.validate().as_dict()["jacobi"] == 0.0


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=20, deadline=None)
def test_ad_is_a_derivation_on_g2(seed):
    alg = zoo.g2()
    rng = np.random.default_rng(seed)
    x, y, z = rng.normal(size=(3, alg.dim))
    left = alg.bracket(x, alg.bracket(y, z))
    right = (alg.bracket(alg.bracket(x, y), z)
             + alg.bracket(y, alg.bracket(x, z)))
    np.testing.assert_allclose(left, right, atol=1e-10)


CONSTANT_KINDS = ["float", "zeros", "exact"]


def _random_algebra(rng, n, kind="float"):
    """Random constants (no Jacobi identity needed) with a random positive
    definite inner product: a dense float tensor, one with about half its
    entries exactly zero, or exact triples."""
    raw = rng.standard_normal((n, n))
    if kind == "exact":
        constants = _random_exact_algebra(rng, n, 0.5, 4).constants
    else:
        constants = rng.standard_normal((n, n, n))
        if kind == "zeros":
            constants *= rng.random((n, n, n)) < 0.5
    return core.LieAlgebra(constants, raw @ raw.T + n * np.eye(n))


def assert_matches(got, want):
    """Equal shapes, entries equal to 1e-12 of the reference's scale."""
    want = np.asarray(want)
    assert np.shape(got) == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


@given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(CONSTANT_KINDS), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_structure_contractions_match_einsum(n, p, q, kind, seed):
    # every contraction runs on the triples; the einsums read the tensor
    # that ``structure`` rebuilds from them
    rng = np.random.default_rng(seed)
    alg = _random_algebra(rng, n, kind)
    c = alg.structure
    left, right = rng.standard_normal((n, p)), rng.standard_normal((n, q))
    x, y = rng.standard_normal((2, n))
    assert_matches(core.pair_bracket_tensor(alg, left, right),
                   np.einsum("ijk,ia,jb->abk", c, left, right))
    assert_matches(alg.ad(x), np.einsum("ijk,i->kj", c, x))
    assert_matches(alg.bracket(x, y), np.einsum("ijk,i,j->k", c, x, y))
    assert_matches(alg.killing_form, np.einsum("imn,jnm->ij", c, c))
    t = np.einsum("ijk,kl->ijl", c, alg.inner_product)
    assert_matches(alg.inner_ad_invariance(),
                   np.abs(t + t.transpose(0, 2, 1)).max(initial=0.0))
    ads = c.reshape(n, n * n)
    assert alg.center.shape[1] == n - np.linalg.matrix_rank(ads)
    assert_matches(alg.center.T @ ads, np.zeros((alg.center.shape[1], n * n)))
    sub = core.Subspace.from_columns(alg, left)
    b, gram = sub.basis, alg.inner_product
    brackets = np.einsum("ijk,ia,jb->kab", c, b, b).reshape(n, sub.dim ** 2)
    distances = np.linalg.norm(brackets - b @ (b.T @ gram @ brackets), axis=0)
    assert_matches(sub.closure_residual(), distances.max(initial=0.0))


@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from(CONSTANT_KINDS),
       st.sampled_from(CONSTANT_KINDS), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_homomorphism_residual_matches_einsum(s, extra, source_kind,
                                              target_kind, seed):
    rng = np.random.default_rng(seed)
    source = _random_algebra(rng, s, source_kind)
    target = _random_algebra(rng, s + extra, target_kind)
    phi = rng.standard_normal((s + extra, s))
    with pytest.MonkeyPatch.context() as patch:  # phi is no homomorphism
        patch.setattr(zoo, "HOMOMORPHISM_TOL", np.inf)
        emb = zoo.Embedding(source=source, target=target, matrix=phi)
    lhs = np.einsum("ijk,ia,jb->abk", target.structure, phi, phi)
    rhs = np.einsum("abc,kc->abk", source.structure, phi)
    assert_matches(emb.homomorphism_residual(),
                   np.abs(lhs - rhs).max(initial=0.0))


def _random_exact_algebra(rng, n, density, denom):
    """Exact algebra with random antisymmetric constants v / denom for v in
    -2..2, about a ``density`` share of them nonzero, and the identity
    inner product."""
    upper = rng.integers(-2, 3, (n, n, n)) * (rng.random((n, n, n)) < density)
    entries = [(i, j, k, Fraction(int(upper[i, j, k] if i < j
                                      else -upper[j, i, k]), denom))
               for i in range(n) for j in range(n) for k in range(n) if i != j]
    return core.make_algebra(core.structure_constants(n, entries), "",
                             np.eye(n))


@given(st.integers(0, 6), st.floats(0.0, 1.0), st.sampled_from([1, 2, 4]),
       st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_exact_checks_match_the_dense_float_ones(n, density, denom, seed):
    # dyadic constants keep every float sum exact, so the two checks agree
    rng = np.random.default_rng(seed)
    alg = _random_exact_algebra(rng, n, density, denom)
    report = alg.validate()
    dense = core.validate_algebra(alg.structure)
    assert report.mode == "exact" and dense.mode == "float"
    assert report.antisymmetry == dense.antisymmetry == 0.0
    assert report.jacobi == dense.jacobi == core.jacobi_residual(alg.structure)
    # the identity Gram is read back exactly, so its invariance is the
    # exact one, and the dense sum of dyadic terms agrees
    assert dense.invariance is None
    assert report.invariance == alg.inner_ad_invariance()
    assert report.passed == (dense.jacobi == 0.0 and report.invariance == 0)
    np.testing.assert_array_equal(core.exact.to_float(alg.killing_form_exact),
                                  alg.killing_form)
    x, y = (np.array([Fraction(int(p), int(q)) for p, q in
                      zip(rng.integers(-3, 4, n), rng.integers(1, 4, n))],
                     dtype=object) for _ in "xy")
    np.testing.assert_allclose(
        core.exact.to_float(alg.bracket_exact(x, y)),
        alg.bracket(core.exact.to_float(x), core.exact.to_float(y)), atol=1e-12)


@pytest.mark.parametrize("name", ["so(5)", "sp(2)", "g2", "su(3)+su(2)"])
def test_residuals_and_killing_agree_on_int64_and_python_ints(name):
    # the same constants over a denominator 2^40 times larger: their
    # products pass 2^63, so the joins run on Python ints, and give the
    # Fractions and (scaled) sums of the int64 joins on the small ones
    small = zoo.algebra_by_name(name).constants
    scale = 2 ** 40
    big = core.StructureConstants(small.dim, small.index, small.numer * scale,
                                  small.denom * scale)
    assert small._machine(len(small.index) ** 2).dtype == np.int64
    assert big._machine(1).dtype == object
    assert small.residuals() == big.residuals() == (0, 0)
    keys, sums = small.killing()
    big_keys, big_sums = big.killing()
    assert sums.dtype == big_sums.dtype == object
    assert {type(v) for v in sums} == {type(v) for v in big_sums} == {int}
    np.testing.assert_array_equal(keys, big_keys)
    assert [v * scale ** 2 for v in sums] == list(big_sums)
    # one constant and its partner doubled keep antisymmetry, break Jacobi
    i, j, k = small.index[0]
    twice = np.flatnonzero((small.index == (i, j, k)).all(axis=1)
                           | (small.index == (j, i, k)).all(axis=1))
    broken = []
    for c in (small, big):
        numer = c.numer.copy()
        numer[twice] *= 2
        broken.append(core.StructureConstants(c.dim, c.index, numer,
                                              c.denom).residuals())
    assert broken[0] == broken[1]
    anti, jac = broken[0]
    assert anti == 0 and jac > 0
    assert {type(v.numerator) for v in broken[0] + broken[1]} == {int}


def test_invariance_residuals_match_a_dense_reference():
    # the join's integer sums are the dense <[e_a, e_b], e_c> +
    # <e_b, [e_a, e_c]> of ``inner_ad_invariance`` times the constants'
    # denominator, on invariant Grams (integer multiples of the read-off
    # on each ideal) and on random symmetric ones
    rng = np.random.default_rng(0)
    for name in ("su(2)", "so(5)", "g2", "su(3)+su(2)", "u(2)"):
        alg = zoo.algebra_by_name(name)
        ip, dip = core.exact.rounded(alg.inner_product)
        raw = rng.integers(-3, 4, (alg.dim, alg.dim))
        # the same constants at half scale: [x, y] / 2 is a Lie bracket too
        halved = core.StructureConstants(alg.dim, alg.constants.index,
                                         alg.constants.numer, 2)
        grams = [ip, 2 * ip, raw + raw.T, ip + np.diag(raw.diagonal())]
        if name == "su(3)+su(2)":
            grams.append(ip * np.r_[np.full(8, 3), np.full(3, -1)])
        for gram in grams:
            for c in (alg.constants, halved):
                got = c.invariance(gram.astype(object))
                dense = core.LieAlgebra(c, gram.astype(np.float64))
                assert got == c.denom * dense.inner_ad_invariance(), name
                # on Python ints past int64 the sums scale with the Gram
                assert c.invariance(gram.astype(object) * 2 ** 70) \
                    == got * 2 ** 70
        assert alg.constants.invariance(raw + raw.T) > 0, name
    # the read-off Gram of every algebra that has one is invariant
    names = [f"{family}({n})" for family in zoo.RANK_CAPS
             for n in range(zoo.RANK_MIN[family], zoo.RANK_CAPS[family] + 1)]
    read_off = 0
    for alg in map(zoo.algebra_by_name, names + ["g2"]):
        ip, dip = core.exact.rounded(alg.inner_product)
        if np.array_equal(core.exact.to_float(ip, dip), alg.inner_product):
            assert alg.constants.invariance(ip) == 0, alg.name
            read_off += 1
    # all but u(3) to u(8), whose center blocks are not rational
    assert read_off == len(names) + 1 - 6


def test_validation_proves_every_zoo_gram_ad_invariant():
    # ``validate`` reports the same invariance, relative to max |Gram|:
    # exactly 0 where the Gram is read back, and within tol on u(3) to
    # u(8), whose dense check is in floats; every family passes
    names = [f"{family}({n})" for family in zoo.RANK_CAPS
             for n in range(zoo.RANK_MIN[family], zoo.RANK_CAPS[family] + 1)]
    for alg in map(zoo.algebra_by_name, names + ["g2"]):
        report = alg.validate()
        assert report.passed, alg.name
        ip, dip = core.exact.rounded(alg.inner_product)
        if np.array_equal(core.exact.to_float(ip, dip), alg.inner_product):
            assert report.invariance == 0.0, alg.name
        else:
            assert 0 <= report.invariance <= core.DEFAULT_TOL, alg.name


def test_broken_spec_is_reported_exactly(broken_su3_spec):
    report = core.algebra_from_json_dict(broken_su3_spec).validate()
    assert report.as_dict() == {"antisymmetry": 0.0, "jacobi": 2.0,
                                "mode": "exact", "passed": False,
                                "invariance": 1.0}


@pytest.mark.parametrize("spec", ["euclidean3_spec", "heisenberg_spec"])
@pytest.mark.parametrize("as_float", [False, True])
def test_non_compact_specs_are_refused(spec, as_float, request):
    # e(3) has a singular Killing form and the Heisenberg algebra a zero
    # one; neither has a default ad-invariant inner product, on the exact
    # (integer) or the dense (float) path
    data = request.getfixturevalue(spec)
    if as_float:
        data["structure"] = [e[:3] + [float(e[3])] for e in data["structure"]]
    with pytest.raises(core.ValidationError, match="not compact"):
        core.algebra_from_json_dict(data)


def _float_spec(name):
    """A zoo algebra as a JSON spec with float constants and Gram."""
    data = zoo.algebra_by_name(name).to_json_dict()
    data["structure"] = [e[:3] + [float(Fraction(e[3]))]
                         for e in data["structure"]]
    data["inner_product"] = [[float(Fraction(v)) for v in row]
                             for row in data["inner_product"]]
    return data


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_spec_entry_is_refused_by_name(bad):
    # NaN and inf once reached LAPACK, which failed to converge
    data = _float_spec("su(2)")
    i, j, k, _ = data["structure"][1]
    data["structure"][1][3] = bad
    with pytest.raises(core.ValidationError,
                       match=rf"structure constant \({i},{j},{k}\) is {bad}, "
                             "not finite"):
        core.algebra_from_json_dict(data)
    data = _float_spec("su(2)")
    data["inner_product"][1][2] = bad
    with pytest.raises(core.ValidationError,
                       match=rf"inner product entry \(1, 2\) is {bad}, "
                             "not finite"):
        core.algebra_from_json_dict(data)


def test_abelian_default_inner_product_is_the_identity():
    gram = core.default_inner_product(core.float_constants(np.zeros((3, 3, 3))))
    np.testing.assert_array_equal(gram, np.eye(3))


def test_unpaired_rational_entry_breaks_antisymmetry():
    data = zoo.classical("su", 2).to_json_dict()
    assert not any(e[:3] == [0, 1, 0] for e in data["structure"])
    data["structure"].append([0, 1, 0, "1/3"])
    report = core.algebra_from_json_dict(data).validate()
    assert report.mode == "exact"
    assert report.antisymmetry == pytest.approx(1 / 3)
    assert not report.passed


def test_structure_constants_share_one_denominator():
    c = core.structure_constants(
        2, [(0, 1, 0, "1/2"), (1, 0, 0, 5), (1, 0, 0, "-1/2"), (0, 1, 1, 0),
            (1, 1, 1, "2/3")])
    assert c.index.tolist() == [[0, 1, 0], [1, 0, 0], [1, 1, 1]]
    assert list(c.numer) == [3, -3, 4] and c.denom == 6


def _per_entry_reader(data):
    """A spec's triples as the reader built them one entry at a time: a
    dict keyed by (i, j, k), so the last repeat wins, zeros dropped, then
    sorted. Returns the index and the float values (each the nearest
    float of its Fraction), or the Python-int numerators and their
    denominator."""
    entries = data["structure"]
    rational = all(isinstance(e[3], (str, int)) for e in entries)
    convert = core.exact.frac if rational else (lambda v: float(Fraction(v)))
    coeffs = {(int(i), int(j), int(k)): convert(v) for i, j, k, v in entries}
    keys = sorted(key for key, v in coeffs.items() if v != 0)
    index = np.array(keys, dtype=np.int64).reshape(-1, 3)
    values = [coeffs[key] for key in keys]
    if not rational:
        return index, np.array(values, dtype=np.float64), 1
    denom = math.lcm(*(v.denominator for v in values))
    return index, [v.numerator * (denom // v.denominator) for v in values], denom


@given(st.integers(1, 4), st.integers(0, 60), st.booleans(),
       st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_spec_reader_matches_the_per_entry_reader(dim, m, rational, seed):
    # few indices, so (i, j, k) repeat; a fifth of the values are zeros,
    # and a float spec holds rational strings too
    rng = np.random.default_rng(seed)
    index = rng.integers(0, dim, (m, 3)).tolist()
    picks = rng.integers(-2, 3, m).tolist()
    if rational:
        values = [p if p % 2 else f"{p}/{3 + p}" for p in picks]
    else:
        values = [[0.0, -0.0, 0][int(rng.integers(3))] if p == 0 else
                  p if p == 1 else f"{int(rng.integers(-9, 10))}/7"
                  if p == -1 else p * float(rng.standard_normal())
                  for p in picks]
    data = {"dim": dim, "structure": [e + [v] for e, v in zip(index, values)]}
    rational = all(isinstance(v, (str, int)) for v in values)
    c = core.algebra_from_json_dict({**data, "inner_product": np.eye(
        dim).tolist()}).constants
    index, numer, denom = _per_entry_reader(data)
    assert c.index.dtype == np.int64 and c.index.flags.c_contiguous
    assert c.index.shape == index.shape
    assert c.index.tobytes() == index.tobytes()
    assert c.denom == denom and c.exact == rational
    if rational:
        assert [type(v) for v in c.numer] == [int] * len(numer)
        assert list(c.numer) == numer
    else:
        assert c.numer.dtype == np.float64
        assert c.numer.tobytes() == numer.tobytes()


def test_spec_errors_name_the_first_bad_entry_in_input_order():
    nan, inf = float("nan"), float("inf")
    good = [0, 1, 2, 1.0]
    cases = [
        ([good, [1, 0, 2, nan], [0, 3, 1, 1.0]], r"constant \(1,0,2\) is nan"),
        ([good, [0, 3, 1, 1.0], [1, 0, 2, nan]], r"index \(0,3,1\) out of"),
        ([[2, 0, -1, inf], [1, 0, 2, nan]], r"index \(2,0,-1\) out of"),
        ([good, [1, 2, 0, -inf]], r"constant \(1,2,0\) is -inf"),
        ([[0, 1, 2, 1], [0, 1, 9, "1/2"]], r"index \(0,1,9\) out of"),
    ]
    for entries, message in cases:
        with pytest.raises(core.ValidationError, match=message):
            core.algebra_from_json_dict({"dim": 3, "structure": entries})


def _held_arrays(alg):
    """Every ndarray an algebra holds: in its fields and cached
    properties and in those of its constants, tuples unpacked."""
    stack = [*vars(alg).values(), *vars(alg.constants).values()]
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            stack.extend(value)
        elif isinstance(value, np.ndarray):
            yield value


def test_an_algebra_holds_one_form_of_its_constants():
    # zoo, direct-sum, catalog, float read-off and float-spec algebras
    # hold their triples and no (n, n, n) array, after every cached
    # contraction has run; ``structure`` is rebuilt on each read
    from orbitcheck import catalog, spaces
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    g, hb = space.g, space.h.basis
    read_off = core.LieAlgebra(spaces.bracket_coords(
        g, core.pair_bracket_tensor(g, hb, hb), hb), np.eye(space.h.dim), "h")
    spec = zoo.classical("su", 3).to_json_dict()
    spec["structure"] = [e[:3] + [float(e[3])] for e in spec["structure"]]
    algebras = [zoo.algebra_by_name(name)
                for name in ("so(5)", "u(3)", "sp(2)", "g2", "su(3)+so(3)")]
    algebras += [g, read_off, core.algebra_from_json_dict(spec)]
    for alg in algebras:
        assert isinstance(alg.constants, core.StructureConstants)
        alg.killing_form, alg.center, alg.ad(np.ones(alg.dim))
        core.pair_bracket_tensor(alg, np.eye(alg.dim), np.eye(alg.dim))
        assert [a.shape for a in _held_arrays(alg) if a.ndim > 2] == [], alg
        assert alg.structure is not alg.structure
    assert algebras[-1].structure_exact is None
    assert algebras[-2].structure_exact is None


def test_a_copy_of_an_exact_algebra_keeps_one_form():
    # replace hands the copy the same triples; a dense tensor handed in
    # becomes float triples, bit for bit, without its exact zeros
    alg = zoo.algebra_by_name("so(4)")
    copy = replace(alg, name="x")
    assert copy.name == "x" and copy.constants is alg.constants
    assert copy.structure_exact is alg.structure_exact
    np.testing.assert_array_equal(copy.structure, alg.structure)
    dense = replace(alg, constants=alg.structure)
    assert dense.structure_exact is None and not dense.constants.exact
    np.testing.assert_array_equal(dense.constants.index, alg.constants.index)
    assert dense.constants.numer.tobytes() == alg.constants.values.tobytes()


def test_exact_builds_never_run_the_dense_jacobi(monkeypatch):
    def refuse(structure):
        raise AssertionError("dense Jacobi on exact constants")
    monkeypatch.setattr(core, "jacobi_residual", refuse)
    for family, n in (("so", 7), ("su", 4), ("u", 3), ("sp", 3), ("torus", 2)):
        assert zoo.classical.__wrapped__(family, n).validate().passed
    assert zoo._g2_data.__wrapped__()[0].validate().passed
    assert core.direct_sum([zoo.classical("su", 3), zoo.g2()]).validate().passed
    assert core.trivial_algebra().validate().passed


def test_exact_direct_sum_round_trips_through_json():
    g = zoo.algebra_by_name("su(3)+torus(1)+so(3)")
    back = core.algebra_from_json(g.to_json())
    assert back.to_json() == g.to_json()
    np.testing.assert_array_equal(back.structure, g.structure)
    np.testing.assert_array_equal(back.inner_product, g.inner_product)
    assert back.validate().mode == "exact"


def _svd_path_inner_product(alg):
    """default_inner_product by the route every input took before the
    definiteness exit: the exact Killing form as Fractions, its float
    copy, the column space of the n x n^2 bracket matrix and the center,
    both from SVDs. Returns -B and -B exact for a trivial center."""
    n, structure = alg.dim, alg.structure
    b_exact = alg.killing_form_exact
    b = core.exact.to_float(b_exact)
    derived = core.column_space(structure.reshape(n * n, n).T)
    assert np.linalg.eigvalsh(derived.T @ -b @ derived).min() > 0
    assert core.nullspace(
        structure.transpose(0, 2, 1).reshape(n, n * n).T).shape[1] == 0
    return -b, -b_exact


@pytest.mark.parametrize("name", ["so(5)", "su(3)", "sp(2)", "g2"])
def test_definite_killing_form_skips_the_svds_with_the_same_bits(
        name, monkeypatch):
    alg = zoo.algebra_by_name(name)
    want, want_exact = _svd_path_inner_product(alg)

    def refuse(*args):
        raise AssertionError("bracket-matrix SVD on a semisimple algebra")
    monkeypatch.setattr(core, "column_space", refuse)
    monkeypatch.setattr(core, "_center", refuse)
    got = core.default_inner_product(alg.constants)
    assert got.tobytes() == want.tobytes() == alg.inner_product.tobytes()
    # the exact lane reads the exact -B back off the float one
    assert [repr(v) for v in core.exact.over(
        *core.exact.rounded(got)).flat] == [repr(v) for v in want_exact.flat]


@pytest.mark.parametrize("name", ["u(3)", "su(2)+torus(2)"])
def test_algebras_with_a_center_still_take_the_svd_path(name, monkeypatch):
    alg = zoo.algebra_by_name(name)
    calls = []
    column_space = core.column_space

    def spy(a):
        calls.append(a.shape)
        return column_space(a)
    monkeypatch.setattr(core, "column_space", spy)
    gram = core.default_inner_product(alg.constants)
    assert calls == [(alg.dim, alg.dim ** 2)]
    # the center block is the coordinate dot product, the rest -B
    center = alg.center
    np.testing.assert_allclose(center.T @ gram @ center,
                               np.eye(center.shape[1]), atol=1e-12)
    assert np.linalg.eigvalsh(gram).min() > 0


def _rotated(name):
    """Dense float constants of a zoo algebra in a random orthonormal basis:
    every one of the n^3 entries is nonzero."""
    structure = zoo.algebra_by_name(name).structure
    q = np.linalg.qr(np.random.default_rng(0).standard_normal(
        structure.shape[:2]))[0]
    return np.einsum("ijk,ia,jb,kc->abc", structure, q, q, q, optimize=True)


@pytest.mark.parametrize("name", ["so(9)", "su(6)"])
def test_float_killing_form_matches_einsum_on_dense_constants(name):
    # the float Killing form is one product over the scattered constants;
    # on a rotated spec it and the default inner product agree with the
    # einsum to 1e-13 relative
    c = _rotated(name)
    assert np.count_nonzero(c) == c.size
    want = np.einsum("imn,jnm->ij", c, c)
    constants = core.float_constants(c)
    gram = core.default_inner_product(constants)
    alg = core.LieAlgebra(constants, gram)
    scale = np.abs(want).max()
    assert np.abs(alg.killing_form - want).max() <= 1e-13 * scale
    assert np.abs(gram + want).max() <= 1e-13 * scale


def test_inner_ad_invariance_of_a_cap_algebra_stays_quadratic():
    # one i-slice at a time: on a float copy of so(16) (dim 120) the
    # traced peak stays below 4 n^2 doubles, where the dense (n, n, n)
    # tensor and its transpose sum took 2 n^3, and the value is the dense
    # one, 0 on the invariant Gram and not on a perturbed one
    alg = zoo.algebra_by_name("so(16)")
    n = alg.dim
    floats = core.StructureConstants(n, alg.constants.index,
                                     alg.constants.values)
    floats.groups  # cached with the constants, as after any contraction
    raw = np.random.default_rng(0).standard_normal((n, n))
    for gram in (alg.inner_product, alg.inner_product + 1e-3 * (raw + raw.T)):
        copy = core.LieAlgebra(floats, gram)
        tracemalloc.start()
        try:
            got = copy.inner_ad_invariance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t = core.bracket_images(copy, gram)
        assert got == float(np.abs(t + t.transpose(0, 2, 1)).max())
        assert peak < 4 * n * n * 8
    assert got > 1e-3


def test_float_killing_form_of_dense_constants_stays_small():
    # the exact lane's join holds every joined pair, n^4 on dense float
    # constants (about 70 MB at dim 36); the float product holds an n x n^2
    # matrix and its column gathers
    constants = core.float_constants(_rotated("so(9)"))
    constants.groups  # cached with the constants, as after any contraction
    tracemalloc.start()
    try:
        gram = core.default_inner_product(constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.linalg.eigvalsh(gram).min() > 0
    assert peak < 8 * 2 ** 20

import hashlib
import json
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import catalog, core, filters, go, linalg, spaces, zoo
from test_core import assert_matches
from test_exact import EXACT_IDS


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
            images = g.ad(so8_g2.h.basis[:, a]) @ mod.basis
            for j in range(mod.dim):
                assert mod.distance(images[:, j]) < 1e-8
        for other in so8_g2.modules[i + 1:]:
            cross = mod.basis.T @ g.inner_product @ other.basis
            assert np.abs(cross).max() < 1e-10
    assert total == so8_g2.m.dim


def test_decomposition_is_deterministic_under_seed(so5_u2):
    again = spaces.decompose_isotropy(
        spaces.reductive_space(None, zoo.named_embedding("u_in_so_odd", k=2),
                               name=so5_u2.name))
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


SMALL_IDEAL_CASES = {
    "so(3)+so(3)+so(3)": [3, 3, 3],
    "su(3)+so(3)": [3, 8],
    "u(3)": [8],
    "so(4)": [3, 3],
    "so(4)+so(3)": [3, 3, 3],
    "g2": [14],
    "torus(1)+so(3)": [3],
    "sp(2)+sp(2)+so(5)": [10, 10, 10],
}


def test_minimal_ideal_dimensions():
    cases = dict(SMALL_IDEAL_CASES, **{
        "so(9)": [36],
        "so(16)": [120],
        "sp(7)": [105],
        "so(16)+so(16)": [120, 120],
        "so(16)+sp(7)": [105, 120],
    })
    for name, dims in cases.items():
        parts = spaces.minimal_ideals(zoo.algebra_by_name(name))
        assert [p.shape[1] for p in parts] == dims


@pytest.mark.parametrize("name", sorted(SMALL_IDEAL_CASES))
def test_minimal_ideals_are_ideals(name):
    alg = zoo.algebra_by_name(name)
    for part in spaces.minimal_ideals(alg):
        sub = spaces.Subspace.from_columns(alg, part, name="ideal")
        for i in range(alg.dim):
            e = np.zeros(alg.dim)
            e[i] = 1.0
            images = alg.ad(e) @ part
            for j in range(part.shape[1]):
                assert sub.distance(images[:, j]) < 1e-8


def test_minimal_ideal_order_does_not_depend_on_the_draw():
    # so(4) splits into two so(3) ideals of equal dimension, so only a key
    # read off each subspace, not off the random basis, fixes their order;
    # the draws are labelled by the algebra's name, so a renamed copy
    # draws afresh
    for name in ("so(4)", "so(4)+so(3)", "so(4)+so(4)"):
        alg = zoo.algebra_by_name(name)
        first = spaces.minimal_ideals(alg)
        for k in range(4):
            renamed = replace(alg, name=f"{name} copy {k}")
            again = spaces.minimal_ideals(renamed)
            assert len(again) == len(first)
            # another draw: other bases of the same ideals, in one order
            assert not all(np.allclose(p, q) for p, q in zip(first, again))
            for p, q in zip(first, again):
                np.testing.assert_allclose(q @ q.T, p @ p.T, atol=1e-8,
                                           err_msg=name)


def test_minimal_ideals_refuse_a_non_regular_element(monkeypatch):
    # X inside one so(3) of so(4): ker ad(X) is X plus the other so(3),
    # not a Cartan subalgebra, so the split is refused, not returned wrong
    alg = zoo.algebra_by_name("so(4)")
    first = spaces.minimal_ideals(alg)[0]
    gram = alg.inner_product
    s_basis = linalg.gram_orthonormalize(
        linalg.nullspace(alg.center.T @ gram), gram)
    inside = s_basis.T @ gram @ first @ np.array([[1.0], [2.0], [3.0]])

    class Stream:
        def standard_normal(self, shape):
            return inside.reshape(shape)

    monkeypatch.setattr(spaces, "rng_for", lambda *labels: Stream())
    with pytest.raises(spaces.DecompositionError,
                       match=r"not abelian: \[t, t\] of so\(4\) misses"):
        spaces.minimal_ideals(alg)


@pytest.mark.parametrize("name, blocks", [
    ("so(16)+so(16)", [(0, 120), (120, 240)]),
    ("so(16)+sp(7)", [(120, 225), (0, 120)]),
])
def test_minimal_ideals_split_the_cap_sums_from_a_cold_algebra(name, blocks):
    # a fresh sum, so the center is computed under the trace too
    import tracemalloc
    alg = zoo.algebra_by_name(name)
    tracemalloc.start()
    try:
        parts = spaces.minimal_ideals(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each ideal is one summand: its rows vanish off that summand's block
    rows = [np.flatnonzero(np.abs(p).max(axis=1) > 1e-8) for p in parts]
    assert [(r.min(), r.max() + 1, len(r)) for r in rows] == [
        (lo, hi, hi - lo) for lo, hi in blocks]
    assert peak < spaces.MAX_SYSTEM_BYTES
    # [I, I^perp] is bracketed in column chunks of at most 2^22 doubles,
    # so neither sum's 120-column ideals are bracketed whole
    assert peak < 64 << 20


def _conjugated(alg, q):
    """alg in the basis f_a = sum_i q_ia e_i, for an orthogonal q."""
    c = np.einsum("ijk,ia,jb,kc->abc", alg.structure, q, q, q, optimize=True)
    return core.LieAlgebra(core.float_constants(c),
                           q.T @ alg.inner_product @ q, alg.name)


@pytest.mark.parametrize("name", ["su(3)+so(3)", "so(4)+so(3)"])
def test_minimal_ideals_follow_an_orthogonal_change_of_basis(name):
    # the rotated ideals are the conjugated ones, q^T P q, in the order the
    # rule gives the conjugated projectors: dimension, then entries
    alg = zoo.algebra_by_name(name)
    for trial in range(3):
        q = np.linalg.qr(linalg.rng_for("test-rotate", name, trial)
                         .standard_normal((alg.dim, alg.dim)))[0]
        want = sorted(((p.shape[1], q.T @ p @ p.T @ q)
                       for p in spaces.minimal_ideals(alg)),
                      key=lambda t: (t[0], tuple(np.round(-t[1], 6).ravel())))
        got = spaces.minimal_ideals(_conjugated(alg, q))
        assert [p.shape[1] for p in got] == [dim for dim, _ in want]
        for p, (_, proj) in zip(got, want):
            np.testing.assert_allclose(p @ p.T, proj, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("name, power", [("so(3)^40", ("so", 3, 40)),
                                         ("so(5)^12", ("so", 5, 12)),
                                         ("su(3)+so(3)", None)])
def test_minimal_ideals_keep_the_order_of_the_full_projector_key(name, power):
    # ties among ideals of one dimension are broken on the projector
    # entries that differ among them: the order of the key on every
    # rounded entry of B B^T, distinct for distinct ideals
    alg = zoo.embed_diagonal(*power).target if power \
        else zoo.algebra_by_name(name)
    keys = [(b.shape[1], tuple(np.round(-(b @ b.T), 6).ravel()))
            for b in spaces.minimal_ideals(alg)]
    assert len(set(keys)) == len(keys) and keys == sorted(keys)


@pytest.mark.parametrize("family, n, copies", [("so", 3, 40), ("so", 5, 12)])
def test_minimal_ideals_split_the_largest_direct_powers(family, n, copies):
    # direct powers reach dimension 120, and so(3)^40 has 40 ideals whose
    # root vectors share one generic element's spectrum
    import tracemalloc
    alg = zoo.embed_diagonal(family, n, copies).target
    tracemalloc.start()
    try:
        parts = spaces.minimal_ideals(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = alg.dim // copies
    assert [p.shape[1] for p in parts] == [dim] * copies
    # each ideal is one summand: its rows vanish off one block of dim rows
    blocks = [np.flatnonzero(np.abs(p).max(axis=1) > 1e-8) // dim
              for p in parts]
    assert all(len(b) == dim and len(set(b)) == 1 for b in blocks)
    assert sorted(b[0] for b in blocks) == list(range(copies))
    assert peak < 256 << 20


def test_classify_structure_on_projective_pair(so5_u2):
    report = spaces.classify_structure(so5_u2)
    assert report.case_label == 7
    assert report.counting_value == 0
    data = report.as_dict()
    assert data["case"] == 7
    assert "hit_matrix" in data and "v" in data


STRUCTURE_REGISTRY_ROWS = {
    "so(16)/su(8)": ("su_in_so_even", {"k": 8}),
    "so(15)/u(7)": ("u_in_so_odd", {"k": 7}),
    "so(12)/so(2)": ("so_in_so", {"k": 2, "n": 12}),
    "sp(7)/(sp(6)+u(1))": ("sp_u1_in_sp", {"n": 6}),
    "su(8)/(su(4)+su(4))": ("su_x_su_in_su", {"m": 4, "n": 4}),
}


def test_classify_structure_matches_the_pinned_reports():
    # a regression pin: every report below was read off the classifier
    # as it stood, at seed 0 for the catalog, so a change in how h or g
    # is split shows in the diff of tests/structure_reports.json
    want = json.loads(Path(__file__).with_name(
        "structure_reports.json").read_text())
    got = {"entries": {}, "registry": {}}
    for entry in catalog.catalog_list(constructible=True):
        got["entries"][entry.id] = spaces.classify_structure(
            catalog.catalog_instantiate(entry.id, seed=0)).as_dict()
    for name, (key, params) in STRUCTURE_REGISTRY_ROWS.items():
        space = spaces.reductive_space(None, zoo.named_embedding(key, **params))
        got["registry"][name] = spaces.classify_structure(space).as_dict()
    power = spaces.reductive_space(
        None, zoo.named_embedding("diagonal", family="so", n=3, copies=40))
    with pytest.raises(spaces.ClassificationError) as refused:
        spaces.classify_structure(power)
    got["diagonal so(3)^40"] = str(refused.value)
    assert len(got["entries"]) == 20
    assert got == want


def test_classify_reads_one_read_only_center_per_algebra():
    for k in range(1, 8):
        space = catalog.catalog_instantiate(f"struct-{k}", seed=0)
        first = spaces.classify_structure(space).as_dict()
        center = space.g.center
        assert space.g.center is center
        assert not center.flags.writeable
        assert spaces.classify_structure(space).as_dict() == first
        assert first["case"] == k


def test_the_classifier_runs_once_per_split_whatever_the_seed(monkeypatch,
                                                              cold_splits):
    # g's ideals and h's are split by one routine, labelled by g's name
    # and by "h", each once per split, a trivial h included
    calls = []
    inner = spaces._simple_ideals
    monkeypatch.setattr(spaces, "_simple_ideals", lambda g, basis, label:
                        calls.append(label) or inner(g, basis, label))
    for k in range(1, 8):
        calls.clear()
        reports = []
        for seed in range(12):
            space = catalog.catalog_instantiate(f"struct-{k}", seed=seed)
            reports.append(spaces.classify_structure(space))
            # the zero-bracket rule counts g's ideals off the same split
            if filters.bracket_location(space, 1e-8) == "zero":
                filters.necessary_filter(space, seed=seed)
        assert all(r == reports[0] for r in reports)
        assert sorted(calls) == sorted([space.g.name, "h"]), k


def test_exact_module_bases_match_float_dims(so5_u2):
    lane = spaces.exact_module_bases(so5_u2)
    assert tuple(b.shape[1] for b in lane.bases) == (2, 4)
    g = so5_u2.g
    gram = g.inner_product
    for exact_b, mod in zip(lane.bases, so5_u2.modules):
        cols = core.exact.to_float(exact_b, lane.denom)
        # same subspace as the float module, checked via gram projections
        proj = mod.basis.T @ gram @ cols
        recon = mod.basis @ np.linalg.solve(
            mod.basis.T @ gram @ mod.basis, proj)
        np.testing.assert_allclose(recon, cols, atol=1e-8)


def test_exact_lane_refuses_a_gram_that_is_not_ad_invariant(so5_u2):
    # -B on h and -3B on m is rational and ad(h)-invariant, so the split
    # and both modules stand, but ad(m) breaks it: the GO equation the
    # lane solves would not be that of the metric
    g, emb = so5_u2.g, so5_u2.embedding
    h, neg_b = emb.matrix, g.inner_product
    p_m = np.eye(g.dim) - h @ np.linalg.solve(h.T @ neg_b @ h, h.T @ neg_b)
    gram = core.exact.to_float(*core.exact.rounded(
        neg_b + 2 * p_m.T @ neg_b @ p_m))
    mutant = core.LieAlgebra(g.constants, gram, "so(5)'")
    assert mutant.inner_ad_invariance() == 12.0
    space = spaces.decompose_isotropy(spaces.reductive_space(
        None, zoo.Embedding(source=emb.source, target=mutant,
                            matrix=h)))
    assert space.module_dims == so5_u2.module_dims
    with pytest.raises(spaces.ExactUnavailableError,
                       match=r"^so\(5\)': inner product is not ad-invariant$"):
        spaces.exact_module_bases(space)


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
    lane = spaces.exact_module_bases(so5_u2)
    cols = np.stack([core.exact.to_float(b[:, 0], lane.denom)
                     for b in lane.bases], axis=1)
    coords = so5_u2.m.basis.T @ so5_u2.g.inner_product @ cols
    full = np.linalg.qr(coords, mode="complete")[0]
    with pytest.raises(spaces.ExactUnavailableError, match="invariant"):
        spaces.exact_module_bases(
            _with_modules(so5_u2, [full[:, :2], full[:, 2:]]))


def test_exact_module_bases_refuse_an_h_that_is_not_a_subalgebra(so5_u2):
    # h's first column swapped for a rational vector of m1: the matrix
    # reads exactly and keeps its rank, but its span does not close. The
    # Embedding is built past its float homomorphism check.
    lane = spaces.exact_module_bases(so5_u2)
    matrix = so5_u2.embedding.matrix.copy()
    matrix[:, 0] = core.exact.to_float(lane.bases[0][:, 0], lane.denom)
    matrix.flags.writeable = False
    bad = object.__new__(zoo.Embedding)
    for name, value in (("source", so5_u2.embedding.source),
                        ("target", so5_u2.g), ("matrix", matrix),
                        ("name", "not a subalgebra")):
        object.__setattr__(bad, name, value)
    assert bad.homomorphism_residual() > 0.1
    with pytest.raises(spaces.ExactUnavailableError, match="subalgebra"):
        spaces.exact_module_bases(replace(so5_u2, embedding=bad))


def _lane_part(a):
    """dtype, shape, entry types and values of one lane array."""
    a = np.asarray(a)
    return [str(a.dtype), list(a.shape),
            sorted({type(v).__name__ for v in a.flat}),
            [int(v) for v in a.flat]]


def test_exact_lanes_match_the_checked_in_digests():
    # every array of each lane, in values, dtypes and entry types: the
    # integer build must give the arrays each sample reads, in the one
    # dtype its bounds pick
    want = json.loads(Path(__file__).with_name(
        "exact_digests.json").read_text())["lanes"]["sha256"]
    got = {}
    for entry_id in EXACT_IDS:
        lane = catalog.catalog_instantiate(entry_id, seed=0).exact_lane
        dump = {"bases": [_lane_part(b) for b in lane.bases],
                "denom": [type(lane.denom).__name__, lane.denom],
                "rows": _lane_part(lane.rows),
                "system": [_lane_part(s) for s in lane.system],
                "h_cols": _lane_part(lane.h_cols)}
        got[f"{entry_id}/0"] = hashlib.sha256(
            json.dumps(dump, sort_keys=True).encode()).hexdigest()
    assert got == want


@pytest.mark.parametrize("entry_id, most", [
    ("go-2", 0), ("go-4-r2", 0), ("go-6-m3n2", 0), ("t1-V.1-m3n3", 42)])
def test_exact_projector_rounding_takes_integers_without_fractions(
        entry_id, most, monkeypatch):
    # the rounded projector's entries are 0, 1 and +-1/2: only the
    # halves of t1-V.1-m3n3 go through limit_denominator
    space = catalog.catalog_instantiate(entry_id, seed=0)
    calls, limit = [], Fraction.limit_denominator
    monkeypatch.setattr(Fraction, "limit_denominator",
                        lambda self, *a: calls.append(self) or limit(self, *a))
    spaces.exact_module_bases(space)
    assert len(calls) <= most
    if most:
        assert calls


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
    m_bracket_h = spaces.bracket_coords(g, core.pair_bracket_tensor(
        g, su3_su2.m.basis, su3_su2.m.basis), su3_su2.h.basis)
    h_part = su3_su2.h.basis @ np.einsum(
        "abc,a,b->c", m_bracket_h,
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


def _assert_commutant_basis(maps, action):
    # every count multiplies the whole stack, which BLAS needs contiguous
    assert maps.flags.c_contiguous
    residual = action[:, None] @ maps[None] - maps[None] @ action[:, None]
    assert np.abs(residual).max(initial=0.0) < 1e-10
    flat = maps.reshape(len(maps), maps.shape[1] * maps.shape[2])
    np.testing.assert_allclose(flat @ flat.T, np.eye(len(maps)), atol=1e-10)


def _symmetric_dim(maps):
    return linalg.svd_rank(
        (maps + maps.transpose(0, 2, 1)).reshape(len(maps), -1))


def _direct_sum(*actions):
    """The block-diagonal action of stacks with one generator count."""
    dims = [a.shape[1] for a in actions]
    rep = np.zeros((len(actions[0]), sum(dims), sum(dims)))
    start = 0
    for a, d in zip(actions, dims):
        rep[:, start:start + d, start:start + d] = a
        start += d
    return rep


def _hom_dim(maps, dst, src):
    """Dimension of the maps from the coordinates ``src`` to ``dst`` (two
    slices) in the commutant ``maps`` of a direct sum: the rank of its
    (dst, src) blocks, the intertwiners between the two summands."""
    return linalg.svd_rank(maps[:, dst, src].reshape(len(maps), -1))


def test_commutant_of_the_isotropy_action(so5_u2, so8_g2):
    for space in (so5_u2, so8_g2):
        action = space.iso_action
        maps = spaces.commutant(action)
        _assert_commutant_basis(maps, action)
        assert _symmetric_dim(maps) == space.metric_space_dim


def test_equivalent_real_modules_have_one_intertwiner(so8_g2):
    first, second = (_module_action(so8_g2, i) for i in range(2))
    maps = _assert_matches_kronecker(_direct_sum(first, second))
    # R in each diagonal block and in each off-diagonal one
    assert maps.shape == (4, 14, 14)
    one, two = slice(0, 7), slice(7, 14)
    assert _hom_dim(maps, two, one) == _hom_dim(maps, one, two) == 1
    assert len(_kronecker_commutant(first, second)) == 1


def test_complex_type_module_has_one_symmetric_intertwiner():
    space = catalog.catalog_instantiate("go-3-k3", seed=0)
    maps = _assert_matches_kronecker(
        _direct_sum(*(_module_action(space, i) for i in range(2))))
    for index in range(2):
        own = slice(6 * index, 6 * index + 6)
        block = maps[:, own, own]
        assert _hom_dim(maps, own, own) == 2
        assert _symmetric_dim(block) == 1
    # the two modules are not equivalent
    assert _hom_dim(maps, slice(6, 12), slice(0, 6)) == 0
    assert len(maps) == 4


def test_inequivalent_modules_have_no_intertwiner():
    space = catalog.catalog_instantiate("go-2", seed=0)
    maps = _assert_matches_kronecker(
        _direct_sum(*(_module_action(space, i) for i in range(2))))
    seven, fourteen = slice(0, 7), slice(7, 21)
    assert _hom_dim(maps, fourteen, seven) == 0
    assert _hom_dim(maps, seven, fourteen) == 0
    # R on the 7-dimensional module, C on the 14-dimensional one
    assert _hom_dim(maps, seven, seven) == 1
    assert _hom_dim(maps, fourteen, fourteen) == len(maps) - 1 == 2
    # so(3) on R^3 against the trivial R^2: both have eigenvalue 0, so
    # the kernel gives candidates between them, and the generators remove
    # them all, leaving R on R^3 and gl(2) on R^2
    vector = _so3_summands()[1]
    maps = _assert_matches_kronecker(_direct_sum(vector, np.zeros((3, 2, 2))))
    assert _hom_dim(maps, slice(3, 5), slice(0, 3)) == 0
    assert _hom_dim(maps, slice(0, 3), slice(3, 5)) == 0
    assert len(maps) == 1 + 4


def test_commutant_without_generators_spans_every_map():
    maps = spaces.commutant(np.zeros((0, 3, 3)))
    assert maps.shape == (9, 3, 3)
    np.testing.assert_array_equal(maps.reshape(9, 9), np.eye(9))


def _so3_summands():
    vector = np.array([m.real for m in zoo.matrix_basis("so", 3)])
    eye = np.eye(3)
    tensor = np.array([np.kron(x, eye) + np.kron(eye, x) for x in vector])
    return [np.zeros((3, 1, 1)), vector, tensor]


def _random_direct_sum(counts, rng):
    rep = _direct_sum(*(block for block, count in zip(_so3_summands(), counts)
                        for _ in range(count)))
    q, _ = np.linalg.qr(rng.standard_normal(rep.shape[1:]))
    return q.T @ rep @ q


_COUNTS = st.tuples(st.integers(0, 2), st.integers(0, 2),
                    st.integers(0, 1)).filter(any)


def _kronecker_commutant(src, dst):
    """Reference intertwiners, independent of ``spaces.commutant``: the
    kernel of every generator's Kronecker system at once, a
    (k dim dst dim src) x (dim dst dim src) matrix, so small sizes only.
    An orthonormal (count, dim dst, dim src) stack."""
    ds, dd = src.shape[1], dst.shape[1]
    rows = [np.zeros((0, dd * ds))]  # no generators: every map
    rows += [np.kron(b, np.eye(ds)) - np.kron(np.eye(dd), a.T)
             for a, b in zip(src, dst)]
    kernel = linalg.nullspace(np.vstack(rows))
    return kernel.T.reshape(kernel.shape[1], dd, ds)


def _assert_matches_kronecker(action):
    """``commutant`` is an orthonormal basis of the reference commutant:
    same count, same projector F^T F on the flattened maps."""
    maps = spaces.commutant(action)
    _assert_commutant_basis(maps, action)
    reference = _kronecker_commutant(action, action)
    assert maps.shape == reference.shape
    flat, ref = (m.reshape(len(m), m.shape[1] * m.shape[2])
                 for m in (maps, reference))
    np.testing.assert_allclose(flat.T @ flat, ref.T @ ref, atol=1e-9)
    return maps


@given(_COUNTS, _COUNTS, st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_intertwiners_match_the_kronecker_nullspace(src_counts, dst_counts,
                                                    seed):
    # the commutant of src + dst holds Hom(src, dst) as its off-diagonal
    # block: that block spans the reference Hom(src, dst), and the four
    # blocks' references count the whole commutant
    rng = np.random.default_rng(seed)
    src = _random_direct_sum(src_counts, rng)
    dst = _random_direct_sum(dst_counts, rng)
    action = _direct_sum(src, dst)
    maps = spaces.commutant(action)
    _assert_commutant_basis(maps, action)
    ds = src.shape[1]
    cross = linalg.column_space(maps[:, ds:, :ds].reshape(len(maps), -1).T)
    ref = _kronecker_commutant(src, dst).reshape(-1, cross.shape[0])
    assert cross.shape[1] == len(ref)
    np.testing.assert_allclose(cross @ cross.T, ref.T @ ref, atol=1e-9)
    assert len(maps) == sum(len(_kronecker_commutant(a, b))
                            for a in (src, dst) for b in (src, dst))


@pytest.mark.parametrize("entry_id", [
    e.id for e in catalog.catalog_list(constructible=True)
    if sum(e.expected["module_dims"]) <= 21])
def test_isotropy_commutant_matches_the_kronecker_reference(entry_id):
    _assert_matches_kronecker(
        catalog.catalog_instantiate(entry_id, seed=0).iso_action)


def test_zero_action_commutant_is_every_map():
    # every eigenvalue is 0, so every pair matches: all 49 maps, 12 of
    # them from the first 3 coordinates to the last 4
    maps = _assert_matches_kronecker(np.zeros((2, 7, 7)))
    assert len(maps) == 49
    assert _hom_dim(maps, slice(3, 7), slice(0, 3)) == 12


def test_one_generator_with_repeated_eigenvalues():
    # so(2) on R^2 + R^2 + R^2(twice the speed) + R: eigenvalues +-i twice,
    # +-2i once and 0 once, in a random orthonormal frame
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    gen = np.zeros((7, 7))
    gen[0:2, 0:2] = gen[2:4, 2:4] = j
    gen[4:6, 4:6] = 2 * j
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((7, 7)))
    action = (q.T @ gen @ q)[None]
    # the commutant of the +-i block is gl(2, C) (8 real dims), then
    # C for the +-2i block and R for the kernel
    assert len(_assert_matches_kronecker(action)) == 8 + 2 + 1


def test_staged_commutant_imposes_every_generator_last():
    # five generators a_i = alpha_i X + beta_i Y on R^6, not a Lie action,
    # with beta orthogonal to the four weight vectors commutant draws from
    # rng_for("intertwiners", 5): the generic element, c, and the two
    # staged combinations. Every drawn combination is then a multiple of
    # X, whose commutant (C on each of its three planes, 6 maps) survives
    # every generic stage; only the final stage, which imposes each a_i,
    # cuts it to the scalars that also commute with Y
    k, d = 5, 6
    rng = linalg.rng_for("intertwiners", k)
    drawn = np.vstack([rng.standard_normal(k), rng.standard_normal(k),
                       rng.standard_normal((2, k))])
    beta = linalg.nullspace(drawn)[:, 0]
    local = np.random.default_rng(3)
    x, y = (a - a.T for a in local.standard_normal((2, d, d)))
    action = (local.standard_normal(k)[:, None, None] * x
              + beta[:, None, None] * y)
    combos = np.einsum("sa,aij->sij", drawn, action)
    assert len(_kronecker_commutant(combos, combos)) == d
    maps = _assert_matches_kronecker(action)
    assert len(maps) == 1


def test_staged_commutant_of_one_generator_imposes_nothing(monkeypatch):
    # so(7)/so(2): the one generator has eigenvalues +-i, five times
    # each, and a 10-dimensional kernel, and its candidates commute with
    # it by construction, so commutant imposes no stage; imposing the
    # generator on them keeps every one, and both match the Kronecker
    # reference
    action = spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=2, n=7)).iso_action
    impose = spaces._impose

    def refuse(maps, gens):
        raise AssertionError("a stage was imposed with one generator")
    monkeypatch.setattr(spaces, "_impose", refuse)
    maps = _assert_matches_kronecker(action)
    imposed = impose(maps, action)
    assert imposed.shape == maps.shape == (10 * 10 + 2 * 5 * 5, 20, 20)
    flat, kept = (m.reshape(len(m), -1) for m in (maps, imposed))
    np.testing.assert_allclose(kept.T @ kept, flat.T @ flat, atol=1e-12)


def test_staged_commutant_splits_its_last_stage_under_the_bound(
        monkeypatch):
    # su(4)/su(2): 48 candidates on R^12, 32 after the generic stages
    # (gl(4) on the trivial part, gl(2, H) on two copies of H); under a
    # bound that only the first stage's footprint meets, the three
    # generators are imposed one at a time, with the same result
    action = spaces.reductive_space(
        None, zoo.named_embedding("su_in_su", k=2, n=4)).iso_action
    assert len(_assert_matches_kronecker(action)) == 32
    calls = []
    check_size = spaces._check_size

    def spy(*args):
        calls.append(args)
        check_size(*args)
    monkeypatch.setattr(spaces, "_check_size", spy)
    monkeypatch.setattr(spaces, "MAX_SYSTEM_BYTES", 4 * 48 * 12 * 12 * 8)
    assert len(_assert_matches_kronecker(action)) == 32
    assert calls == [(48, 12, 1)] * 2 + [(32, 12, 1)] * 4


@pytest.mark.parametrize("seed", range(12))
def test_module_order_does_not_depend_on_the_seed(seed):
    # so(7)/u(3): both modules are 6-dimensional; h + m1 must be the
    # subalgebra u(3) + m1 = so(6), so [m1, m2] lies in m2
    space = catalog.catalog_instantiate("go-3-k3", seed=seed)
    assert filters.bracket_location(space) == "in_m2"


@pytest.mark.parametrize("entry_id", ["t1-V.1-m3n3", "struct-2"])
def test_module_order_does_not_depend_on_the_draw(entry_id, monkeypatch):
    # both modules tie in dimension and in |proj_m [m_i, m_i]|, so only a
    # key read off each subspace, not off the draw, fixes their order
    space = catalog.catalog_instantiate(entry_id, seed=0)
    eigvecs = []
    block_sums = spaces._block_sums

    def spy(maps, basis):
        eigvecs.append(basis.tobytes())
        return block_sums(maps, basis)
    monkeypatch.setattr(spaces, "_block_sums", spy)

    def fresh():
        # a raw matrix builds a split, and draws, of its own
        return spaces.decompose_isotropy(spaces.reductive_space(
            space.g, space.embedding.matrix))
    want = fresh()
    rng_for = linalg.rng_for
    for suffix in "abcd":
        monkeypatch.setattr(spaces, "rng_for", lambda *parts, s=suffix: (
            rng_for(*parts, s) if parts[0] == "decompose"
            else rng_for(*parts)))
        got = fresh()
        np.testing.assert_allclose(got.module_projectors,
                                   want.module_projectors, atol=1e-8)
    # another draw: other eigenvectors of the same modules, in one order
    assert len(eigvecs) == 5 and len(set(eigvecs)) > 1


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_module_contractions_match_einsum(dh, d1, d2, seed):
    # random structure constants, so every contraction is exercised
    # without the symmetries of a Lie algebra hiding index mix-ups
    rng = np.random.default_rng(seed)
    n = dh + d1 + d2
    raw = rng.standard_normal((n, n))
    g = core.LieAlgebra(rng.standard_normal((n, n, n)),
                        raw @ raw.T + n * np.eye(n))
    frame = linalg.gram_orthonormalize(rng.standard_normal((n, n)),
                                       g.inner_product)
    hb, mb = frame[:, :dh], frame[:, dh:]
    space = spaces.ReductiveSpace(
        g=g, h=core.Subspace(g, hb), m=core.Subspace(g, mb),
        modules=(core.Subspace(g, frame[:, dh:dh + d1]),
                 core.Subspace(g, frame[:, dh + d1:])))
    c, gram = g.structure, g.inner_product
    iso = np.einsum("ijk,ia,jb,kc->abc", c, hb, mb, gram @ mb)
    m_m = np.einsum("ijk,ia,jb,kc->abc", c, mb, mb, gram @ mb)
    assert_matches(space.iso_action, iso)
    assert_matches(space.m_bracket_m, m_m)
    assert_matches(spaces.bracket_coords(g, core.pair_bracket_tensor(
                       g, mb, mb), hb),
                   np.einsum("ijk,ia,jb,kc->abc", c, mb, mb, gram @ hb))
    blocks = [space.module_coords_in_m(i) for i in range(2)]
    for i, (bf, bt) in enumerate([blocks, blocks[::-1]]):
        action = np.einsum("pi,apq,qj->aij", bt, iso, bt)
        assert_matches(filters._module_action(space, 1 - i), action)
        cross = np.einsum("abc,ai,bj,ck->ikj", m_m, bf, bt, bt)
        assert_matches(filters._subalgebra_action_on_module(space, i, 1 - i),
                       np.concatenate([action, cross]))


def test_split_modules_holds_one_copy_of_the_commutant():
    # so(12)/so(2)'s commutant is a (2225, 65, 65) stack of 72 MiB; the
    # block sums rotate it a chunk of maps at a time, so the split, the
    # commutant's own stages included, never holds a second whole copy
    import tracemalloc
    split = spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=2, n=12)).split
    tracemalloc.start()
    try:
        found = spaces._split_modules(split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.commutant.shape == (2225, 65, 65)
    # symmetric invariant maps: 45 * 46 / 2 on so(10), trivial under
    # so(2), and 10^2 Hermitian ones on the ten copies of R^2
    assert found.metric_space_dim == 45 * 46 // 2 + 10 ** 2
    assert peak < 1.5 * split.commutant.nbytes


def test_commutant_refuses_an_oversized_system_before_allocating():
    import tracemalloc
    # 65^2 unknowns, every one a candidate: a 136 MiB system, just over
    # the bound
    action = np.zeros((1, 65, 65))
    assert 65 ** 4 * 8 > spaces.MAX_SYSTEM_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(spaces.DecompositionError,
                           match="commutant system of 136 MiB"):
            spaces.commutant(action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_so16_over_so8_fails_fast():
    # dim m 92: a 547 MiB Kronecker system, once a MemoryError in np.kron
    space = spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=8, n=16))
    with pytest.raises(spaces.DecompositionError, match="exceeds"):
        spaces.decompose_isotropy(space)


@pytest.mark.parametrize("key, params, dims, metric_dim", [
    ("u_in_so_odd", {"k": 6}, (12, 30), 2),
    ("irreducible_su2_in_su", {"two_j": 7}, (5, 7, 9, 11, 13, 15), 6),
    # su(8)/su(4): m = su(4)' + u(1), trivial, and C^4 x C^4', four copies
    # of C^4 of complex type; symmetric maps: 16 * 17 / 2 + 4^2 = 152
    ("su_in_su", {"k": 4, "n": 8}, (1,) * 16 + (8,) * 4, 152),
    # so(mn)/(so(m)+so(n)) on R^m x R^n, t1-V.1: so(mn) = L2(R^m x R^n)
    # = L2 R^m x S2 R^n + S2 R^m x L2 R^n, with S2 = S2_0 + R and
    # h = L2 R^m + L2 R^n, so m = L2 R^m x S2_0 R^n + S2_0 R^m x L2 R^n.
    # At (3, 5): (3 * 14, 5 * 10) = (42, 50), inequivalent, real type.
    ("so_x_so_tensor", {"p": 3, "q": 5}, (42, 50), 2),
    # At (4, 4): L2 R^4 = L2+ + L2-, so four pairwise inequivalent
    # modules of 3 * 9 = 27, each of real type.
    ("so_x_so_tensor", {"p": 4, "q": 4}, (27, 27, 27, 27), 4),
])
def test_rows_near_the_rank_caps_decompose(key, params, dims, metric_dim):
    # so(13)/u(6), su(8)/su(2), su(8)/su(4), so(15)/(so(3)+so(5)) and
    # so(16)/(so(4)+so(4)), dim m 42 to 108: about 20 s each through a
    # (dim m)^2-unknown Kronecker solve, under 1 s each here. The tensor
    # rows were refused by the size bound when commutant imposed every
    # generator at once; su(8)/su(4), whose 288 candidates all survive
    # the generic stages, imposes its generators in two parts
    space = spaces.decompose_isotropy(spaces.reductive_space(
        None, zoo.named_embedding(key, **params)))
    assert space.module_dims == dims
    assert space.metric_space_dim == metric_dim


def _noisy(inner, scale):
    """``commutant`` with Gaussian noise of size ``scale`` added to its
    basis, re-orthonormalised: a commutant known only to rounding."""
    def wrapped(action):
        maps = inner(action)
        flat = maps.reshape(len(maps), -1)
        rng = np.random.default_rng(flat.shape)
        q = np.linalg.qr((flat + scale * rng.standard_normal(flat.shape)).T)[0]
        return q.T.reshape(maps.shape)
    return wrapped


@pytest.fixture()
def cold_splits():
    """An empty split cache, emptied again afterwards, so a test that
    patches ``commutant`` builds its commutants and leaves none."""
    spaces.SPLITS.cache_clear()
    yield
    spaces.SPLITS.cache_clear()


@pytest.mark.parametrize("entry_id", ["go-3-k3", "go-1", "go-2", "struct-1"])
def test_counts_survive_a_commutant_known_to_rounding(entry_id, monkeypatch,
                                                      cold_splits):
    # complex-type modules (go-3-k3), isotypic pairs (go-1, struct-1) and
    # a plain pair (go-2): every count is an integer read off the basis,
    # so noise far above eps moves none of them
    want = catalog.catalog_instantiate(entry_id, seed=0)
    monkeypatch.setattr(spaces, "commutant",
                        _noisy(spaces.commutant, 1e-10))
    spaces.SPLITS.cache_clear()
    got = catalog.catalog_instantiate(entry_id, seed=0)
    assert got.module_dims == want.module_dims
    assert got.metric_space_dim == want.metric_space_dim
    assert got.isotypic_groups == want.isotypic_groups


def test_decomposition_solves_one_commutant(monkeypatch):
    calls = []
    inner = spaces.commutant

    def spy(action):
        calls.append(action.shape)
        return inner(action)
    monkeypatch.setattr(spaces, "commutant", spy)
    entries = catalog.catalog_list(constructible=True)
    assert len(entries) == 20
    for entry in entries:
        calls.clear()
        spaces.SPLITS.cache_clear()
        catalog.catalog_instantiate(entry, seed=0)
        assert len(calls) == 1, entry.id


def test_a_count_off_the_integers_is_refused(monkeypatch, cold_splits):
    # a basis scaled by sqrt(1.25) is no longer orthonormal, and the
    # 2-dimensional metric space of so(5)/u(2) reads 2.5
    inner = spaces.commutant
    monkeypatch.setattr(spaces, "commutant",
                        lambda action: np.sqrt(1.25) * inner(action))
    space = spaces.reductive_space(
        None, zoo.named_embedding("u_in_so_odd", k=2), name="so(5)/u(2)")
    with pytest.raises(spaces.DecompositionError, match="2.500"):
        spaces.decompose_isotropy(space)


def test_a_degenerate_draw_fails_fast(monkeypatch):
    # one cluster for all of so(5)/u(2) carries both symmetric invariant
    # maps; the one draw is refused by name, with no retry
    emb = zoo.as_embedding(zoo.named_embedding("u_in_so_odd", k=2))
    space = spaces.reductive_space(emb.target, emb.matrix)
    calls = []
    split_modules = spaces._split_modules

    def spy(*args):
        calls.append(args)
        return split_modules(*args)
    monkeypatch.setattr(spaces, "_split_modules", spy)
    monkeypatch.setattr(spaces, "_cluster",
                        lambda values: [np.arange(len(values))])
    with pytest.raises(spaces.DecompositionError,
                       match="6-dimensional eigenvalue cluster carries 2 "):
        spaces.decompose_isotropy(space)
    assert len(calls) == 1


@pytest.mark.parametrize("fixture_name", sorted(EXPECTED_MODULE_DIMS))
def test_counts_match_per_module_solves(fixture_name, request):
    # oracle: the Kronecker reference for every module and every pair,
    # against block sums of the commutant rotated into the module bases
    space = request.getfixturevalue(fixture_name)
    action = space.iso_action
    maps = spaces.commutant(action)
    blocks = [space.module_coords_in_m(i) for i in range(len(space.modules))]
    squares, symmetric = spaces._block_sums(maps, np.hstack(blocks))
    assert spaces._commutant_count(symmetric, slice(None), slice(None)) == \
        _symmetric_dim(maps) == space.metric_space_dim
    ends = np.cumsum((0,) + space.module_dims)
    spans = [np.arange(a, b) for a, b in zip(ends, ends[1:])]
    for i, src in enumerate(spans):
        own = _kronecker_commutant(_module_action(space, i),
                                   _module_action(space, i))
        assert spaces._commutant_count(symmetric, src, src) == \
            _symmetric_dim(own) == 1
        for j, dst in enumerate(spans):
            oracle = _kronecker_commutant(_module_action(space, i),
                                          _module_action(space, j))
            assert spaces._commutant_count(squares, dst, src) == len(oracle)
            grouped = any(i in gp and j in gp for gp in space.isotypic_groups)
            assert grouped == (len(oracle) > 0)


def test_so10_over_so2_groups_many_modules():
    # 28 trivial lines, all equivalent, and 8 planes of complex type, all
    # equivalent: the metrics are symmetric 28 x 28 blocks plus 8 x 8
    # blocks of complex scalars, 28 * 29 / 2 + 8^2 of them
    space = spaces.decompose_isotropy(spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=2, n=10), name="so(10)/so(2)"))
    assert len(space.modules) == 36
    assert space.module_dims == (1,) * 28 + (2,) * 8
    assert space.isotypic_groups == (tuple(range(28)), tuple(range(28, 36)))
    assert space.metric_space_dim == 470


def test_empty_m_decomposes_to_nothing():
    # reductive_space refuses h = g, so the empty isotropy is built by
    # hand; the general path returns no modules and no metrics
    g = zoo.classical("su", 2)
    space = spaces.ReductiveSpace(
        g=g, h=core.Subspace.from_columns(g, np.eye(3), name="h"),
        m=core.Subspace(ambient=g, basis=np.zeros((3, 0)), name="m"))
    out = spaces.decompose_isotropy(space)
    assert (out.modules, out.isotypic_groups) == ((), ())
    assert out.metric_space_dim == 0


# --- the seed-free split, shared per process ---------------------------

def test_a_decomposed_space_shares_its_split(monkeypatch):
    chain = zoo.named_embedding("u_in_so_odd", k=2)
    bare = spaces.reductive_space(None, chain, name="so(5)/u(2)")
    first = spaces.decompose_isotropy(bare, seed=0)
    assert first.split is bare.split
    assert first.iso_action is bare.iso_action
    assert first.split.commutant is bare.split.commutant
    calls = []
    monkeypatch.setattr(spaces, "commutant",
                        lambda *args: calls.append(args))
    other = spaces.reductive_space(None, chain, name="another name")
    for seed in range(4):
        out = spaces.decompose_isotropy(other, seed=seed)
        assert out.split is bare.split
        assert out.module_dims == first.module_dims
    assert not calls


def _outcome(build):
    try:
        build()
    except core.ValidationError as err:
        return str(err)
    return "built"


def _tilted_so3_in_so5():
    """so(3) in so(5) tilted by 1e-6, built under a loose homomorphism
    bound: closure and [h, m] residuals near 1.7e-7."""
    base = zoo.embed_so_in_so(3, 5)
    tilted = base.matrix.copy()
    tilted[-1, 0] += 1e-6
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zoo, "HOMOMORPHISM_TOL", 1e-3)
        return zoo.Embedding(source=base.source, target=base.target,
                             matrix=tilted)


def test_a_warm_split_honours_each_calls_tol():
    # each call's tol decides, warm as cold
    emb = _tilted_so3_in_so5()
    split = spaces.reductive_space(None, emb, tol=1.0).split
    assert split.closure > 1e-7 and split.leak > 1e-7
    outcomes = set()
    for tol in (0.0, 1e-8, split.closure / 2, split.leak / 2, split.closure,
                split.leak, 1e-6, 1.0):
        warm = _outcome(lambda: spaces.reductive_space(None, emb, tol=tol))
        cold = _outcome(lambda: spaces.reductive_space(emb.target,
                                                       emb.matrix, tol=tol))
        assert warm == cold, tol
        outcomes.add(warm.split(" (")[0])
    assert outcomes == {"built", "h is not a subalgebra"}
    assert spaces.reductive_space(None, emb, tol=1e-6).split is split


ISOTYPIC_ENTRIES = ("go-1", "struct-1", "struct-5")


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.catalog_list(
    constructible=True)])
def test_every_seed_shares_one_decomposition_and_filter_report(entry_id):
    # an isotypic group, whose split the maths leaves open, takes the
    # split's one draw as every other space does
    found = [catalog.catalog_instantiate(entry_id, seed=s) for s in range(4)]
    first = found[0]
    assert (entry_id in ISOTYPIC_ENTRIES) == any(
        len(group) > 1 for group in first.isotypic_groups)
    reports = [filters.necessary_filter(space, seed=seed)
               for seed, space in enumerate(found)]
    for space, report in zip(found, reports):
        assert space.decomposition is first.split.decomposition
        assert space.modules is first.modules
        assert space.module_projectors is first.module_projectors
        assert report is reports[0]
    fresh = replace(first, decomposition=None)
    assert fresh.decomposition is not first.decomposition
    again = filters.necessary_filter(fresh)
    assert again is not reports[0]
    assert again.as_dict() == reports[0].as_dict()


@pytest.mark.parametrize("entry_id", ISOTYPIC_ENTRIES)
def test_no_seed_moves_the_metric_of_an_isotypic_split(entry_id):
    # lam P1 + mu P2 is the same metric, to the bit, whatever the seed
    want = go.MetricOperator.two_param(
        catalog.catalog_instantiate(entry_id, seed=0), 1, 2).matrix.tobytes()
    for seed in range(1, 4):
        space = catalog.catalog_instantiate(entry_id, seed=seed)
        assert go.MetricOperator.two_param(space, 1, 2).matrix.tobytes() \
            == want, seed


def _decomposed(build, tol):
    """The module bases' bytes, or the error, of decomposing at ``tol``."""
    try:
        space = spaces.decompose_isotropy(build(), tol=tol)
    except spaces.DecompositionError as err:
        return str(err)
    return b"".join(mod.basis.tobytes() for mod in space.modules)


def test_a_warm_decomposition_honours_each_calls_tol():
    # each call's tol decides, warm as cold, with tols rising and falling
    emb = zoo.as_embedding(zoo.named_embedding("u_in_so_odd", k=2))
    split = spaces.reductive_space(None, emb).split
    residual = split.decomposition.residual
    assert 0 < residual < 1e-8
    tols = sorted({0.0, 1e-8, residual, 0.999 * residual})
    outcomes = set()
    for order in (tols, tols[::-1]):
        for tol in order:
            warm = _decomposed(lambda: spaces.reductive_space(None, emb), tol)
            # a raw matrix builds a split, and draws, of its own
            cold = _decomposed(lambda: spaces.reductive_space(
                emb.target, emb.matrix), tol)
            assert warm == cold, tol
            # built exactly when the one draw's residual is within tol
            assert isinstance(warm, bytes) == (tol >= residual), tol
            outcomes.add(warm)
    # one set of module bases, and the error under the residual
    errors = [out for out in outcomes if not isinstance(out, bytes)]
    assert len(outcomes) - len(errors) == 1 and errors
    assert all(err.startswith("the isotropy modules are not ad(h)-invariant")
               for err in errors)
    assert spaces.reductive_space(None, emb).split is split


@pytest.mark.parametrize("entry_id", ["go-3-k2", "t1-V.1-m3n3"])
def test_a_warm_filter_honours_each_calls_tol(entry_id):
    space = catalog.catalog_instantiate(entry_id, seed=0)
    sizes = space.decomposition.bracket_sizes
    tols = sorted({0.0, 1.0, *sizes, *(0.999 * v for v in sizes)})
    locations = set()
    for order in (tols, tols[::-1]):
        for tol in order:
            warm = filters.necessary_filter(space, tol=tol)
            # a decomposition of its own reads the modules afresh
            cold = filters.necessary_filter(
                replace(space, decomposition=None), tol=tol)
            assert warm.as_dict() == cold.as_dict(), tol
            assert filters.bracket_location(space, tol) \
                == warm.bracket_location
            locations.add(warm.bracket_location)
    # mixed under the smaller size, zero above both
    assert len(locations) == 3


def test_a_split_refused_by_tol_is_kept(cold_splits):
    # the residuals are the split's own; only the comparison is per call
    emb = _tilted_so3_in_so5()
    for _ in range(2):
        with pytest.raises(core.ValidationError, match="not a subalgebra"):
            spaces.reductive_space(None, emb, tol=1e-8)
    info = spaces.SPLITS.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    split = spaces.reductive_space(None, emb, tol=1e-6).split
    assert split.closure > 1e-8
    assert spaces.SPLITS.cache_info()[:2] == (2, 1)


def test_a_warm_split_does_not_serve_another_g_of_its_dimension():
    emb = zoo.named_embedding("so_in_so", k=2, n=3)
    so3 = spaces.reductive_space(None, emb)
    su2 = zoo.classical("su", 2)
    other = spaces.reductive_space(su2, emb)
    assert other.g is su2 and other.split is not so3.split
    np.testing.assert_array_equal(
        other.m.basis, spaces.reductive_space(su2, emb.matrix).m.basis)
    # in the abelian torus(3) the same columns act trivially on m
    with pytest.raises(core.EffectivenessError):
        spaces.reductive_space(zoo.classical("torus", 3), emb)


def test_a_refused_build_is_refused_on_every_call():
    emb = zoo.named_embedding("so_in_so", k=2, n=3)
    torus = zoo.classical("torus", 3)
    before = spaces.SPLITS.cache_info()
    for _ in range(3):
        with pytest.raises(core.EffectivenessError):
            spaces.reductive_space(torus, emb)
    after = spaces.SPLITS.cache_info()
    # each call built afresh, and none was kept
    assert after.misses == before.misses + 3 and after.hits == before.hits
    assert after.currsize == before.currsize
    # a commutant over the size bound is not kept either
    space = spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=8, n=16))
    for _ in range(2):
        with pytest.raises(spaces.DecompositionError, match="exceeds"):
            spaces.decompose_isotropy(space)
    assert "commutant" not in vars(space.split)


def test_shared_arrays_are_read_only(so5_u2):
    split = so5_u2.split
    shared = [split.iso_action, split.m_bracket_m, split.commutant,
              so5_u2.h.basis, so5_u2.m.basis, so5_u2.embedding.matrix]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


def test_the_split_cache_keeps_its_bound(cold_splits):
    size = spaces.SPLIT_CACHE_SIZE
    # a fresh Embedding object is a fresh key
    embs = [zoo.embed_so_in_so(2, 3) for _ in range(size + 3)]
    splits = [spaces.reductive_space(None, e).split for e in embs]
    assert spaces.SPLITS.cache_info() == (0, size + 3, size, size)
    # the three least recently used are gone, the rest are kept
    assert spaces.reductive_space(None, embs[-1]).split is splits[-1]
    assert spaces.reductive_space(None, embs[3]).split is splits[3]
    assert spaces.reductive_space(None, embs[0]).split is not splits[0]
    assert spaces.SPLITS.cache_info() == (2, size + 4, size, size)


def test_the_split_cache_survives_concurrent_callers(cold_splits):
    # more threads than cores, switching every microsecond, over a table
    # that evicts on almost every insert
    embs = [zoo.embed_so_in_so(2, 3) for _ in range(spaces.SPLIT_CACHE_SIZE)]
    errors = []

    def work(offset):
        try:
            for i in range(60):
                emb = embs[(offset + 7 * i) % len(embs)] if i % 2 \
                    else zoo.embed_so_in_so(2, 3)
                space = spaces.reductive_space(None, emb)
                assert space.split.m is space.m and space.m.dim == 2
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    info = spaces.SPLITS.cache_info()
    assert info.hits + info.misses == 6 * 60
    assert info.currsize == spaces.SPLIT_CACHE_SIZE

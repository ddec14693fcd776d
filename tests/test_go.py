import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from orbitcheck import catalog, core, exact, go, linalg, natred, spaces, zoo
from orbitcheck.linalg import rng_for
from orbitcheck.spaces import ExactUnavailableError
from test_exact import _solve
from test_spaces import _kronecker_commutant, _module_action, _with_modules


def module_vector(space, index, rng):
    block = space.module_coords_in_m(index)
    v = block @ rng.normal(size=block.shape[1])
    return v / np.linalg.norm(v)


def test_witness_solves_pointwise_criterion(so5_u2):
    rng = np.random.default_rng(11)
    metric = go.MetricOperator.two_param(so5_u2, 1.0, 2.0)
    for _ in range(5):
        x = rng.normal(size=so5_u2.m.dim)
        x /= np.linalg.norm(x)
        witness = go.go_witness_general(so5_u2, metric, x)
        assert witness.z is not None
        assert witness.residual <= 1e-9
        # re-derive the defect in ambient coordinates
        g = so5_u2.g
        xg = so5_u2.m.basis @ x
        axg = so5_u2.m.basis @ metric.apply(x)
        zg = so5_u2.h.basis @ witness.z
        defect = so5_u2.m.basis.T @ g.inner_product @ g.bracket(xg + zg, axg)
        assert np.abs(defect).max() < 1e-8


def test_scalar_metric_short_circuits_to_normal_case(so5_u2):
    verdict = go.go_check(so5_u2, (2.0, 2.0), n_samples=10)
    assert verdict.status == "NORMAL_TRIVIAL"
    assert verdict.is_go_consistent
    assert verdict.max_residual <= 1e-9


def test_go_check_consistent_on_projective_pair(so5_u2):
    verdict = go.go_check(so5_u2, (1.0, 2.0), n_samples=50, seed=0)
    assert verdict.status == "GO_CONSISTENT"
    assert verdict.counterexample is None
    assert verdict.max_residual <= 1e-8
    assert verdict.n_samples == 50


def test_go_check_is_seed_deterministic(su3_su2):
    v1 = go.go_check(su3_su2, (1.0, 5.0), n_samples=20, seed=3)
    v2 = go.go_check(su3_su2, (1.0, 5.0), n_samples=20, seed=3)
    assert v1.status == v2.status
    assert v1.max_residual == v2.max_residual


def test_not_go_certificate_on_tensor_space(so9_tensor):
    verdict = go.go_check(so9_tensor, (1.0, 2.0), n_samples=100, seed=0)
    assert verdict.status == "NOT_GO"
    cex = verdict.counterexample
    assert cex is not None
    assert cex.z is None
    assert cex.rank_gap >= 1
    assert cex.margin >= go.MARGIN_FACTOR * go.DEFAULT_TOL
    # the sweep short-circuits on the first certified counterexample
    assert len(verdict.witnesses) < 100


def test_verdict_is_invariant_under_metric_scaling(su3_su2, so9_tensor):
    a = go.go_check(su3_su2, (1.0, 2.0), n_samples=20, seed=1)
    b = go.go_check(su3_su2, (10.0, 20.0), n_samples=20, seed=1)
    assert a.status == b.status == "GO_CONSISTENT"
    c = go.go_check(so9_tensor, (1.0, 2.0), n_samples=20, seed=1)
    d = go.go_check(so9_tensor, (0.5, 1.0), n_samples=20, seed=1)
    assert c.status == d.status == "NOT_GO"
    np.testing.assert_allclose(c.counterexample.x, d.counterexample.x, atol=0)


def test_block_metric_with_cross_coupling(so8_g2):
    coeff = np.array([[1.0, 0.2], [0.2, 2.0]])
    metric = go.MetricOperator.block(so8_g2, [coeff])
    assert not metric.is_scalar
    verdict = go.go_check(so8_g2, metric, n_samples=25, seed=0)
    assert verdict.status == "GO_CONSISTENT"
    assert verdict.max_residual <= 1e-8


def test_an_asymmetric_coefficient_block_is_refused(so8_g2):
    # only the upper cross entry is read: [[1, 0.2], [0.7, 2]] once built
    # the metric of [[1, 0.2], [0.2, 2]], and its verdict reported 0.7
    with pytest.raises(core.ValidationError, match=re.escape(
            "coefficient block [[1.0, 0.2], [0.7, 2.0]] is not symmetric")):
        go.MetricOperator.block(so8_g2, [[[1.0, 0.2], [0.7, 2.0]]])


@pytest.mark.parametrize("entry_id", ["go-1", "struct-1"])
def test_a_block_metric_solves_nothing(entry_id, monkeypatch):
    # the cross isometry is read off the commutant the split computed
    # when the space was decomposed
    space = catalog.catalog_instantiate(entry_id, seed=0)
    calls = []
    inner = spaces.commutant

    def spy(action):
        calls.append(action.shape)
        return inner(action)
    monkeypatch.setattr(spaces, "commutant", spy)
    go.MetricOperator.block(space, [[[1.0, 0.2], [0.2, 2.0]]])
    (i, j), = space.isotypic_groups
    t = go._equivariant_isometry(space, i, j)
    assert not calls
    d = len(t)
    np.testing.assert_allclose(t.T @ t, np.eye(d), atol=1e-12)
    ai, aj = _module_action(space, i), _module_action(space, j)
    assert np.abs(aj @ t - t @ ai).max() <= 1e-12
    # the one reference map, Frobenius-normalised, is T / sqrt(d)
    ref, = np.sqrt(d) * _kronecker_commutant(ai, aj)
    assert min(np.abs(t - ref).max(), np.abs(t + ref).max()) <= 1e-10


def test_the_cross_isometry_takes_the_largest_block(so8_g2):
    # Hom_h(m_1, m_2) of so(8)/G2 is one line, so every commutant map's
    # (m_2, m_1) block is a multiple s_k T of one isometry. Rotating the
    # commutant so that one block is 1e-6 |s| leaves its rounding at
    # about 1e-10 relative; the largest block keeps eps
    (i, j), = so8_g2.isotypic_groups
    maps = so8_g2.split.commutant
    bi, bj = so8_g2.module_coords_in_m(i), so8_g2.module_coords_in_m(j)
    sizes = np.einsum("kpq,pq->k", bj.T @ maps @ bi,
                      _kronecker_commutant(_module_action(so8_g2, i),
                                           _module_action(so8_g2, j))[0])
    unit = sizes / np.linalg.norm(sizes)
    rng = np.random.default_rng(1)
    away = rng.standard_normal(len(sizes))
    away -= (away @ unit) * unit
    first = np.sqrt(1 - 1e-12) * away / np.linalg.norm(away) + 1e-6 * unit
    q, _ = np.linalg.qr(np.column_stack(
        [first, rng.standard_normal((len(sizes), len(sizes) - 1))]))
    rotated = np.einsum("kl,kpq->lpq", q, maps)
    blocks = np.linalg.norm(bj.T @ rotated @ bi, axis=(1, 2))
    assert blocks.min() < 1e-5 < 0.1 < blocks.max()
    split = SimpleNamespace(commutant=rotated)
    space = SimpleNamespace(split=split,
                            module_coords_in_m=so8_g2.module_coords_in_m)
    t = go._equivariant_isometry(space, i, j)
    want = go._equivariant_isometry(so8_g2, i, j)
    assert np.abs(t - want).max() <= 1e-13


@pytest.mark.parametrize("offset, scalar", [
    (0.0, True), (1e-13, True), (-1e-13, True), (1e-11, False)])
def test_is_scalar_cuts_a_block_metric_where_it_did(so5_u2, offset, scalar):
    # a block metric built directly, offset from scalar on module 2: the
    # decision is the max-abs distance from a I against 1e-12 a
    metric = go.MetricOperator.block(so5_u2, [[[3.0]], [[3.0 + offset]]])
    a = metric.matrix[0, 0]
    old = float(np.abs(metric.matrix - a * np.eye(6)).max()) <= 1e-12 * a
    assert metric.is_scalar == old == scalar
    assert not metric.matrix.flags.writeable


@pytest.mark.parametrize("offset, scalar", [
    (0.0, True), (1e-13, True), (-1e-13, True), (1e-11, False)])
def test_is_scalar_of_a_two_param_metric_reads_its_weights(so5_u2, offset,
                                                          scalar):
    # |lam - mu| <= 1e-12 max(lam, mu) agrees with the matrix test here
    metric = go.MetricOperator.two_param(so5_u2, 3.0, 3.0 + 3 * offset)
    a = metric.matrix[0, 0]
    old = float(np.abs(metric.matrix - a * np.eye(6)).max()) <= 1e-12 * a
    assert metric.is_scalar == old == scalar


def test_metric_operator_validation(so5_u2, so8_g2):
    with pytest.raises(core.ValidationError):
        go.MetricOperator.two_param(so5_u2, -1.0, 2.0)
    with pytest.raises(core.ValidationError):
        go.MetricOperator.two_param(so5_u2, 0.0, 2.0)
    with pytest.raises(core.ValidationError):
        go.MetricOperator.block(so5_u2, [np.eye(2)])
    # generic symmetric matrices do not commute with the isotropy action
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 6))
    with pytest.raises(core.ValidationError):
        go.MetricOperator(space=so5_u2, matrix=raw @ raw.T + 6 * np.eye(6),
                          kind="raw", params=())
    # an off-diagonal block needs isotypic modules
    with pytest.raises(core.ValidationError):
        go.MetricOperator.block(so8_g2, [np.eye(2), np.eye(1)])


@pytest.mark.parametrize("n_samples", [0, -3])
@pytest.mark.parametrize("exact_mode", [False, True])
def test_go_check_refuses_fewer_than_one_sample(so5_u2, n_samples,
                                                exact_mode):
    # zero samples used to return a vacuous GO_CONSISTENT
    with pytest.raises(core.ValidationError, match="n_samples"):
        go.go_check(so5_u2, (1, 2), n_samples=n_samples,
                    exact_mode=exact_mode)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("exact_mode", [False, True])
def test_go_check_refuses_a_tolerance_that_is_not_finite_and_positive(
        so5_u2, tol, exact_mode):
    # an infinite tol used to accept every sample as GO_CONSISTENT
    with pytest.raises(core.ValidationError, match="tol must be finite"):
        go.go_check(so5_u2, (1, 2), tol=tol, exact_mode=exact_mode)


def test_geodesic_graph_witness_and_uniqueness(so5_u2):
    rng = rng_for("test-graph", so5_u2.name, 0, 0)
    x = module_vector(so5_u2, 0, rng)
    y = module_vector(so5_u2, 1, rng)
    graph = go.geodesic_graph(so5_u2, 1.0, 2.0, x, y)
    assert graph.residual <= 1e-8
    g = so5_u2.g
    xg = so5_u2.m.basis @ x
    yg = so5_u2.m.basis @ y
    lhs = g.bracket(graph.z, 1.0 * xg + 2.0 * yg)
    rhs = g.bracket(xg, yg)
    proj = so5_u2.m.basis.T @ g.inner_product
    # (lam - mu) [Z, cx X + cy Y] reproduces [X, Y] modulo h
    np.testing.assert_allclose(proj @ (-lhs), proj @ rhs, atol=1e-8)


def test_zxzy_split_rebuilds_the_graph_witness(so5_u2):
    for trial in range(10):
        rng = rng_for("test-zxzy", so5_u2.name, 0, trial)
        x = module_vector(so5_u2, 0, rng)
        y = module_vector(so5_u2, 1, rng)
        dec = go.zxzy_decompose(so5_u2, x, y)
        assert dec.residual <= 1e-8
        g = so5_u2.g
        xg = so5_u2.m.basis @ x
        yg = so5_u2.m.basis @ y
        # the split parts centralize their factors
        assert np.abs(g.bracket(dec.z_x, xg)).max() < 1e-8
        assert np.abs(g.bracket(dec.z_y, yg)).max() < 1e-8
        for lam, mu in ((1.0, 2.0), (2.0, 1.0), (1.0, 5.0), (3.0, 7.0)):
            graph = go.geodesic_graph(so5_u2, lam, mu, x, y)
            rebuilt = dec.reconstruct(lam, mu)
            np.testing.assert_allclose(graph.z, rebuilt, atol=1e-8)


def test_geodesic_graph_rejects_equal_weights(so5_u2):
    rng = rng_for("test-graph", so5_u2.name, 1, 0)
    x = module_vector(so5_u2, 0, rng)
    y = module_vector(so5_u2, 1, rng)
    with pytest.raises(core.ValidationError):
        go.geodesic_graph(so5_u2, 2.0, 2.0, x, y)


def test_module_vector_validation(so5_u2):
    rng = rng_for("test-graph", so5_u2.name, 2, 0)
    x = module_vector(so5_u2, 0, rng)
    mixed = rng.normal(size=so5_u2.m.dim)
    with pytest.raises(core.ValidationError):
        go.geodesic_graph(so5_u2, 1.0, 2.0, mixed, x)


def test_exact_mode_certificates(so5_u2, so9_tensor):
    good = go.go_check(so5_u2, (1, 2), n_samples=5, exact_mode=True)
    assert good.status == "GO_CONSISTENT"
    assert good.exact
    assert good.max_residual == 0.0
    bad = go.go_check(so9_tensor, (1, 2), n_samples=3, exact_mode=True)
    assert bad.status == "NOT_GO"
    assert bad.counterexample.margin == np.inf


@pytest.mark.parametrize("entry_id", ["go-1", "struct-1", "t1-V.10",
                                      "t1-V.6-n2", "struct-5"])
def test_exact_lane_is_unavailable(entry_id):
    # isotypic pairs (go-1, struct-1, and struct-5's two trivial lines)
    # and embeddings without rational entries (t1-V.10, t1-V.6-n2) have
    # no exact lane, and each is refused for its own reason
    reason = {"t1-V.10": "h embedding lacks exact coordinates",
              "t1-V.6-n2": "h embedding lacks exact coordinates"}.get(
        entry_id, "isotypic modules have no canonical split")
    space = catalog.catalog_instantiate(entry_id, seed=0)
    with pytest.raises(ExactUnavailableError, match=reason):
        go.go_check(space, (1, 2), n_samples=1, exact_mode=True)


@pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
@pytest.mark.parametrize("entry_id", ["go-3-k2", "go-3-k3", "go-6-m2n1",
                                      "go-8-n1", "struct-2", "struct-3",
                                      "struct-4", "struct-6", "struct-7"])
def test_exact_lane_agrees_with_the_float_lane(entry_id, pair):
    space = catalog.catalog_instantiate(entry_id, seed=0)
    verdict = go.go_check(space, pair, n_samples=3, exact_mode=True)
    assert verdict.exact
    assert verdict.status == go.go_check(space, pair).status


def test_exact_mode_requires_rational_parameters(so5_u2):
    with pytest.raises(core.OrbitcheckError):
        go.go_check(so5_u2, (1.0, np.pi), n_samples=2, exact_mode=True)


def test_go_check_requires_decomposed_space(so5_u2):
    from orbitcheck import spaces, zoo
    bare = spaces.reductive_space(None, zoo.named_embedding("u_in_so_odd", k=2))
    with pytest.raises(core.ValidationError):
        go.go_check(bare, (1.0, 2.0), n_samples=2)


def test_verdict_as_dict_shape(su3_su2):
    verdict = go.go_check(su3_su2, (1.0, 2.0), n_samples=10)
    data = verdict.as_dict()
    assert data["status"] == "GO_CONSISTENT"
    assert data["go_consistent"] is True
    assert data["metric"] == {"kind": "two_param", "lambda": 1.0, "mu": 2.0}
    assert data["counterexample"] is None


@pytest.mark.parametrize("entry_id", ["go-4-r2", "go-5", "t1-V.1-m3n3",
                                      "t1-V.10", "t1-V.6-n2"])
def test_float_status_is_invariant_under_homothety(entry_id):
    # GO is invariant under scaling the metric; the commutator check
    # once compared an absolute residual and refused (1e8, 2e8), and
    # absolute tolerances once turned the NOT_GO entries at (1e-8, 2e-8)
    # into GO_CONSISTENT or ToleranceError
    space = catalog.catalog_instantiate(entry_id, seed=0)
    want = go.go_check(space, (1.0, 2.0), n_samples=20).status
    for exponent in range(-8, 9, 2):
        scale = 10.0 ** exponent
        verdict = go.go_check(space, (scale, 2 * scale), n_samples=20)
        assert verdict.status == want, scale


@pytest.mark.parametrize("entry_id", ["go-3-k2", "go-2", "go-7-n2"])
def test_float_lane_refuses_weights_unit_scale_cannot_resolve(entry_id):
    # at unit scale the lighter module's weight is min/max; past
    # 1 / (MARGIN_FACTOR tol) its rank gaps fall below the band, and these
    # GO entries once came out NOT_GO (1e12..1e17) or raised a margin
    # ToleranceError (1e7..1e11). Now the ratio is refused by name, at
    # any tol, while the exact lane, which has no band, still decides
    space = catalog.catalog_instantiate(entry_id, seed=0)
    for ratio in (1.01e6, 1e7, 1e12, 1e17):
        for pair in ((ratio, 1.0), (1.0, ratio), (3 * ratio, 3.0)):
            with pytest.raises(go.ToleranceError, match="weight ratio"):
                go.go_check(space, pair, n_samples=5)
    # the bound is max(MARGIN_FACTOR, 1 / (MARGIN_FACTOR tol)): 1e3 at
    # tol 1e-6 and at the loose 1e-2
    for tol in (1e-6, 1e-2):
        with pytest.raises(go.ToleranceError, match="weight ratio"):
            go.go_check(space, (1.01e3, 1.0), n_samples=5, tol=tol)
        assert go.go_check(space, (1e3, 1.0), n_samples=5,
                           tol=tol).status == "GO_CONSISTENT"
    for pair in ((1e6, 1.0), (1e3, 1e-3), (1e-3, 1e3)):
        assert go.go_check(space, pair, n_samples=5).status == "GO_CONSISTENT"
    for ratio in (10 ** 12, 10 ** 17):
        assert go.go_check(space, (Fraction(ratio), 1), n_samples=3,
                           exact_mode=True).status == "GO_CONSISTENT"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 0.0, -1.0])
def test_two_param_refuses_weights_that_are_not_positive_and_finite(so5_u2,
                                                                    bad):
    # NaN once passed to LAPACK, and inf gave go_consistent with a NaN
    # max_residual
    for pair in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(core.ValidationError, match="positive and finite"):
            go.MetricOperator.two_param(so5_u2, *pair)
        with pytest.raises(core.ValidationError, match="positive and finite"):
            go.go_check(so5_u2, pair, n_samples=2)


@pytest.mark.parametrize("block", [[[1.0, np.nan], [np.nan, 2.0]],
                                   [[np.inf, 0.2], [0.2, 2.0]]])
def test_a_non_finite_metric_is_refused_before_its_eigenvalues(so8_g2, block):
    # NaN passed the symmetry check and LAPACK's eigvalsh did not converge
    with pytest.raises(core.ValidationError, match="not finite"):
        go.MetricOperator.block(so8_g2, [block])
    space = catalog.catalog_instantiate("go-2", seed=0)
    dm = space.m.dim
    with pytest.raises(core.ValidationError,
                       match=r"metric operator entry \(0, 0\) is nan"):
        go.MetricOperator(space=space, matrix=np.full((dm, dm), np.nan),
                          kind="raw", params=())


def test_commutator_check_is_relative_to_the_metric_scale(so5_u2):
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 6))
    raw = raw @ raw.T + 6 * np.eye(6)
    for scale in (1e-8, 1.0, 1e8):
        with pytest.raises(core.ValidationError):
            go.MetricOperator(space=so5_u2, matrix=scale * raw, kind="raw",
                              params=())


def test_exact_lane_at_equal_weights_is_normal_trivial(so5_u2):
    verdict = go.go_check(so5_u2, (2, 2), n_samples=4, exact_mode=True)
    assert verdict.status == "NORMAL_TRIVIAL"
    assert verdict.exact
    assert all(w.kind == "exact" and not w.z.any() for w in verdict.witnesses)


@pytest.mark.parametrize("space_name, pair, exact_mode, status", [
    ("so5_u2", (1, 2), False, "GO_CONSISTENT"),
    ("so5_u2", (2, 2), False, "NORMAL_TRIVIAL"),
    ("so5_u2", (1, 2), True, "GO_CONSISTENT"),
    ("so9_tensor", (1, 2), False, "NOT_GO"),
    ("so9_tensor", (1, 2), True, "NOT_GO"),
])
def test_every_lane_reports_its_samples_alike(request, space_name, pair,
                                              exact_mode, status):
    # the float, scalar and exact lanes share one sampling loop
    space = request.getfixturevalue(space_name)
    verdict = go.go_check(space, pair, n_samples=6, exact_mode=exact_mode)
    assert verdict.status == status
    assert verdict.n_samples == len(verdict.witnesses)
    solvable = [w for w in verdict.witnesses if w.solvable]
    if status == "NOT_GO":
        assert verdict.counterexample is verdict.witnesses[-1]
        assert len(solvable) == len(verdict.witnesses) - 1
    else:
        assert verdict.counterexample is None
        assert verdict.n_samples == 6
    assert verdict.max_residual == max((w.residual for w in solvable),
                                       default=0.0)


@pytest.mark.parametrize("entry_id", ["t1-V.10", "t1-V.1-m3n3", "t1-V.6-n2"])
def test_pinned_solves_refuse_non_go_entries_at_every_scale(entry_id):
    # the pinned solves once compared an absolute residual, so scaling X
    # and Y down by 1e-4 turned a refusal into a "witness"
    space = catalog.catalog_instantiate(entry_id, seed=0)
    rng = rng_for("test-pinned", entry_id, 0)
    x = module_vector(space, 0, rng)
    y = module_vector(space, 1, rng)
    for exponent in range(-6, 5):
        scale = 10.0 ** exponent
        with pytest.raises(go.GoError):
            go.geodesic_graph(space, 1.0, 2.0, scale * x, scale * y)
        with pytest.raises(go.GoError):
            go.zxzy_decompose(space, scale * x, scale * y)


def test_pinned_solves_scale_with_the_input(so5_u2):
    # z(sX, sY) = s z(X, Y), to 1e-10 relative to the size of z
    rng = rng_for("test-pinned", so5_u2.name, 0)
    x = module_vector(so5_u2, 0, rng)
    y = module_vector(so5_u2, 1, rng)

    def witnesses(s):
        dec = go.zxzy_decompose(so5_u2, s * x, s * y)
        graph = go.geodesic_graph(so5_u2, 1.0, 2.0, s * x, s * y)
        return np.concatenate([graph.z, dec.z_x, dec.z_y])

    unit = witnesses(1.0)
    assert np.abs(unit).max() > 0.1
    for scale in (1e-6, 3e-4, 0.7, 5.0, 1e4):
        got = witnesses(scale) / scale
        assert np.abs(got - unit).max() <= 1e-10 * np.abs(unit).max(), scale


def test_pair_solvers_scale_each_module_part_apart(so8_g2):
    # Z_X scales with X and Z_Y with Y, also at very unequal norms; go-1's
    # bracket is mixed, so neither part is zero
    rng = rng_for("test-pinned", so8_g2.name, 1)
    x = module_vector(so8_g2, 0, rng)
    y = module_vector(so8_g2, 1, rng)
    unit = go.zxzy_decompose(so8_g2, x, y)
    for a, b in ((1e-5, 1.0), (1.0, 1e-5), (3e-3, 7e2)):
        dec = go.zxzy_decompose(so8_g2, a * x, b * y)
        graph = go.geodesic_graph(so8_g2, 1.0, 2.0, a * x, b * y)
        for got, want in ((dec.z_x, a * unit.z_x), (dec.z_y, b * unit.z_y),
                          (graph.z, -(a * unit.z_x / 2.0 + b * unit.z_y))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- the factored float lane against per-sample solves ------------------

TWO_SUMMAND = [e.id for e in catalog.catalog_list(constructible=True)
               if len(e.expected.get("module_dims") or ()) == 2]
NON_NORMAL_PAIRS = [(1, 2), (2, 1), (0.2, 5), (5, 0.2), (1, 1.001)]


@pytest.mark.parametrize("entry_id", [
    e.id for e in catalog.catalog_list(constructible=True)
    if e.id in TWO_SUMMAND and e.expected.get("go")])
def test_pair_solvers_read_the_go_witness_off_inside_c_tilde(entry_id):
    # the graph witness at X = P1 x, Y = P2 x is go_check's witness at x,
    # and every min-norm part lies in the normalizer complement C~
    space = catalog.catalog_instantiate(entry_id, seed=0)
    p1, p2 = space.module_projectors
    gram = space.g.inner_product
    for pair in ((1, 2), (2.5, 0.5)):
        for seed in (0, 1):
            verdict = go.go_check(space, pair, n_samples=8, seed=seed)
            for w in verdict.witnesses:
                graph = go.geodesic_graph(space, *pair, p1 @ w.x, p2 @ w.x)
                z = space.h.basis @ w.z
                assert np.abs(graph.z - z).max() <= \
                    1e-12 * max(1.0, np.abs(z).max())
                dec = go.zxzy_decompose(space, p1 @ w.x, p2 @ w.x)
                c_tilde = dec.split.c_tilde
                for v in (graph.z, dec.z_x, dec.z_y):
                    off = v - c_tilde @ (c_tilde.T @ gram @ v)
                    assert np.abs(off).max() <= 1e-10


@pytest.mark.parametrize("entry_id", TWO_SUMMAND)
def test_swapping_the_modules_with_the_weights_keeps_the_verdict(entry_id):
    # lam P1 + mu P2 is mu P1' + lam P2' on the space whose modules are
    # m1' = m2 and m2' = m1: at (mu, lam) it gives the status it gives at
    # (lam, mu), on its own draws, and a negative the same rank gap
    space = catalog.catalog_instantiate(entry_id, seed=0)
    swapped = _with_modules(space, [space.module_coords_in_m(1),
                                    space.module_coords_in_m(0)])
    assert swapped.module_dims == space.module_dims[::-1]
    for seed in range(3):
        for lam, mu in ((1, 2), (0.2, 5)):
            want = go.go_check(space, (lam, mu), seed=seed)
            got = go.go_check(swapped, (mu, lam), seed=seed)
            assert got.status == want.status, (seed, lam, mu)
            if want.status == "NOT_GO":
                assert got.counterexample.rank_gap == \
                    want.counterexample.rank_gap


def _sample_coordinates(space, seed, i):
    """Sample i's coordinates, one word at a time in Python ints: the
    words [i dm, (i + 1) dm) of rng_for("go", name, seed), dm = dim m,
    each word w read as 2 (w >> 11) 2^-53 - 1, which a float holds
    exactly."""
    dm = space.m.dim
    bits = rng_for("go", space.name, seed).bit_generator
    bits.advance(i * dm)
    words = [int(w) for w in bits.random_raw(dm)]
    return np.array([(2 * (w >> 11) - 2 ** 53) / 2 ** 53 for w in words])


def _sample_direction(blocks, u, structured):
    # sample i's direction from its own coordinates u
    if structured and len(blocks) == 2:
        b1, b2 = blocks
        x1 = b1 @ u[:b1.shape[1]]
        x2 = b2 @ u[b1.shape[1]:]
        n1 = np.sqrt(x1 @ x1)
        n2 = np.sqrt(x2 @ x2)
        if n1 < 1e-12 or n2 < 1e-12:
            return _sample_direction(blocks, u, False)
        return (x1 / n1 + x2 / n2) / np.sqrt(2.0), "structured"
    return u / np.sqrt(u @ u), "generic"


def _blocks(space):
    return [space.module_coords_in_m(i) for i in range(len(space.modules))]


def _sampled_rows(space, seed, n_samples, blocks=None):
    blocks = blocks or _blocks(space)
    drawn = [_sample_direction(blocks, _sample_coordinates(space, seed, i),
                               i % 2 == 1) for i in range(n_samples)]
    return np.array([x for x, _ in drawn]), [kind for _, kind in drawn]


def _oracle(space, metric, n_samples, seed, tol=go.DEFAULT_TOL):
    """go_check's float run one sample at a time: the zero witness of a
    scalar metric (a (lam, mu) pair or an operator), with residual
    |-A x @ (x @ m_bracket_m)|, else go_witness_general's."""
    metric = go._as_metric(space, metric)
    dm = space.m.dim
    brackets = space.m_bracket_m.reshape(dm, dm * dm)
    blocks = _blocks(space)
    witnesses = []
    for i in range(n_samples):
        x, kind = _sample_direction(
            blocks, _sample_coordinates(space, seed, i), i % 2 == 1)
        if metric.is_scalar:
            rhs = -metric.apply(x) @ (x @ brackets).reshape(dm, dm)
            witnesses.append(go.GoWitness(
                x=x, z=np.zeros(space.h.dim),
                residual=float(np.linalg.norm(rhs)), rank_gap=0, margin=0.0,
                kind=kind))
        else:
            witnesses.append(go.go_witness_general(space, metric, x, tol,
                                                   kind))
        if not witnesses[-1].solvable:
            break
    return witnesses


def _assert_same_verdict(verdict, witnesses):
    assert len(verdict.witnesses) == len(witnesses)
    if witnesses[-1].solvable:
        assert verdict.status == "GO_CONSISTENT"
    else:
        assert verdict.status == "NOT_GO"
        assert json.dumps(verdict.counterexample.as_dict()) == \
            json.dumps(witnesses[-1].as_dict())
    for got, want in zip(verdict.witnesses, witnesses):
        np.testing.assert_array_equal(got.x, want.x)
        assert got.kind == want.kind
        if want.solvable:
            size = max(1.0, float(np.linalg.norm(want.z)))
            assert np.abs(got.z - want.z).max(initial=0.0) <= 1e-10 * size
            assert abs(got.residual - want.residual) <= \
                1e-10 * max(1.0, want.residual)


@pytest.mark.parametrize("entry_id", TWO_SUMMAND)
def test_factored_lane_matches_per_sample_solves(entry_id, monkeypatch):
    # statuses and counterexamples are go_witness_general's exactly; GO
    # witnesses agree within 1e-10 relative to max(1, |z|)
    space = catalog.catalog_instantiate(entry_id, seed=0)
    assert space.two_summand
    solve = go.go_witness_general
    fallbacks = []

    def counted(*args):
        fallbacks.append(args)
        return solve(*args)
    for seed in range(3):
        for pair in NON_NORMAL_PAIRS:
            fallbacks.clear()
            held = space.go_factorisations.get(go._Factorisation)
            probed = held is None or held.seed != seed or not held.held
            monkeypatch.setattr(go, "go_witness_general", counted)
            verdict = go.go_check(space, pair, n_samples=40, seed=seed)
            monkeypatch.undo()
            # the factorisation certifies every solvable sample itself;
            # a call that holds no factorised sample at its seed first
            # solves sample 0 (the probe), and only a counterexample
            # past it is solved again
            past_probe = verdict.n_samples > 1 or not probed
            assert len(fallbacks) == probed + (
                verdict.status == "NOT_GO" and past_probe)
            _assert_same_verdict(verdict,
                                 _oracle(space, pair, 40, seed))


@pytest.mark.parametrize("entry_id", TWO_SUMMAND)
def test_float_verdicts_do_not_depend_on_the_seed(entry_id):
    # the seed moves the decomposition and every sample, not the verdict:
    # at each DEFAULT_PAIRS pair the status, and on NOT_GO the
    # counterexample's rank gap, are the same at seeds 0..3
    verdicts = set()
    for seed in range(4):
        space = catalog.catalog_instantiate(entry_id, seed=seed)
        runs = [go.go_check(space, pair, seed=seed)
                for pair in catalog.DEFAULT_PAIRS]
        verdicts.add(tuple((v.status, v.counterexample and
                            v.counterexample.rank_gap) for v in runs))
    assert len(verdicts) == 1


def _space(space_id):
    """A catalog entry at seed 0, or so(n)/so(k) from ``so_in_so``."""
    if not space_id.startswith("so("):
        return catalog.catalog_instantiate(space_id, seed=0)
    n, k = (int(c) for c in space_id if c.isdigit())
    return spaces.decompose_isotropy(spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=k, n=n), name=space_id))


def _metric(space, kind):
    """A scalar, diagonal, cross-coupled or pullback metric operator; a
    diagonal one weighs module k by 1 + 2k (diag(1, 3) on two modules)."""
    groups = space.isotypic_groups
    if kind == "scalar":
        return go.MetricOperator.block(space,
                                       [2.0 * np.eye(len(g)) for g in groups])
    if kind == "pullback":
        return natred.ledger_obata_metric_operator(
            space, natred.LedgerObataMetric.from_values(2, 1, 3))
    cross = 0.2 if kind == "cross" else 0.0
    return go.MetricOperator.block(space, [
        np.diag([1.0 + 2 * k for k in g]) + cross * (1 - np.eye(len(g)))
        for g in groups])


def _assert_identical(verdict, witnesses):
    """The verdict is the one-sample-at-a-time run, to the last bit."""
    assert [json.dumps(w.as_dict()) for w in verdict.witnesses] == \
        [json.dumps(w.as_dict()) for w in witnesses]
    if witnesses[-1].solvable:
        assert verdict.counterexample is None
    else:
        assert verdict.status == "NOT_GO"
        assert verdict.counterexample is verdict.witnesses[-1]
    assert verdict.n_samples == len(witnesses)
    assert verdict.max_residual == max(
        (w.residual for w in witnesses if w.solvable), default=0.0)


@pytest.mark.parametrize("space_id, kind, status", [
    ("go-3-k2", (2, 2), "NORMAL_TRIVIAL"),
    ("t1-V.10", (2, 2), "NORMAL_TRIVIAL"),
    ("so(4)/so(3)", "scalar", "NORMAL_TRIVIAL"),
    ("so(5)/so(3)", "scalar", "NORMAL_TRIVIAL"),
    ("go-1", "diag", "GO_CONSISTENT"),
    ("go-1", "cross", "GO_CONSISTENT"),
    ("struct-1", "diag", "GO_CONSISTENT"),
    ("struct-1", "cross", "GO_CONSISTENT"),
    ("struct-1", "pullback", "GO_CONSISTENT"),
    ("t1-V.10", "diag", "NOT_GO"),
    ("so(5)/so(3)", "diag", "NOT_GO"),
    ("so(5)/so(3)", "cross", "NOT_GO"),
])
def test_unfactorised_metrics_match_per_sample_runs_bit_for_bit(
        space_id, kind, status):
    # scalar, block and pullback metrics on one, two and three modules
    # draw their chunked samples and solve them as a run of one
    # go_witness_general (or zero witness) per sample does, also after
    # longer and shorter calls on the same space
    space = _space(space_id)
    assert len(space.modules) == {"so(4)/so(3)": 1,
                                  "so(5)/so(3)": 3}.get(space_id, 2)
    metric = kind if isinstance(kind, tuple) else _metric(space, kind)
    for seed in range(3):
        for n_samples in (1, 7, 30, 7):
            verdict = go.go_check(space, metric, n_samples=n_samples,
                                  seed=seed)
            assert verdict.status == status
            _assert_identical(verdict,
                              _oracle(space, metric, n_samples, seed))
    assert space.go_factorisations[go._Draws].seed == 2
    assert list(space.go_factorisations) == [go._Draws]


def _filled(space, seed, chunks, blocks=None):
    fac = go._Factorisation(space, seed)
    if blocks is not None:
        fac.blocks = blocks
    n = 0
    for size in chunks:
        fac.fill(space, range(n, n + size))
        n += size
    return fac


def _held(space, fac):
    """A factorisation's rows, its held arrays (the parts Y, the rows of
    D(t) and |b|), and its read-offs and witness z of every held sample
    under three pairs."""
    metrics = [go.MetricOperator.two_param(space, *pair)
               for pair in ((1, 2), (2.5, 0.5), (0.2, 5))]
    reads = [fac.read_off(a, go.DEFAULT_TOL, slice(0, fac.held))
             for a in metrics]
    zs = [np.array(fac.z_at(a, list(range(fac.held)))) for a in metrics]
    return [np.array(fac.rows), fac.z, fac.d, fac.b_norm,
            *(array for read in reads for array in read), *zs]


@pytest.mark.parametrize("entry_id", ["go-3-k2", "go-4-r2", "t1-V.10", "go-2"])
def test_a_chunked_fill_equals_a_one_shot_fill(entry_id, monkeypatch):
    # chunks of any size, and a chunk that starts mid-run, hold the rows
    # of per-sample draws and the same Y, D(t), |b| and read-offs as a
    # one-shot fill, bit for bit
    space = catalog.catalog_instantiate(entry_id, seed=0)
    rows, kinds = _sampled_rows(space, 3, 60)
    want = None
    for chunks in ([40], [1, 1, 2, 4, 8, 16, 8], [1, 2, 1, 36],
                   [3, 1, 1, 35], [1, 39]):
        fac = _filled(space, 3, chunks)
        held = _held(space, fac)
        assert fac.kinds == kinds[:40]
        np.testing.assert_array_equal(held[0], rows[:40])
        want = want or held
        for got, one_shot in zip(held, want):
            assert got.shape == one_shot.shape
            assert got.tobytes() == one_shot.tobytes()
    # each chunk reads its words off the factorisation's one rng_for
    # stream, seeded once and advanced from its seeded state to the
    # chunk's first sample: no state is left over for a later chunk, which
    # may come from a later call
    labels = []

    def spy(*label):
        labels.append(label)
        return rng_for(*label)
    monkeypatch.setattr(go, "rng_for", spy)
    fac = go._Factorisation(space, 3)
    chunks = ((0, 1), (1, 2), (2, 4), (4, 5), (5, 12), (12, 40))
    for start, stop in chunks:
        fac.fill(space, range(start, stop))
    assert labels == [("go", space.name, 3)]
    assert fac.kinds == kinds[:40]
    np.testing.assert_array_equal(np.array(fac.rows), rows[:40])
    mid = go._Factorisation(space, 3)
    mid.fill(space, range(57, 60))
    assert mid.kinds == kinds[57:]
    np.testing.assert_array_equal(np.array(mid.rows), rows[57:])
    one_shot = _filled(space, 3, [60])
    assert mid.z.tobytes() == one_shot.z[57:].tobytes()
    assert mid.d.tobytes() == one_shot.d[57:].tobytes()
    assert mid.b_norm.tobytes() == one_shot.b_norm[57:].tobytes()


def test_draw_coordinates_are_pinned_to_the_bit():
    # the addressed stream and its word-to-coordinate map, pinned at
    # samples 0, 1 and 57 of one label: they must not move with the
    # machine, the numpy version or the chunk a sample is drawn in
    label, dm = ("go", "golden", 0), 4
    want = {
        0: ["0x1.36c4d1d2ad93cp-2", "0x1.1b2068816cf4ep-1",
            "0x1.562969394db38p-2", "0x1.1d73fb8ee99d4p-1"],
        1: ["0x1.38a822992b188p-1", "-0x1.0f00c815c6ca8p-1",
            "-0x1.e06128112b7aep-1", "-0x1.090dce12c39e4p-2"],
        57: ["-0x1.03686fcd66954p-2", "-0x1.1a98a3488bac0p-6",
             "0x1.64190f4f251cap-1", "-0x1.1d1df1bdadde0p-4"],
    }
    for chunk in (range(0, 60), range(0, 2), range(57, 58)):
        u = go._coordinates(go._Stream(label), chunk, dm)
        for j in set(want) & set(chunk):
            assert [c.hex() for c in u[j - chunk.start]] == want[j]


def test_a_zero_norm_module_draw_falls_back_to_a_generic_draw():
    # a zeroed block makes every structured draw's module part zero: each
    # such sample becomes a generic row of its own coordinates, as the
    # per-sample draw does
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    blocks = _blocks(space)
    blocks[1] = np.zeros_like(blocks[1])
    rows, kinds = _sampled_rows(space, 2, 20, blocks)
    assert set(kinds) == {"generic"}
    for chunks in ([20], [1, 1, 2, 4, 8, 4]):
        fac = _filled(space, 2, chunks, blocks)
        assert fac.kinds == kinds
        np.testing.assert_array_equal(np.array(fac.rows), rows)


def test_threads_filling_different_spaces_reproduce_the_serial_rows():
    ids = ["go-3-k2", "go-4-r2", "go-5", "t1-V.10"]
    spaces_ = [catalog.catalog_instantiate(e, seed=0) for e in ids]
    chunks = [1, 1, 2, 4, 8, 16, 32, 36]
    serial = [_filled(space, 5, chunks).rows for space in spaces_]
    results, errors = [None] * len(ids), []

    def work(k):
        try:
            for _ in range(5):
                results[k] = _filled(spaces_[k], 5, chunks).rows
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(ids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for got, want in zip(results, serial):
        np.testing.assert_array_equal(np.array(got), np.array(want))


def _dumps(verdict):
    """The verdict and every witness as JSON, floats to the last bit."""
    return [json.dumps(verdict.as_dict())] + [
        json.dumps(w.as_dict()) for w in verdict.witnesses]


@pytest.mark.parametrize("entry_id", ["go-3-k2", "t1-V.10", "t1-V.1-m3n3"])
def test_factorisation_cache_is_bounded_and_invisible(entry_id):
    # interleaved lanes, seeds, sample counts, tolerances and metrics on
    # one space give the verdicts and witnesses of a fresh space, and the
    # space keeps one seed per lane, with no more samples than the longest
    # call since it came in (t1-V.10 has no exact lane)
    space = catalog.catalog_instantiate(entry_id, seed=0)
    lanes = {go._Factorisation: [(1, 3), (4, 0.5)],
             go._Draws: [(2, 2), "diag"]}
    if entry_id in EXACT_CAPABLE:
        lanes[go._ExactFactorisation] = [(1, 3), (4, 0.5), (2, 2)]
    calls = [(0, 3, 1e-9), (0, 40, 1e-9), (1, 10, 1e-6), (0, 20, 1e-12),
             (1, 60, 1e-9), (1, 5, 1e-9), (2, 1, 1e-9), (0, 40, 1e-9)]
    longest = {}
    for seed, n_samples, tol in calls:
        for lane, metrics in lanes.items():
            exact_mode = lane is go._ExactFactorisation
            held = space.go_factorisations.get(lane)
            if held is None or held.seed != seed:
                longest[lane] = 0
            longest[lane] = max(longest[lane], n_samples)
            for metric in metrics:
                fresh = catalog.catalog_instantiate(entry_id, seed=0)
                on = [(sp, _metric(sp, metric) if metric == "diag"
                       else metric) for sp in (space, fresh)]
                got, want = (go.go_check(sp, m, n_samples=n_samples,
                                         seed=seed, tol=tol,
                                         exact_mode=exact_mode)
                             for sp, m in on)
                if lane is go._Draws:
                    _assert_identical(got, _oracle(*on[1], n_samples, seed,
                                                   tol))
                if lane is go._Factorisation:
                    _assert_same_verdict(got, _oracle(fresh, metric,
                                                      n_samples, seed, tol))
                assert _dumps(got) == _dumps(want)
            assert space.go_factorisations[lane].seed == seed
            assert len(space.go_factorisations[lane].kinds) <= longest[lane]
        assert list(space.go_factorisations) == list(lanes)


@pytest.mark.parametrize("entry_id", ["go-3-k2", "go-4-r2", "go-5"])
def test_a_float_verdict_does_not_depend_on_an_earlier_call(entry_id):
    # after a 3-sample call, a 40-sample call at the same seed reads
    # samples 1 and 2 off the earlier call's chunk and factorises the rest
    # alone; a fresh space factorises samples 1..39 in one chunk. Both
    # give the same verdict and witnesses, to the last bit
    space, fresh = (catalog.catalog_instantiate(entry_id, seed=0)
                    for _ in range(2))
    go.go_check(space, (1, 2), n_samples=3, seed=7)
    assert _dumps(go.go_check(space, (1, 2), n_samples=40, seed=7)) == \
        _dumps(go.go_check(fresh, (1, 2), n_samples=40, seed=7))


def test_a_run_factorises_its_samples_in_one_chunk(monkeypatch):
    # sample 0 is probed first and factorised with the rest of the call,
    # at once; a longer call at the same seed factorises only the samples
    # it adds, in one chunk
    space = catalog.catalog_instantiate("go-4-r2", seed=0)
    sizes = []
    factorise = go._factorise

    def counted(space, x):
        sizes.append(len(x))
        return factorise(space, x)
    monkeypatch.setattr(go, "_factorise", counted)
    assert go.go_check(space, (1, 2), n_samples=100, seed=0).n_samples == 100
    assert sizes == [100]
    go.go_check(space, (2.5, 0.5), n_samples=100, seed=0)
    go.go_check(space, (1, 2), n_samples=150, seed=0)
    assert sizes == [100, 50]


# --- the factorisation's QR path, its refusals and the pair solvers ------

# two-summand entries whose sampled M lose column rank, and the wide ones
# (dim m < dim h): h has a nonzero generic stabilizer on m, and every
# sample is solved by QR on the split's stabilizer frame
RANK_LOSING = {"go-1", "go-6-m3n2", "go-7-n2", "struct-3"}
STABILIZER = RANK_LOSING | {"go-4-r2", "go-5"}
LADDER = [f"so({2 * k + 1})/u({k})" for k in range(2, 6)]


def _ladder_space(space_id):
    k = int(space_id.split("u(")[1][:-1])
    chain = zoo.named_embedding("u_in_so_odd", k=k)
    return spaces.decompose_isotropy(
        spaces.reductive_space(None, chain, name=space_id), seed=0)


def _reference_solve(space, x):
    """Per row, M (columns proj_m [h_a, x]), the min-norm M+ parts of an
    SVD cut at rank_threshold and b = proj_m [x1, x], from brackets in g;
    the parts solve M y = [P1 b, P2 b]."""
    g, gram = space.g, space.g.inner_product
    hb, mb = space.h.basis, space.m.basis
    p1, p2 = space.module_projectors
    ms, zs, bs = [], [], []
    for row in x:
        xg = mb @ row
        m = np.array([mb.T @ gram @ g.bracket(h, xg) for h in hb.T]).reshape(
            hb.shape[1], len(row)).T
        b = mb.T @ gram @ g.bracket(mb @ (p1 @ row), xg)
        parts = np.stack([p1 @ b, p2 @ b], axis=1)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        top = s[0] if len(s) else 0.0
        keep = s > max(max(m.shape) * np.finfo(float).eps * top, 1e-12)
        zs.append(vt[keep].T @ ((u[:, keep].T @ parts) / s[keep, None]))
        ms.append(m)
        bs.append(b)
    return ms, zs, bs


def _qr_refused(space, x):
    """Rows of x whose reference M, on the first columns S of the split's
    stabilizer frame, the QR certificate refuses."""
    dm, dh = space.m.dim, space.h.dim
    frame, rank = space.split.stabilizer_frame
    m = np.stack(_reference_solve(space, x)[0])
    return go._qr_solve(
        np.concatenate([m @ frame[:, :rank], np.zeros((len(x), dm, 2))],
                       axis=2),
        np.linalg.norm(m, axis=(1, 2)), np.empty((len(x), dh, 2))).tolist()


def _min_norm_parts(space, x, z):
    """``_factorise``'s parts made min-norm, on a frame with a kernel
    part; on any other they are min-norm already."""
    if space.split.stabilizer_frame[1] == space.h.dim:
        return z
    return np.array([go._min_norm(space.split, row[None], zr[None])[0]
                     for row, zr in zip(x, z)])


def _reference_quadratic(space, m, y, b):
    """D0 = P1 M Y2, D1 = P1 M Y1 + P2 M Y2 - b and D2 = P2 M Y1 of the
    reference parts y = (Y1, Y2) of one row."""
    p1, p2 = space.module_projectors
    my = m @ y
    return np.stack([p1 @ my[:, 1], p1 @ my[:, 0] + p2 @ my[:, 1] - b,
                     p2 @ my[:, 0]])


def _assert_matches_reference(space, x, b_norm, z, d):
    """Each row's |b|, min-norm parts and D rows are the reference's,
    within 1e-12 of its size."""
    z = _min_norm_parts(space, x, z)
    for row, m, want, want_b, got_b, got, got_d in zip(
            x, *_reference_solve(space, x), b_norm, z, d):
        assert abs(got_b - np.linalg.norm(want_b)) <= \
            1e-12 * max(1.0, np.linalg.norm(want_b))
        assert np.linalg.norm(got - want) <= \
            1e-12 * max(1.0, np.linalg.norm(want))
        want_d = _reference_quadratic(space, m, want, want_b)
        assert np.linalg.norm(got_d - want_d) <= \
            1e-12 * max(1.0, np.linalg.norm(want_d))


@pytest.mark.parametrize("space_id", TWO_SUMMAND + LADDER)
def test_factorisation_matches_a_pseudo_inverse_reference(space_id):
    # the stabilizer frame is orthogonal, the identity exactly on the
    # full-rank entries, and its rank is the largest rank of any sampled
    # M, below dim m; every sample, full-rank, rank-losing or wide, is
    # certified for QR on it, with the min-norm solution and the D rows
    # of the reference within 1e-12 relative
    space = (_ladder_space if space_id in LADDER else _space)(space_id)
    x, _ = _sampled_rows(space, 0, 30)
    frame, rank = space.split.stabilizer_frame
    dh = space.h.dim
    assert (rank < dh) == (space_id in STABILIZER)
    if rank == dh:
        assert frame.tobytes() == np.eye(dh).tobytes()
    np.testing.assert_allclose(frame.T @ frame, np.eye(dh), atol=1e-13)
    ranks = {linalg.svd_rank(m) for m in _reference_solve(space, x)[0]}
    assert ranks == {rank} and rank < space.m.dim
    assert _qr_refused(space, x) == []
    b_norm, z, d, certified = go._factorise(space, x)
    assert certified.all() and d.shape == (len(x), 3, space.m.dim)
    _assert_matches_reference(space, x, b_norm, z, d)


@pytest.mark.parametrize("entry_id", sorted(STABILIZER) + ["go-2"])
def test_factorisation_tries_qr_first_on_every_space(entry_id, monkeypatch):
    # no space skips the QR certificate: a space with a nonzero generic
    # stabilizer tries QR on its frame, a full-rank one on M itself, one
    # call per chunk
    space = catalog.catalog_instantiate(entry_id, seed=0)
    frame, rank = space.split.stabilizer_frame
    assert (rank < space.h.dim) == (entry_id in STABILIZER)
    calls = []
    qr_solve = go._qr_solve

    def spy(m_parts, *args):
        calls.append(len(m_parts))
        return qr_solve(m_parts, *args)
    monkeypatch.setattr(go, "_qr_solve", spy)
    go.go_check(space, (1, 2), n_samples=20, seed=0)
    assert calls == [20]


@pytest.mark.parametrize("entry_id", sorted(STABILIZER))
def test_factorisation_on_the_stabilizer_frame_runs_no_svd(entry_id,
                                                           monkeypatch):
    # 100 samples of a space with a nonzero generic stabilizer call no
    # np.linalg.svd inside _factorise, and go_witness_general solves none
    # of them again: it solves only sample 0, as the first call's probe
    space = catalog.catalog_instantiate(entry_id, seed=0)
    space.split.stabilizer_frame  # the split's one SVD, not a sample's
    svd, factorise, solve = np.linalg.svd, go._factorise, \
        go.go_witness_general
    inside, svds, solved = [], [], []

    def spied_svd(*args, **kwargs):
        if inside:
            svds.append(args[0].shape)
        return svd(*args, **kwargs)

    def spied_factorise(*args):
        inside.append(args)
        try:
            return factorise(*args)
        finally:
            inside.pop()

    def spied_solve(*args):
        solved.append(args)
        return solve(*args)
    monkeypatch.setattr(np.linalg, "svd", spied_svd)
    monkeypatch.setattr(go, "_factorise", spied_factorise)
    monkeypatch.setattr(go, "go_witness_general", spied_solve)
    for pair in catalog.DEFAULT_PAIRS:
        verdict = go.go_check(space, pair, n_samples=100, seed=0)
        assert verdict.status == "GO_CONSISTENT"
    assert svds == [] and len(solved) == 1
    np.testing.assert_array_equal(solved[0][2], verdict.witnesses[0].x)


def test_factorisation_in_catalog_runs_falls_back_to_no_svd(monkeypatch):
    # over catalog_run at seeds 0..3 every factorised row of every
    # two-summand entry, full-rank, rank-losing or wide, passes the QR
    # certificate: none is refused. A NOT_GO entry whose probe
    # finds its counterexample at sample 0 factorises nothing
    rows, rest = [], []
    qr_solve = go._qr_solve

    def spy(m_parts, *args):
        out = qr_solve(m_parts, *args)
        rows.append(len(m_parts))
        rest.extend(out.tolist())
        return out
    monkeypatch.setattr(go, "_qr_solve", spy)
    for seed in range(4):
        assert catalog.catalog_run(seed=seed).passed
    assert sum(rows) == 4000 and rest == []


@pytest.mark.parametrize("entry_id", sorted(STABILIZER) + ["t1-V.10"])
def test_factorisation_on_a_wrong_frame_rank_keeps_every_status(entry_id,
                                                                monkeypatch):
    # a frame one rank too small misses part of range(M): its samples fail
    # the read-off and go_witness_general solves them again. One rank too
    # large puts a kernel column of M into R11, and every row is refused
    # and solved again by go_witness_general. Either way every status,
    # sample count and NOT_GO rank
    # gap is the one the right frame gives
    def verdicts(space):
        return [go.go_check(space, pair, n_samples=20, seed=seed)
                for pair in catalog.DEFAULT_PAIRS for seed in (0, 1)]

    def gaps(runs):
        return [(v.status, v.n_samples, v.counterexample
                 and v.counterexample.rank_gap) for v in runs]
    want = gaps(verdicts(catalog.catalog_instantiate(entry_id, seed=0)))
    split = catalog.catalog_instantiate(entry_id, seed=0).split
    probes = [_sampled_rows(catalog.catalog_instantiate(entry_id, seed=0),
                            seed, 1)[0][0] for seed in (0, 1)]
    frame, rank = split.stabilizer_frame
    qr_solve, solve = go._qr_solve, go.go_witness_general
    for shift in (-1, 1) if rank < split.h.dim else (-1,):
        refused, solved = [], []

        def spied_qr(m_parts, *args):
            rest = qr_solve(m_parts, *args)
            refused.append((len(m_parts), len(rest)))
            return rest

        def spied_solve(*args):
            solved.append(args)
            return solve(*args)
        monkeypatch.setitem(vars(split), "stabilizer_frame",
                            (frame, rank + shift))
        monkeypatch.setattr(go, "_qr_solve", spied_qr)
        monkeypatch.setattr(go, "go_witness_general", spied_solve)
        assert gaps(verdicts(catalog.catalog_instantiate(entry_id,
                                                         seed=0))) == want
        monkeypatch.undo()
        if shift < 0:
            # struct-3's [m, m] has no m part, so z = 0 solves on any
            # frame, and t1-V.10's probes end every run at sample 0 with
            # nothing factorised: past the probes of sample 0, nothing is
            # solved again there
            again = [args for args in solved
                     if not any(np.array_equal(args[2], x) for x in probes)]
            assert bool(again) == (entry_id not in ("struct-3", "t1-V.10"))
        else:
            assert refused and all(n == out for n, out in refused)
    assert split.stabilizer_frame == (frame, rank)


def _assert_refused_rows_are_solved_again(space, x, kinds, monkeypatch):
    """``_factorise`` refuses rows 3 and 4 of x and certifies the others,
    each the same to the last bit as that row factorised alone, and the
    certified ones are the reference's. Refused rows keep zero parts and
    D rows. A go_check whose draws are x at (1, 2) decides each refused
    row by go_witness_general, with the status of the reference's
    solve; every certified row but the probed sample 0 is read off."""
    stacked = go._factorise(space, x)
    assert stacked[3].tolist() == [True] * 3 + [False] * 2 + [True] * 3
    for i in range(len(x)):
        alone = go._factorise(space, x[i:i + 1])
        for got, want in zip(stacked, alone):
            assert got[i].tobytes() == want[0].tobytes()
    assert not stacked[1][3:5].any() and not stacked[2][3:5].any()
    ok = [0, 1, 2, 5, 6, 7]
    _assert_matches_reference(space, x[ok], *(p[ok] for p in stacked[:3]))
    monkeypatch.setattr(go, "_directions", lambda blocks, label, samples: (
        x[samples].copy(), kinds[samples.start:samples.stop]))
    solve, solved = go.go_witness_general, []
    monkeypatch.setattr(go, "go_witness_general", lambda *args: (
        solved.append(args[2].tobytes()), solve(*args))[1])
    assert not space.go_factorisations
    verdict = go.go_check(space, (1, 2), n_samples=len(x), seed=0)
    monkeypatch.undo()
    assert solved == [x[i].tobytes() for i in (0, 3, 4)]
    ms, ys, bs = _reference_solve(space, x)
    p = space.module_projectors
    for i in (3, 4):
        parts = (p @ bs[i]).T
        consistent = np.linalg.norm(ms[i] @ ys[i] - parts) <= \
            go.DEFAULT_TOL * max(1.0, np.linalg.norm(parts))
        assert verdict.witnesses[i].solvable == consistent
    assert verdict.n_samples == len(x)
    return stacked


def test_a_mixed_stack_factorises_each_row_on_its_own_path(monkeypatch):
    # generic rows, a row inside one module (M loses rank) and a zero row:
    # nothing raises, the two rank-losing rows are refused, every row is
    # the same to the last bit as that row factorised alone, and a run
    # over these draws solves the refused rows again
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    generic, kinds = _sampled_rows(space, 0, 6)
    inside = space.module_coords_in_m(0) @ np.array([0.6, 0.8])
    x = np.vstack([generic[:3], inside, np.zeros(space.m.dim), generic[3:]])
    assert _qr_refused(space, x) == [3, 4]
    _assert_refused_rows_are_solved_again(
        space, x, kinds[:3] + ["generic"] * 2 + kinds[3:], monkeypatch)


def test_factorisation_on_the_frame_refuses_a_row_inside_a_module(
        monkeypatch):
    # on go-7-n2 (generic stabilizer 1), a row inside one module, where M
    # loses more rank than the frame allows, and a zero row are refused;
    # every row is the same to the last bit as that row factorised alone,
    # a run over these draws solves the refused rows again, and a held
    # factorisation projects each certified row once, at its first read
    space = catalog.catalog_instantiate("go-7-n2", seed=0)
    generic, kinds = _sampled_rows(space, 0, 6)
    block = space.module_coords_in_m(0)
    inside = block @ np.full(block.shape[1], 1 / np.sqrt(block.shape[1]))
    x = np.vstack([generic[:3], inside, np.zeros(space.m.dim), generic[3:]])
    assert _qr_refused(space, x) == [3, 4]
    all_kinds = kinds[:3] + ["generic"] * 2 + kinds[3:]
    stacked = _assert_refused_rows_are_solved_again(space, x, all_kinds,
                                                    monkeypatch)
    certified = [0, 1, 2, 5, 6, 7]
    want = dict(zip(certified, _min_norm_parts(space, x[certified],
                                               stacked[1][certified])))
    monkeypatch.setattr(go, "_directions", lambda blocks, label, samples: (
        x[samples].copy(), all_kinds[samples.start:samples.stop]))
    fac = go._Factorisation(space, 0)
    fac.fill(space, range(len(x)))
    projected, min_norm = [], go._min_norm
    monkeypatch.setattr(go, "_min_norm", lambda split, row, z: (
        projected.append(row.tobytes()), min_norm(split, row, z))[1])
    a = go.MetricOperator.two_param(space, 1, 2)
    for _ in range(2):
        for i in certified:
            assert fac.z_at(a, [i])[0].tobytes() == \
                (want[i] @ np.array([-1.0, -0.5])).tobytes()
    assert projected == [x[i].tobytes() for i in certified]
    assert fac.projected == set(certified)


@pytest.mark.parametrize("entry_id", ["go-1", "go-4-r2", "go-5", "go-6-m3n2",
                                      "go-7-n2"])
def test_pair_factorisation_matches_a_pseudo_inverse_reference(entry_id):
    # at X = P1 x, Y = P2 x the systems are consistent, so Z_Y and Z_X
    # are the reference's min-norm parts at x, and the graph witness
    # their combination, within 1e-12 of its size. At X = 0 or Y = 0,
    # b is rounding noise, and every z stays below 1e-14, as the
    # reference's does: the rank_threshold cut does not amplify it
    space = catalog.catalog_instantiate(entry_id, seed=0)
    p1, p2 = space.module_projectors
    hb = space.h.basis
    x, _ = _sampled_rows(space, 1, 6)
    pairs = ((1, 2), (2.5, 0.5))
    for v, y in zip(x, _reference_solve(space, x)[1]):
        dec = go.zxzy_decompose(space, p1 @ v, p2 @ v)
        got = [dec.z_y, dec.z_x] + [
            go.geodesic_graph(space, *pair, p1 @ v, p2 @ v).z for pair in pairs]
        want = [y[:, 0], y[:, 1]] + [y @ go._weights(*pair) for pair in pairs]
        for g, w in zip(got, want):
            w = hb @ w
            assert np.linalg.norm(g - w) <= 1e-12 * max(1.0, np.linalg.norm(w))
        for pair in ((p1 @ v, 0 * v), (0 * v, p2 @ v)):
            ref = _reference_solve(space, [sum(pair)])[1][0]
            dec = go.zxzy_decompose(space, *pair)
            for z in (dec.z_x, dec.z_y, hb @ ref[:, 0], hb @ ref[:, 1],
                      go.geodesic_graph(space, 1, 2, *pair).z):
                assert np.linalg.norm(z) <= 1e-14


def test_factorisation_qr_certificate_refuses_what_the_svd_would_cut():
    # a Kahan matrix times 1e3 has pivots above the pivot floor and every
    # singular value above RANK_FLOOR, yet the SVD cuts its smallest one;
    # a well-conditioned matrix of norm 1e-13 has every singular value
    # below RANK_FLOOR; a zero matrix has zero pivots. Only the
    # well-conditioned unit-scale row is solved by QR
    n, s = 30, 0.6
    kahan = 1e3 * np.diag(s ** np.arange(n)) @ (
        np.eye(n) - np.sqrt(1 - s * s) * np.triu(np.ones((n, n)), 1))
    assert np.abs(np.diag(kahan)).min() > \
        go.QR_PIVOT_FLOOR * np.linalg.norm(kahan)
    assert linalg.svd_rank(kahan) == n - 1
    assert np.linalg.svd(kahan, compute_uv=False)[-1] > linalg.RANK_FLOOR
    well = np.linalg.qr(rng_for("test-qr", 0).standard_normal((n, n)))[0]
    m = np.stack([well, kahan, 1e-13 * well, np.zeros((n, n))])
    parts = rng_for("test-qr", 1).standard_normal((4, n, 3))
    z = np.full((4, n, 3), np.nan)
    assert go._qr_solve(np.concatenate([m, parts], axis=2),
                        np.linalg.norm(m, axis=(1, 2)), z).tolist() == [1, 2, 3]
    np.testing.assert_allclose(z[0], well.T @ parts[0], atol=1e-13)
    assert np.isnan(z[1:]).all()


def test_factorisation_triangular_inverse_matches_the_general_inverse():
    # raw QR output holds its Householder vectors below the diagonal;
    # _triu_inverse reads only the triangle, agrees with the general
    # inverse of the triangle, and gives each matrix the same bits
    # stacked or alone
    a = rng_for("test-triu", 0).standard_normal((9, 20, 24))
    for n in (0, 1, 2, 7, 18):
        raw = np.linalg.qr(a, mode="raw")[0].swapaxes(1, 2)[:, :n, :n].copy()
        if n > 1:
            assert np.tril(raw, -1).any(axis=(1, 2)).all()
        got = go._triu_inverse(raw)
        want = np.linalg.inv(np.triu(raw))
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=(1, 2), initial=1.0)
        assert (np.abs(got - want).max(axis=(1, 2), initial=0.0)
                <= 1e-13 * scale).all()
        assert not np.tril(got, -1).any()
        for i in range(len(raw)):
            assert go._triu_inverse(raw[i:i + 1])[0].tobytes() == \
                got[i].tobytes()


@pytest.mark.parametrize("entry_id", ["go-2", "go-4-r2", "struct-3"])
def test_factorisation_runs_no_general_inverse(entry_id, monkeypatch):
    # the certified solve reads R off LAPACK's raw QR and inverts R11 by
    # back-substitution: _factorise calls neither np.linalg.inv nor
    # np.linalg.qr(mode="r"), nor, on a stabilizer frame, the kernel's
    # reduced QR, and still solves every sample
    space = catalog.catalog_instantiate(entry_id, seed=0)
    inv, qr, factorise = np.linalg.inv, np.linalg.qr, go._factorise
    inside, calls = [], []

    def spied_inv(*args, **kwargs):
        if inside:
            calls.append("inv")
        return inv(*args, **kwargs)

    def spied_qr(a, mode="reduced"):
        if inside:
            calls.append(mode)
        return qr(a, mode=mode)

    def spied_factorise(*args):
        inside.append(args)
        try:
            return factorise(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(np.linalg, "inv", spied_inv)
    monkeypatch.setattr(np.linalg, "qr", spied_qr)
    monkeypatch.setattr(go, "_factorise", spied_factorise)
    verdict = go.go_check(space, (1, 2), n_samples=100, seed=0)
    assert verdict.status == "GO_CONSISTENT"
    assert calls == ["raw"]


def test_factorisation_qr_certificate_refuses_an_overflowing_inverse():
    # I + 1e6 N, N the strictly upper ones of size 60, is its own R and
    # its pivots pass the pivot floor, but its inverse, with entries
    # near 1e6^58, overflows: the row is refused without a warning
    n = 60
    m = np.eye(n) + 1e6 * np.triu(np.ones((n, n)), 1)
    assert 1.0 > go.QR_PIVOT_FLOOR * np.linalg.norm(m)
    z = np.full((1, n, 3), np.nan)
    parts = np.ones((1, n, 3))
    assert go._qr_solve(np.concatenate([m[None], parts], axis=2),
                        np.linalg.norm(m)[None], z).tolist() == [0]
    assert np.isnan(z).all()


def test_a_rejected_sample_is_solved_again_and_the_run_goes_on(monkeypatch):
    # corrupt one held sample so the batched residual test rejects it:
    # go_witness_general solves that sample alone, and its solvable
    # answer is the witness there while the run continues
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    pair = (1, 2)
    go.go_check(space, pair, n_samples=40, seed=0)
    space.go_factorisations[go._Factorisation].d[17] += 1.0
    solve = go.go_witness_general
    calls = []

    def counted(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]
    monkeypatch.setattr(go, "go_witness_general", counted)
    verdict = go.go_check(space, pair, n_samples=40, seed=0)
    monkeypatch.undo()
    assert verdict.status == "GO_CONSISTENT"
    assert verdict.n_samples == len(verdict.witnesses) == 40
    want = _oracle(space, pair, 40, 0)[17]
    assert len(calls) == 1
    (_, _, x, _, kind), got = calls[0]
    np.testing.assert_array_equal(x, want.x)
    assert kind == want.kind
    assert verdict.witnesses[17] is got
    assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())


def test_factored_witnesses_are_built_when_read(monkeypatch):
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    go.go_check(space, (1, 2), n_samples=40, seed=0)
    built = []

    class Counted(go.GoWitness):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["x"])
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(go, "GoWitness", Counted)
    verdict = go.go_check(space, (3, 0.5), n_samples=40, seed=0)
    witnesses = verdict.witnesses
    assert verdict.status == "GO_CONSISTENT" and not built
    assert len(witnesses) == 40 and not built
    # each witness is built once, on first access, whatever the index
    assert witnesses[-1] is witnesses[39]
    assert witnesses[-40] is witnesses[0]
    assert len(built) == 2
    for bad in (40, -41):
        with pytest.raises(IndexError):
            witnesses[bad]
    part = witnesses[5:11:2]
    assert isinstance(part, tuple) and len(part) == 3
    assert all(w is witnesses[i] for w, i in zip(part, range(5, 11, 2)))
    assert witnesses[38:100] == (witnesses[38], witnesses[39])
    listed = list(witnesses)
    assert all(w is witnesses[i] for i, w in enumerate(listed))
    assert len(built) == 40
    assert all(isinstance(w, Counted) and w.solvable for w in listed)
    with pytest.raises(TypeError):
        witnesses[0] = witnesses[1]
    # a NOT_GO run ends at its counterexample, go_witness_general's object
    monkeypatch.undo()
    verdict = go.go_check(catalog.catalog_instantiate("t1-V.10", seed=0),
                          (3, 1))
    assert verdict.status == "NOT_GO"
    assert verdict.counterexample is verdict.witnesses[-1]
    assert verdict.counterexample.rank_gap == 1
    assert all(w.solvable for w in verdict.witnesses[:-1])


# --- the probe of sample 0 and the float certificate ----------------------

CERTIFIED = ["t1-V.1-m3n3", "t1-V.6-n2", "t1-V.10"]


def _certified_runs():
    """(space, metric, seed) of every float counterexample pinned below:
    the three t1 entries at DEFAULT_PAIRS and seeds 0..2, and so(5)/so(3)
    under a diagonal block metric."""
    for entry_id in CERTIFIED:
        space = catalog.catalog_instantiate(entry_id, seed=0)
        for seed in range(3):
            for pair in catalog.DEFAULT_PAIRS:
                yield space, pair, seed
    space = _space("so(5)/so(3)")
    for seed in range(3):
        yield space, _metric(space, "diag"), seed


def test_float_certificates_match_plain_numpy_references(monkeypatch):
    # each counterexample's rank gap, margin and residual, against numpy's
    # own matrix_rank, SVD and lstsq of the system go_witness_general
    # built: the smallest singular value of [lhs | rhs] beyond the rank
    # of lhs is the margin, and the residual is reported at A's scale
    systems = []
    solve = go.min_norm_solve
    monkeypatch.setattr(go, "min_norm_solve",
                        lambda a, b: systems.append((a, b)) or solve(a, b))
    checked = 0
    for space, metric, seed in _certified_runs():
        systems.clear()
        verdict = go.go_check(space, metric, seed=seed)
        assert verdict.status == "NOT_GO"
        got, (lhs, rhs) = verdict.counterexample, systems[-1]
        aug = np.column_stack([lhs, rhs])
        rank = np.linalg.matrix_rank(lhs)
        assert got.rank_gap == np.linalg.matrix_rank(aug) - rank == 1
        assert got.margin == pytest.approx(
            np.linalg.svd(aug, compute_uv=False)[rank], rel=1e-12, abs=0)
        z = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        scale = go._as_metric(space, metric).spectral_norm
        assert got.residual == pytest.approx(
            scale * np.linalg.norm(lhs @ z - rhs), rel=1e-12, abs=0)
        checked += 1
    assert checked == 3 * 3 * 3 + 3


def test_min_norm_solve_cuts_where_lstsq_cuts_for_the_certificate():
    # singular values at max(shape) eps s_max (6e-15 here) and below are
    # cut, as lstsq(rcond=None) cuts them, and 1e-6 is kept by both; the
    # reported singular values are all of a's
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    for tiny in (0.0, 1e-17, 1e-15, 1e-6):
        a = u[:, :6] @ np.diag([3.0, 2.0, 1.0, 0.5, tiny, tiny]) @ v.T
        b = rng.standard_normal(9)
        x, residual, s = linalg.min_norm_solve(a, b)
        want = np.linalg.lstsq(a, b, rcond=None)
        assert (np.linalg.norm(x) < 10) == (tiny < 1e-14)
        np.testing.assert_allclose(x, want[0], rtol=1e-8, atol=1e-12)
        # |x| near 1e6 at tiny = 1e-6: a x - b loses about 1e-10
        assert residual == pytest.approx(np.linalg.norm(a @ want[0] - b),
                                         rel=1e-8)
        np.testing.assert_allclose(s, want[3], rtol=1e-12, atol=1e-15)


def test_the_probe_ends_a_not_go_run_with_nothing_factorised(monkeypatch):
    # a new seed's call first solves sample 0: a counterexample there is
    # the verdict, with no factorisation; a GO call then solves sample 0
    # once more, as its probe, and factorises the whole call in one chunk
    space = catalog.catalog_instantiate("t1-V.10", seed=0)
    events = []
    factorise, solve = go._factorise, go.go_witness_general
    monkeypatch.setattr(go, "_factorise", lambda space, x: events.append(
        ("factorise", len(x))) or factorise(space, x))
    monkeypatch.setattr(go, "go_witness_general", lambda *args: events.append(
        "solve") or solve(*args))
    for pair in catalog.DEFAULT_PAIRS:
        verdict = go.go_check(space, pair, n_samples=100, seed=4)
        assert (verdict.status, verdict.n_samples) == ("NOT_GO", 1)
        assert verdict.counterexample is verdict.witnesses[0]
        assert verdict.max_residual == 0.0
    assert events == ["solve"] * 3
    fac = space.go_factorisations[go._Factorisation]
    assert (fac.held, len(fac.rows)) == (0, 1)
    # the kept draw is the one a fill gives sample 0
    np.testing.assert_array_equal(fac.rows[0], _sampled_rows(space, 4, 1)[0][0])
    events.clear()
    go_space = catalog.catalog_instantiate("go-5", seed=0)
    assert go.go_check(go_space, (1, 2), n_samples=100,
                       seed=4).status == "GO_CONSISTENT"
    assert events == ["solve", ("factorise", 100)]


@pytest.mark.parametrize("entry_id", ["go-3-k2", "go-4-r2", "t1-V.10",
                                      "t1-V.1-m3n3"])
def test_the_probe_raises_tolerance_errors_where_the_read_off_does(entry_id):
    # a call of one sample takes the read-off path for sample 0, and a
    # longer call after it reads sample 0 off the held chunk; a fresh
    # space probes sample 0 instead. Over tolerances that make samples
    # ambiguous, both raise the same ToleranceError or give the same
    # verdict and witnesses, to the last bit
    raised = 0
    for tol in (1e-3, 1e-4, 1e-9, 1e-14, 1e-15, 1e-16, 1e-17):
        for pair in ((1, 2), (2, 1), (1, 1.001)):
            outcomes = []
            for probed in (False, True):
                space = catalog.catalog_instantiate(entry_id, seed=0)
                try:
                    if not probed:
                        go.go_check(space, pair, n_samples=1, seed=0, tol=tol)
                    outcomes.append(_dumps(go.go_check(
                        space, pair, n_samples=40, seed=0, tol=tol)))
                except go.ToleranceError as err:
                    outcomes.append(str(err))
                    raised += 1
            assert outcomes[0] == outcomes[1], (tol, pair)
    assert raised


def test_an_ambiguous_probe_leaves_sample_0_to_the_read_off(monkeypatch):
    # where the probe's solve raises ToleranceError, the call factorises
    # as a call without a probe does: sample 0 is the read-off's, and had
    # the read-off rejected it, solving it again raises as before
    held = catalog.catalog_instantiate("go-3-k2", seed=0)
    go.go_check(held, (1, 2), n_samples=1, seed=0)
    want = _dumps(go.go_check(held, (1, 2), n_samples=40, seed=0))
    solve, calls, always = go.go_witness_general, [], []

    def ambiguous(*args):
        calls.append(args)
        if len(calls) == 1 or always:
            raise go.ToleranceError("ambiguous")
        return solve(*args)
    monkeypatch.setattr(go, "go_witness_general", ambiguous)
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    assert _dumps(go.go_check(space, (1, 2), n_samples=40, seed=0)) == want
    assert len(calls) == 1
    calls.clear()
    always.append(True)
    with pytest.raises(go.ToleranceError, match="ambiguous"):
        go.go_check(catalog.catalog_instantiate("t1-V.10", seed=0), (1, 2),
                    n_samples=40, seed=0)
    assert len(calls) == 2  # the probe, then the solve again of sample 0


def test_a_held_read_off_forms_no_z_until_a_witness_is_read(monkeypatch):
    # a 100-sample GO call on held samples runs no concatenation and
    # forms no witness z; reading a witness forms its z alone, as the
    # parts held for it combine: (1 - t)(Y1 + Y2/t), t = mu/lam
    space = catalog.catalog_instantiate("go-4-r2", seed=0)
    go.go_check(space, (1, 2), n_samples=100, seed=0)
    fac = space.go_factorisations[go._Factorisation]
    formed, joined = [], []
    z_at, concatenate = go._Factorisation.z_at, np.concatenate
    monkeypatch.setattr(go._Factorisation, "z_at", lambda self, a, at: (
        formed.extend(at), z_at(self, a, at))[1])
    monkeypatch.setattr(np, "concatenate", lambda *args, **kwargs: (
        joined.append(1), concatenate(*args, **kwargs))[1])
    verdict = go.go_check(space, (2.5, 0.5), n_samples=100, seed=0)
    monkeypatch.setattr(np, "concatenate", concatenate)
    assert verdict.status == "GO_CONSISTENT" and verdict.n_samples == 100
    assert formed == [] and joined == []
    z = verdict.witnesses[37].z
    assert formed == [37]
    t = 0.5 / 2.5
    assert z.tobytes() == \
        (fac.z[37] @ np.array([1.0 - t, (1.0 - t) / t])).tobytes()


@pytest.mark.parametrize("entry_id", sorted(STABILIZER))
def test_factorisation_reads_a_min_norm_z_off_particular_parts(entry_id):
    # the fill certifies every factorised sample of a space with a
    # nonzero generic stabilizer and holds its particular parts, projected
    # at the first read; each read witness z is the pseudo-inverse
    # reference's and orthogonal to ker M, to 1e-12
    space = catalog.catalog_instantiate(entry_id, seed=0)
    x, _ = _sampled_rows(space, 0, 30)
    ms, parts, _ = _reference_solve(space, x)
    for pair in ((1, 2), (2.5, 0.5)):
        verdict = go.go_check(space, pair, n_samples=30, seed=0)
        fac = space.go_factorisations[go._Factorisation]
        if pair == (1, 2):
            assert fac.certified.all() and not fac.projected
        lam, mu = pair
        for w, row, m, part in zip(verdict.witnesses, x, ms, parts):
            np.testing.assert_array_equal(w.x, row)
            t = mu / lam
            want = part @ np.array([1.0 - t, (1.0 - t) / t])
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(w.z - want) <= 1e-12 * scale
            kernel = np.linalg.svd(m)[2][linalg.svd_rank(m):]
            assert len(kernel) == space.h.dim - space.split.stabilizer_frame[1]
            assert np.linalg.norm(kernel @ w.z) <= 1e-12 * scale
    assert fac.projected == set(range(30))


@pytest.mark.parametrize("entry_id, go_ok", [("t1-V.1-m3n3", False),
                                             ("go-2", True)])
def test_factorisation_read_off_is_the_residual_of_its_witness(entry_id,
                                                              go_ok):
    # each held sample's residual, read off D0 + t D1 + t^2 D2 and |b|, is
    # s |(A/s) M z - rhs| for the z it hands out and the M of its row, to
    # 1e-12 of its rows: on a negative, where the D_k are of order one,
    # under every ratio, and on a GO entry, where every sample is accepted
    space = catalog.catalog_instantiate(entry_id, seed=0)
    fac = go._Factorisation(space, 0)
    fac.fill(space, range(40))
    dm = space.m.dim
    brackets = space.m_bracket_m.reshape(dm, dm * dm)
    for pair in ((1, 2), (0.2, 5), (3, 1)):
        a = go.MetricOperator.two_param(space, *pair)
        s = a.spectral_norm
        ok, residuals = fac.read_off(a, go.DEFAULT_TOL, slice(0, fac.held))
        assert ok.tolist() == [go_ok] * fac.held
        for i, x in enumerate(fac.rows):
            m = go._m_of(space.iso_action, x[None])[0]
            ax = a.matrix @ x / s
            rhs = -ax @ (x @ brackets).reshape(dm, dm)
            want = s * np.linalg.norm(a.matrix / s @ m @ fac.z_at(a, [i])[0]
                                      - rhs)
            assert abs(residuals[i] - want) <= \
                1e-12 * max(1.0, np.linalg.norm(fac.d[i]))


def test_factorisation_on_go_5_runs_one_narrow_qr_and_no_kernel_qr(
        monkeypatch):
    # go-5 (generic stabilizer 8): a 100-sample call runs one batched raw
    # QR, of [M S | P1 b, P2 b] (r + 2 columns), and a held read-off under
    # another pair none; reading a witness runs its row's raw QR of M F
    # and the kernel's reduced QR, once
    space = catalog.catalog_instantiate("go-5", seed=0)
    dm, dh = space.m.dim, space.h.dim
    rank = space.split.stabilizer_frame[1]
    assert dh - rank == 8
    qr, calls = np.linalg.qr, []

    def spied_qr(a, mode="reduced"):
        calls.append((a.shape, mode))
        return qr(a, mode=mode)
    monkeypatch.setattr(np.linalg, "qr", spied_qr)
    go.go_check(space, (1, 2), n_samples=100, seed=0)
    assert calls == [((100, dm, rank + 2), "raw")]
    verdict = go.go_check(space, (2.5, 0.5), n_samples=100, seed=0)
    assert verdict.status == "GO_CONSISTENT" and len(calls) == 1
    verdict.witnesses[37].z
    assert calls[1:] == [((1, dm, dh), "raw"), ((1, dh, dh - rank), "reduced")]
    go.go_check(space, (1, 2), n_samples=100, seed=0).witnesses[37].z
    verdict.witnesses[37].z
    assert len(calls) == 3


def test_factorisation_of_a_warm_go_5_dumps_what_a_fresh_one_dumps():
    # on go-5, the widest stabilizer (8), 40 samples after 3 whose
    # witnesses were read dump, z included, what a fresh space dumps; so
    # do go-4-r2 (wide) and go-7-n2 (rank-losing), whose float samples
    # are solved on the split's stabilizer frame, go-2 (full rank: QR on
    # M itself) and, on the exact lane, go-3-k3
    def dump(verdict):
        return json.dumps([verdict.as_dict()]
                          + [w.as_dict() for w in verdict.witnesses])
    for entry_id, exact_mode in (("go-5", False), ("go-4-r2", False),
                                 ("go-7-n2", False), ("go-2", False),
                                 ("go-3-k3", True)):
        warm, fresh = (catalog.catalog_instantiate(entry_id, seed=0)
                       for _ in range(2))
        dump(go.go_check(warm, (1, 2), n_samples=3, seed=7,
                         exact_mode=exact_mode))
        got = dump(go.go_check(warm, (1, 2), n_samples=40, seed=7,
                               exact_mode=exact_mode))
        assert got == dump(go.go_check(fresh, (1, 2), n_samples=40, seed=7,
                                       exact_mode=exact_mode)), entry_id
        assert json.loads(got)[0]["n_samples"] == 40


@pytest.mark.parametrize("entry_id", TWO_SUMMAND)
def test_one_status_across_non_normal_pairs(entry_id):
    # GO for two-summand spaces is decided by the metric-free bracket
    # split, so every pair with lam != mu gets the same status
    space = catalog.catalog_instantiate(entry_id, seed=0)
    pairs = NON_NORMAL_PAIRS + [(7, 1), (1, 7), (3, 2.5), (0.5, 0.45)]
    statuses = {go.go_check(space, pair, seed=1).status for pair in pairs}
    assert len(statuses) == 1, statuses


# --- the exact lane: per-space data and integer samples -----------------

EXACT_CAPABLE = ["go-2", "go-3-k2", "go-3-k3", "go-4-r2", "go-5", "go-6-m2n1",
                 "go-6-m3n2", "go-7-n2", "go-8-n1", "t1-V.1-m3n3", "struct-2",
                 "struct-3", "struct-4", "struct-6", "struct-7"]
EXACT_PAIRS = [(Fraction(5, 2), Fraction(1, 3)), (Fraction(2, 3), Fraction(7, 4)),
               (Fraction(2), Fraction(2))]


@pytest.fixture()
def basis_calls(monkeypatch):
    """Spaces passed to spaces.exact_module_bases, through the module global."""
    seen = []
    build = spaces.exact_module_bases

    def spy(space):
        seen.append(space)
        return build(space)
    monkeypatch.setattr(spaces, "exact_module_bases", spy)
    return seen


def test_exact_module_bases_run_once_per_decomposition(so5_u2, basis_calls):
    # a copy with a decomposition of its own builds its exact lane once,
    # and another space carrying that decomposition reads the same lane
    fresh = replace(so5_u2, decomposition=None)
    twin = replace(fresh, name="twin")
    assert twin.decomposition is fresh.decomposition
    assert fresh.decomposition is not so5_u2.decomposition
    for space in (fresh, twin):
        for pair in EXACT_PAIRS:
            for seed in range(3):
                go.go_check(space, pair, n_samples=2, seed=seed,
                            exact_mode=True)
    assert basis_calls == [fresh]
    assert twin.exact_lane is fresh.exact_lane


@pytest.mark.parametrize("entry_id", ["go-1", "t1-V.10"])
def test_a_refused_space_is_refused_on_every_call(entry_id, basis_calls):
    space = catalog.catalog_instantiate(entry_id, seed=0)
    for _ in range(3):
        with pytest.raises(ExactUnavailableError):
            go.go_check(space, (1, 2), n_samples=1, exact_mode=True)
    assert len(basis_calls) == 3
    assert "exact_lane" not in vars(space)


def test_a_one_module_space_is_refused_on_every_access(basis_calls):
    # so(4)/so(3): m = R^3 is one module, which no isotypic pair refuses.
    # go_check cannot reach this refusal, as a two-parameter metric needs
    # two modules, so the lane is asked for directly
    space = spaces.decompose_isotropy(spaces.reductive_space(
        None, zoo.named_embedding("so_in_so", k=3, n=4)))
    assert space.module_dims == (3,) and space.isotypic_groups == ((0,),)
    for _ in range(3):
        with pytest.raises(ExactUnavailableError,
                           match="exact mode expects two modules"):
            space.exact_lane
    assert len(basis_calls) == 3
    assert "exact_lane" not in vars(space)


def test_a_copy_with_new_modules_builds_its_own_exact_data(so5_u2):
    # the tilted split of test_spaces must still be refused after the
    # original space's exact lane has run
    space = replace(so5_u2)
    assert go.go_check(space, (1, 2), n_samples=2, exact_mode=True).exact
    assert "exact_lane" in vars(space)
    b1 = space.module_coords_in_m(0).copy()
    b2 = space.module_coords_in_m(1).copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    b1[:, 0], b2[:, 0] = c * b1[:, 0] + s * b2[:, 0], c * b2[:, 0] - s * b1[:, 0]
    tilted = _with_modules(space, [b1, b2])
    assert "exact_lane" not in vars(tilted)
    with pytest.raises(ExactUnavailableError):
        tilted.exact_lane


def _exact_coefficients(space, seed, i):
    """Sample i's basis coefficients, one word at a time in Python ints:
    the words [i dm, (i + 1) dm) of rng_for("go-exact", name, seed),
    dm = dim m, word w read as (-3, -2, -1, 1, 2, 3)[w % 6]."""
    dm = space.m.dim
    bits = rng_for("go-exact", space.name, seed).bit_generator
    bits.advance(i * dm)
    return [(-3, -2, -1, 1, 2, 3)[int(w) % 6] for w in bits.random_raw(dm)]


def _fraction_sample(space, h, bases, rows, lam, mu, seed, i):
    """Sample i of the exact lane in Fraction arithmetic: X, and z in h
    coordinates (None when inconsistent) from one bracket_exact per
    column of the Fraction h basis ``h`` and a one-column exact.solve on
    the cleared columns, with the rational module bases ``bases`` and the
    integer rows ``rows``; module 1 takes the first of the sample's
    coefficients."""
    g = space.g
    coeffs = _exact_coefficients(space, seed, i)
    cut = bases[0].shape[1]
    parts = [basis @ np.array([Fraction(t) for t in c], dtype=object)
             for basis, c in zip(bases, (coeffs[:cut], coeffs[cut:]))]
    xg = parts[0] + parts[1]
    if lam == mu:
        return xg, exact.fzeros(space.h.dim)
    axg = lam * parts[0] + mu * parts[1]
    cols = rows @ exact.cleared(np.column_stack(
        [g.bracket_exact(col, axg) for col in h.T]
        + [g.bracket_exact(xg, axg)]))[0]
    solution = _solve(cols[:, :-1], -cols[:, -1])
    return xg, None if solution is None else exact.over(*solution)


ORACLE_PAIRS = EXACT_PAIRS + [(Fraction(3), Fraction(1)),
                              (Fraction(1, 5), Fraction(9, 2))]


@pytest.mark.parametrize("entry_id", EXACT_CAPABLE)
def test_integer_exact_lane_matches_the_fraction_path(entry_id):
    # every pair is read off one shared space, and so off one
    # factorisation per seed, against the oracle's own elimination on
    # the m-pairing rows, whose row space the lane's module rows share
    space = catalog.catalog_instantiate(entry_id, seed=0)
    lane = space.exact_lane
    bases = [exact.over(b, lane.denom) for b in lane.bases]
    # h's columns read off the float embedding, one exact.frac per entry
    h = exact.over(*exact.cleared(
        space.embedding.matrix.astype(object)))
    # m's rational basis is the kernel of h's Gram pairing
    gram = exact.over(*exact.rounded(space.g.inner_product))
    m_basis = exact.over(*exact.null_space(h.T @ gram))
    rows, _ = exact.cleared(m_basis.T @ gram)
    (want, d), (got, e) = exact.null_space(rows), exact.null_space(lane.rows)
    assert want.tolist() == got.tolist() and d == e
    to_h = space.h.basis.T @ space.g.inner_product
    to_m = space.m.basis.T @ space.g.inner_product
    statuses = set()
    for seed in range(3):
        for lam, mu in ORACLE_PAIRS:
            verdict = go.go_check(space, (lam, mu), n_samples=3, seed=seed,
                                  exact_mode=True)
            fac = space.go_factorisations[go._ExactFactorisation]
            c1 = lam.numerator * mu.denominator
            c2 = mu.numerator * lam.denominator
            for i, got in enumerate(verdict.witnesses):
                xg, want = _fraction_sample(space, h, bases, rows, lam, mu,
                                            seed, i)
                assert [Fraction(v, lane.denom)
                        for v in sum(fac.parts[i]).tolist()] == list(xg)
                np.testing.assert_array_equal(got.x,
                                              to_m @ exact.to_float(xg))
                assert got.rank_gap == (want is None)
                if want is None:
                    assert got.z is None
                    continue
                zg = h @ want
                if lam != mu:
                    # the stacked read-off, Fraction by Fraction: z is
                    # h_cols @ y in g coordinates, with the Y that the
                    # read back-substituted and kept
                    d = fac.tails[i][1] * lane.denom
                    y = [(c2 - c1) * (c2 * u + c1 * v) for u, v in fac.y[i]]
                    assert list(exact.over(lane.h_cols @ np.array(
                        y, dtype=object), c1 * c2 * d)) == list(zg)
                np.testing.assert_array_equal(got.z,
                                              to_h @ exact.to_float(zg))
            solvable = verdict.witnesses[-1].solvable
            assert verdict.status == ("NOT_GO" if not solvable else
                                      "NORMAL_TRIVIAL" if lam == mu else
                                      "GO_CONSISTENT")
            statuses.add(verdict.status)
    assert "NORMAL_TRIVIAL" in statuses
    assert ("NOT_GO" in statuses) == (entry_id == "t1-V.1-m3n3")


def test_exact_draw_coefficients_are_pinned_to_the_word(monkeypatch):
    # go-3-k2's exact samples 0, 1 and 57 at seed 0, pinned as basis
    # coefficients (module 1's two first): they must not move with the
    # numpy version or the chunk a sample is drawn in, and no module part
    # is zero. Each chunk reads one stream, advanced to its first sample,
    # and takes its parts in int64, the catalog lanes' bounds being far
    # below 2^63
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    want = {0: [-2, -1, -3, -3, -3, -3], 1: [-3, 3, -1, 2, 2, -1],
            57: [-1, 2, -3, 1, 1, -1]}
    b1, b2 = space.exact_lane.bases
    labels = []
    monkeypatch.setattr(go, "rng_for",
                        lambda *label: labels.append(label) or rng_for(*label))
    chunks = (range(0, 60), range(0, 2), range(57, 58))
    for chunk in chunks:
        fac = go._ExactFactorisation(space, 0)
        fac.fill(space, chunk)
        for i in set(want) & set(chunk):
            c = np.array(want[i], dtype=object)
            x1, x2 = fac.parts[i - chunk.start]
            assert x1.tolist() == (b1 @ c[:2]).tolist()
            assert x2.tolist() == (b2 @ c[2:]).tolist()
            assert x1.dtype == x2.dtype == np.int64
            assert any(x1) and any(x2)
    assert labels == [("go-exact", space.name, 0)] * len(chunks)
    for i, c in want.items():
        assert _exact_coefficients(space, 0, i) == c


@pytest.mark.parametrize("entry_id", EXACT_CAPABLE)
def test_exact_status_is_the_float_status_at_every_seed(entry_id):
    # the seed moves the decomposition and every sample of both lanes,
    # not the verdict: at each DEFAULT_PAIRS pair the exact status is the
    # float status at seeds 0..3, and an inconsistent system gains exactly
    # one rank on either lane
    for seed in range(4):
        space = catalog.catalog_instantiate(entry_id, seed=seed)
        for pair in catalog.DEFAULT_PAIRS:
            verdicts = [go.go_check(space, pair, seed=seed, exact_mode=mode)
                        for mode in (True, False)]
            assert verdicts[0].status == verdicts[1].status, (seed, pair)
            for verdict in verdicts:
                if verdict.status == "NOT_GO":
                    assert verdict.counterexample.rank_gap == 1


@pytest.mark.parametrize("entry_id", EXACT_CAPABLE)
def test_sample_system_is_the_lane_tensor_contracted_with_ax(entry_id,
                                                             monkeypatch):
    # the system and right-hand sides that each sample hands to
    # exact.eliminated, against the dense products rows @ ad(X) @ H and
    # rows_k @ [X1, X2] on the lane's primitive rows, each the pairing
    # row b_p^T G of a basis column over its content: the lane's rows are
    # module by module, and one elimination per sample serves every pair
    # at its seed. On the catalog every bound is far below 2^63, so both
    # come in int64
    space = catalog.catalog_instantiate(entry_id, seed=0)
    lane = space.exact_lane
    rows = lane.rows
    pairing = np.hstack(lane.bases).T.astype(object) @ exact.rounded(
        space.g.inner_product)[0]
    content = [math.gcd(*row) for row in pairing.tolist()]
    assert rows.tolist() == [[v // g for v in row] for row, g
                             in zip(pairing.tolist(), content)]
    assert [math.gcd(*row) for row in rows.tolist()] == [1] * len(rows)
    d1 = lane.bases[0].shape[1]
    assert not np.any(rows[:d1] @ lane.bases[1])
    assert not np.any(rows[d1:] @ lane.bases[0])
    eliminated, seen = exact.eliminated, []
    monkeypatch.setattr(exact, "eliminated", lambda ab, width: seen.append(
        (ab[:, :width], ab[:, width:])) or eliminated(ab, width))
    read = max(go.go_check(space, pair, n_samples=2, seed=5,
                           exact_mode=True).n_samples
               for pair in ORACLE_PAIRS if pair[0] != pair[1])
    assert len(seen) == read
    ad = space.g.structure_exact.ad_numerators
    fac = space.go_factorisations[go._ExactFactorisation]
    for (system, rhs), (x1, x2) in zip(seen, fac.parts):
        assert system.dtype == rhs.dtype == np.int64
        x1, x2 = x1.astype(object), x2.astype(object)
        dense = rows.astype(object) @ ad((x1 + x2)[:, None])[0].astype(
            object) @ lane.h_cols
        assert system.tolist() == dense.tolist()
        b = rows.astype(object) @ (ad(x1[:, None])[0].astype(object) @ x2)
        assert not any(rhs[:d1, 1]) and not any(rhs[d1:, 0])
        assert rhs[:d1, 0].tolist() + rhs[d1:, 1].tolist() == b.tolist()


def test_exact_lane_solves_no_sample_twice_and_none_at_equal_weights(
        monkeypatch):
    # lam == mu runs no elimination at all; four pairs at one seed solve
    # each sample once; and a float call and an exact call on one space
    # keep each other's factorisation
    space = catalog.catalog_instantiate("go-4-r2", seed=0)
    space.exact_lane
    eliminate, calls = exact._eliminate, []
    monkeypatch.setattr(exact, "_eliminate",
                        lambda *args: calls.append(args) or eliminate(*args))
    verdict = go.go_check(space, (2, 2), n_samples=100, exact_mode=True)
    assert verdict.status == "NORMAL_TRIVIAL" and verdict.n_samples == 100
    assert not calls
    held = space.go_factorisations[go._ExactFactorisation]
    go.go_check(space, (1, 2), n_samples=3)
    floats = space.go_factorisations[go._Factorisation]
    for pair in ORACLE_PAIRS:
        go.go_check(space, pair, n_samples=3, exact_mode=True)
        go.go_check(space, (1, 2), n_samples=3)
    assert len(calls) == 3
    assert space.go_factorisations[go._ExactFactorisation] is held
    assert space.go_factorisations[go._Factorisation] is floats
    assert list(space.go_factorisations) == [go._ExactFactorisation,
                                             go._Factorisation]


def test_exact_read_off_takes_each_pair_s_combination_of_the_tails():
    # a sample whose reduced right-hand sides are (1, -3) below the rank
    # is consistent exactly where c2 tail1 + c1 tail2 = 0, at mu = 3 lam,
    # and its z there depends only on the ratio
    space = catalog.catalog_instantiate("go-3-k2", seed=0)
    want = go.go_check(space, (1, 3), n_samples=1, exact_mode=True)
    fac = space.go_factorisations[go._ExactFactorisation]
    _, d = fac.tails[0]
    fac.tails[0] = [[1, -3]], d
    for pair in [(1, 3), (2, 6), (3, 1), (1, 2)]:
        verdict = go.go_check(space, pair, n_samples=1, exact_mode=True)
        if pair[1] == 3 * pair[0]:
            assert verdict.status == "GO_CONSISTENT"
            assert _dumps(verdict)[1:] == _dumps(want)[1:]
        else:
            assert verdict.status == "NOT_GO"
            assert verdict.counterexample.rank_gap == 1
            assert verdict.counterexample.margin == np.inf


def _spy_back_substitution(monkeypatch) -> list:
    """Every exact._back_substitute call from here on, by its arguments."""
    substitute, calls = exact._back_substitute, []
    monkeypatch.setattr(exact, "_back_substitute",
                        lambda *args: calls.append(args) or substitute(*args))
    return calls


@pytest.mark.parametrize("tail, wanted", [
    ([1, 3], False), ([0, 2], False), ([0, 0], True), ([1, -3], True)])
def test_back_substitution_runs_only_where_some_ratio_is_consistent(
        tail, wanted, monkeypatch):
    # the first sample of t1-V.1-m3n3 at seed 0 is inconsistent; its first
    # reduced row below the rank is set to ``tail`` and every other one to
    # zero. Only c2 t1 + c1 t2 = 0 with c1, c2 > 0 gives a witness z to
    # read: (1, -3) at mu = 3 lam, (0, 0) at every pair. The verdict
    # decides from the tail alone; the read back-substitutes
    space = catalog.catalog_instantiate("t1-V.1-m3n3", seed=0)
    space.exact_lane
    eliminate = exact._eliminate

    def planted(a, width):
        m, pivots, d = eliminate(a, width)
        assert len(pivots) < len(m)
        m[len(pivots):, width:] = 0
        m[len(pivots), width:] = tail
        return m, pivots, d
    monkeypatch.setattr(exact, "_eliminate", planted)
    calls = _spy_back_substitution(monkeypatch)
    verdict = go.go_check(space, (1, 3), n_samples=1, seed=0,
                          exact_mode=True)
    assert verdict.status == ("GO_CONSISTENT" if wanted else "NOT_GO")
    assert not calls
    assert verdict.witnesses[0].solvable == wanted
    assert len(calls) == wanted
    fac = space.go_factorisations[go._ExactFactorisation]
    assert (0 in fac.y) == wanted and (0 in fac.echelons) != wanted


def test_an_inconsistent_sample_skips_back_substitution(monkeypatch):
    # unplanted: t1-V.1-m3n3's first sample admits no positive ratio, so
    # the exact lane rejects it at every pair and never back-substitutes
    # it, while each of go-3-k2's consistent samples is back-substituted
    # once, at the first read of its witness, and not by the verdict
    inconsistent, consistent = (catalog.catalog_instantiate(entry, seed=0)
                                for entry in ("t1-V.1-m3n3", "go-3-k2"))
    inconsistent.exact_lane, consistent.exact_lane
    calls = _spy_back_substitution(monkeypatch)
    for pair in ORACLE_PAIRS:
        verdict = go.go_check(inconsistent, pair, n_samples=3, seed=0,
                              exact_mode=True)
        assert verdict.status == ("NORMAL_TRIVIAL" if pair[0] == pair[1]
                                  else "NOT_GO")
        assert verdict.n_samples == (3 if pair[0] == pair[1] else 1)
        list(verdict.witnesses)
    assert not calls
    verdict = go.go_check(consistent, (1, 3), n_samples=3, seed=0,
                          exact_mode=True)
    assert verdict.status == "GO_CONSISTENT" and not calls
    list(verdict.witnesses)
    assert len(calls) == 3


def test_exact_witness_z_back_substitutes_once_at_its_first_read(
        monkeypatch):
    # go-4-r2, 100 consistent samples: no verdict back-substitutes; the
    # first read of a witness runs one back-substitution for its sample,
    # and any later read, at any pair, reuses the Y it kept, giving the
    # z of a fresh space to the bit
    space = catalog.catalog_instantiate("go-4-r2", seed=0)
    calls = _spy_back_substitution(monkeypatch)
    pairs = [(Fraction(1), Fraction(2)), (Fraction(5, 2), Fraction(1, 3))]
    verdicts = [go.go_check(space, pair, n_samples=100, seed=0,
                            exact_mode=True) for pair in pairs]
    assert [v.status for v in verdicts] == ["GO_CONSISTENT"] * 2
    assert not calls
    fac = space.go_factorisations[go._ExactFactorisation]
    assert len(fac.echelons) == 100 and not fac.y
    verdicts[0].witnesses[37]
    assert len(calls) == 1 and list(fac.y) == [37]
    verdicts[0].witnesses[37]
    assert len(calls) == 1
    got = [_dumps(v) for v in verdicts]
    assert len(calls) == 100 and not fac.echelons
    for pair, dumps in zip(pairs, got):
        fresh = catalog.catalog_instantiate("go-4-r2", seed=0)
        assert _dumps(go.go_check(fresh, pair, n_samples=100, seed=0,
                                  exact_mode=True)) == dumps
    assert len(calls) == 300


@pytest.mark.parametrize("entry_id", EXACT_CAPABLE)
def test_lane_bounds_bound_every_sample_product(entry_id):
    # each lane-constant bound that picks int64 is at least the largest
    # sum its product can form: the row sums of |bases[k]| for x_k, a
    # key's sum of |values| for M, a k's sum of |c| over the lane's
    # bracket triples for [x1, x2] and the row sums of |rows| for rows @ b;
    # and 20 drawn samples (at lam == mu, which draws them all) stay
    # within them
    space = catalog.catalog_instantiate(entry_id, seed=0)
    lane, structure = space.exact_lane, space.g.structure_exact
    *x_tops, m_top, bracket_top, rows_top = lane.tops
    keys, _, values = lane.system
    i, _, numer, starts, run_keys = lane.brackets
    k = np.repeat(run_keys, np.diff(np.r_[starts, len(i)]))

    def key_sums(keys, values):
        out = {}
        for key, v in zip(keys.tolist(), values.tolist()):
            out[key] = out.get(key, 0) + abs(v)
        return max(out.values(), default=0)

    def row_sums(a):
        return max(sum(map(abs, row)) for row in a.tolist())
    assert x_tops == [row_sums(b) for b in lane.bases]
    assert m_top >= key_sums(keys, values)
    assert rows_top >= row_sums(lane.rows)
    assert bracket_top >= key_sums(k, numer)
    go.go_check(space, (2, 2), n_samples=20, seed=0, exact_mode=True)
    fac = space.go_factorisations[go._ExactFactorisation]
    assert len(fac.parts) == 20
    ad = structure.ad_numerators
    rows = lane.rows.astype(object)
    for x1, x2 in fac.parts:
        x1, x2 = x1.astype(object), x2.astype(object)
        top1, top2, top = map(exact._top, (x1, x2, x1 + x2))
        assert (top1, top2) <= (3 * x_tops[0], 3 * x_tops[1])
        m = rows @ ad((x1 + x2)[:, None])[0].astype(object) @ lane.h_cols
        assert exact._top(m) <= m_top * top
        keys, sums = structure.bracket_numerators(x1, x2)
        assert exact._top(sums) <= bracket_top * top1 * top2
        assert exact._top(rows[:, keys] @ sums) \
            <= rows_top * exact._top(sums)


@pytest.mark.parametrize("entry_id", ["go-4-r2", "t1-V.1-m3n3"])
@pytest.mark.parametrize("scale", [2 ** 30, 2 ** 62])
def test_a_lane_past_its_int64_bounds_runs_on_python_ints(entry_id, scale,
                                                          monkeypatch):
    # the lane's bases times 2^30 (x1 x2 past 2^63) or 2^62 (x_k past
    # it too), scaled on Python ints, as int64 would wrap, over a
    # denominator as much larger: the same rational samples, so each
    # sample's (y, d, tail) gives the Fraction oracle's z and consistency,
    # and the verdicts and witnesses are the int64 lane's. A bound past
    # 2^63 puts the whole lane, and so every product, on Python ints
    space = catalog.catalog_instantiate(entry_id, seed=0)
    lane = space.exact_lane
    planted = replace(space)
    vars(planted)["exact_lane"] = replace(
        lane, bases=tuple(b.astype(object) * scale for b in lane.bases),
        denom=lane.denom * scale)
    bases = [exact.over(b, lane.denom) for b in lane.bases]
    h = exact.over(*exact.cleared(
        space.embedding.matrix.astype(object)))
    gram = exact.over(*exact.rounded(space.g.inner_product))
    m_basis = exact.over(*exact.null_space(h.T @ gram))
    rows, _ = exact.cleared(m_basis.T @ gram)
    pairs = ORACLE_PAIRS[:2] + ORACLE_PAIRS[-2:]
    wants = [_dumps(go.go_check(space, pair, n_samples=3, seed=1,
                                exact_mode=True)) for pair in pairs]
    eliminate, dtypes = exact._eliminate, []
    monkeypatch.setattr(exact, "_eliminate", lambda a, width: dtypes.append(
        a.dtype) or eliminate(a, width))
    for (lam, mu), want in zip(pairs, wants):
        got = go.go_check(planted, (lam, mu), n_samples=3, seed=1,
                          exact_mode=True)
        assert _dumps(got) == want
        fac = planted.go_factorisations[go._ExactFactorisation]
        c1 = lam.numerator * mu.denominator
        c2 = mu.numerator * lam.denominator
        for i in range(got.n_samples):
            _, z = _fraction_sample(space, h, bases, rows, lam, mu, 1, i)
            tail, d = fac.tails[i]
            assert all(c2 * t1 + c1 * t2 == 0 for t1, t2 in tail) \
                == (z is not None)
            if z is not None:
                y = [(c2 - c1) * (c2 * u + c1 * v) for u, v in fac.y[i]]
                assert list(exact.over(lane.h_cols @ np.array(
                    y, dtype=object), c1 * c2 * d * lane.denom * scale)) \
                    == list(h @ z)
    assert _lane_dtypes(planted.exact_lane) == {np.dtype(object)}
    assert all(x.dtype == object for part in fac.parts for x in part)
    assert dtypes and set(dtypes) == {np.dtype(object)}


def _lane_dtypes(lane) -> set:
    """The dtypes of the integers a lane's samples read."""
    return {a.dtype for a in (*lane.bases, lane.rows, lane.system[2],
                              lane.brackets[2])}


@pytest.mark.parametrize("entry_id", EXACT_CAPABLE)
def test_a_lane_picks_one_dtype_for_every_integer_its_samples_read(
        entry_id):
    # every catalog lane's bounds are far below 2^63, so all its
    # integers are int64; the same lane with its bases times 2^30, built
    # from Python ints, decides again: its bracket bound passes 2^63, so
    # it is Python ints throughout, with the same values elsewhere. On
    # struct-2, struct-3 and struct-6 no bracket term joins the modules,
    # so their largest bound, M's, stays below 2^63, and they stay int64
    lane = catalog.catalog_instantiate(entry_id, seed=0).exact_lane
    assert _lane_dtypes(lane) == {np.dtype(np.int64)}
    planted = replace(lane, bases=tuple(b.astype(object) * 2 ** 30
                                        for b in lane.bases))
    if not len(lane.brackets[0]):
        assert _lane_dtypes(planted) == {np.dtype(np.int64)}
        # no bracket bound covers rows there: rows past 2^63 decide alone
        planted = replace(lane, rows=lane.rows.astype(object) * 2 ** 63)
        assert _lane_dtypes(planted) == {np.dtype(object)}
        return
    assert _lane_dtypes(planted) == {np.dtype(object)}
    for got, want in ((planted.rows, lane.rows),
                      (planted.system[2], lane.system[2]),
                      (planted.brackets[2], lane.brackets[2])):
        assert got.tolist() == want.tolist()
    assert all(type(v) is int for a in (*planted.bases, planted.rows)
               for v in a.flat)


@pytest.mark.parametrize("entry_id", ["go-1", "go-4-r2", "go-5"])
def test_a_witness_read_forms_its_min_norm_z_in_one_stacked_call(
        entry_id, monkeypatch):
    # at (1, 2) every float sample of these spaces holds particular parts;
    # a slice, then an iteration, of the witnesses forms the min-norm z of
    # the particular rows each read asks for in one _min_norm, and each z
    # is that of a one-index read on a fresh space, to the bit
    min_norm, stacks = go._min_norm, []
    monkeypatch.setattr(go, "_min_norm", lambda split, x, z: stacks.append(
        len(x)) or min_norm(split, x, z))
    space = catalog.catalog_instantiate(entry_id, seed=0)
    verdict = go.go_check(space, (1, 2), n_samples=100, seed=0)
    assert verdict.status == "GO_CONSISTENT" and not stacks
    part = verdict.witnesses[10:20]
    assert stacks == [10]
    read = list(verdict.witnesses)
    assert stacks == [10, 90] and read[10:20] == list(part)
    fresh = catalog.catalog_instantiate(entry_id, seed=0)
    alone = go.go_check(fresh, (1, 2), n_samples=100, seed=0)
    for i, w in enumerate(read):
        assert alone.witnesses[i].z.tobytes() == w.z.tobytes()
    assert stacks == [10, 90] + [1] * 100


# --- two-parameter metrics on the checked module projectors -------------

def test_module_projectors_are_checked_once_and_read_only(so5_u2):
    proj = so5_u2.module_projectors
    assert proj is so5_u2.module_projectors
    assert proj.shape == (2, 6, 6) and not proj.flags.writeable
    np.testing.assert_array_equal(proj, proj.transpose(0, 2, 1))
    assert np.abs(proj.sum(axis=0) - np.eye(6)).max() <= 1e-12
    for k in range(2):
        b = so5_u2.module_coords_in_m(k)
        np.testing.assert_array_equal(proj[k], b @ b.T)


def test_two_param_runs_no_eigvalsh_and_no_commutator(so5_u2, monkeypatch):
    so5_u2.module_projectors
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(type(so5_u2), "iso_action",
                        property(lambda self: calls.append(self)))
    for pair in [(1, 2), (2.5, 0.5), (1e3, 1e-3)]:
        metric = go.MetricOperator.two_param(so5_u2, *pair)
        assert metric.spectral_norm == max(pair)
        assert not metric.matrix.flags.writeable
    assert not calls


def test_two_param_forms_its_matrix_on_first_read(so5_u2):
    # a factorised run reads the weights, never lam P1 + mu P2; the first
    # read forms it once, read-only and bit-equal to the weighted sum
    p1, p2 = so5_u2.module_projectors
    metric = go.MetricOperator.two_param(so5_u2, 1.5, 2)
    assert go.go_check(so5_u2, metric, n_samples=5).status == "GO_CONSISTENT"
    assert not metric.is_scalar and metric.spectral_norm == 2.0
    assert "matrix" not in vars(metric)
    mat = metric.matrix
    assert mat is metric.matrix and not mat.flags.writeable
    assert mat.tobytes() == (1.5 * p1 + 2.0 * p2).tobytes()
    x = np.arange(1.0, 7.0)
    assert metric.apply(x).tobytes() == (mat @ x).tobytes()
    with pytest.raises(AttributeError):
        metric.weights


def test_two_param_refuses_a_split_that_is_not_invariant(so5_u2):
    # a 1e-3 rotation between the modules keeps both bases orthonormal and
    # P1 + P2 = I, so only the commutation check can refuse it, and it
    # refuses with the message a directly built operator gives
    b1 = so5_u2.module_coords_in_m(0).copy()
    b2 = so5_u2.module_coords_in_m(1).copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    b1[:, 0], b2[:, 0] = c * b1[:, 0] + s * b2[:, 0], c * b2[:, 0] - s * b1[:, 0]
    tilted = _with_modules(so5_u2, [b1, b2])
    message = "does not commute with the isotropy action"
    with pytest.raises(core.ValidationError, match=message):
        go.MetricOperator(space=tilted, matrix=b1 @ b1.T + 2 * b2 @ b2.T,
                          kind="two_param", params=(1, 2))
    for pair in [(1, 2), (1e3, 1e-3), (1e-3, 1e3)]:
        with pytest.raises(core.ValidationError, match=message):
            go.MetricOperator.two_param(tilted, *pair)
        with pytest.raises(core.ValidationError, match=message):
            go.go_check(tilted, pair, n_samples=2)


def test_two_param_refuses_modules_that_do_not_split_m(so5_u2):
    b1 = so5_u2.module_coords_in_m(0)
    b2 = so5_u2.module_coords_in_m(1)[:, 1:]
    with pytest.raises(core.ValidationError, match="P1 \\+ P2"):
        go.MetricOperator.two_param(_with_modules(so5_u2, [b1, b2]), 1, 2)


def test_a_directly_built_two_param_operator_keeps_every_check(so5_u2):
    p1, p2 = so5_u2.module_projectors
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 6))
    for matrix, message in [
            (raw @ raw.T + 6 * np.eye(6), "does not commute"),
            (p1 - p2, "not positive definite"),
            (p1 + 2 * p2 + 1e-6 * np.triu(raw), "not symmetric")]:
        with pytest.raises(core.ValidationError, match=message):
            go.MetricOperator(space=so5_u2, matrix=matrix, kind="two_param",
                              params=(1, 2))
    direct = go.MetricOperator(space=so5_u2, matrix=p1 + 2 * p2,
                               kind="two_param", params=(1, 2))
    built = go.MetricOperator.two_param(so5_u2, 1, 2)
    np.testing.assert_array_equal(direct.matrix, built.matrix)
    assert direct.spectral_norm == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("entry_id", TWO_SUMMAND)
def test_two_param_spectral_norm_is_the_larger_weight(entry_id):
    space = catalog.catalog_instantiate(entry_id, seed=0)
    for lam, mu in [(1, 2), (2.5, 0.5), (0.2, 5), (1.3, 2.7), (1e3, 1e-3)]:
        metric = go.MetricOperator.two_param(space, lam, mu)
        assert metric.spectral_norm == max(lam, mu)
        top = np.linalg.eigvalsh(metric.matrix)[-1]
        assert abs(top - max(lam, mu)) <= 1e-12 * max(lam, mu)


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the heap pin is for glibc only")


def _fresh_python(script, **env):
    """Run ``script`` in a fresh interpreter at one BLAS thread, with no
    MALLOC_* variable or glibc tunable but ``env``; its last output line."""
    child = {k: v for k, v in os.environ.items()
             if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    child.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **env)
    proc = subprocess.run([sys.executable, "-c", script], env=child,
                          check=True, capture_output=True, text=True)
    return proc.stdout.splitlines()[-1]


@glibc_only
def test_warm_go_lane_does_not_page_fault_with_the_heap_pin():
    # each fill frees 1-2.3 MiB of stacks; under glibc's default
    # thresholds they are trimmed or unmapped and faulted back on every
    # call (339 minor faults a call on go-5 alone), unless the heap is
    # pinned at import
    script = """
import resource
from orbitcheck import catalog, go
space = catalog.catalog_instantiate("go-5", seed=0)
for seed in range(3):
    go.go_check(space, (1.0, 2.0), seed=seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(3, 23):
    go.go_check(space, (1.0, 2.0), seed=seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""
    assert float(_fresh_python(script)) < 10


@glibc_only
def test_a_malloc_variable_overrides_the_heap_pin():
    # mallopt is spied on through ctypes.CDLL before the package loads:
    # two calls (mmap and trim thresholds) by default, none once the
    # environment sets glibc's own variable
    script = """
import ctypes
calls = []
cdll = ctypes.CDLL

class Spy:
    def __init__(self, *args, **kwargs):
        self.lib = cdll(*args, **kwargs)

    def __getattr__(self, name):
        if name == "mallopt":
            return lambda *args: calls.append(args) or 1
        return getattr(self.lib, name)
ctypes.CDLL = Spy
import orbitcheck
print(len(calls))
"""
    assert _fresh_python(script) == "2"
    assert _fresh_python(script, MALLOC_TRIM_THRESHOLD_="131072") == "0"

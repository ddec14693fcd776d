import numpy as np
import pytest

from orbitcheck import catalog, core, go
from orbitcheck.linalg import rng_for
from orbitcheck.spaces import ExactUnavailableError


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
                                      "t1-V.6-n2", "struct-4", "struct-5"])
def test_exact_lane_is_unavailable(entry_id):
    # isotypic pairs (go-1, struct-1) and embeddings without rational
    # entries (the rest) have no exact lane
    space = catalog.catalog_instantiate(entry_id, seed=0)
    with pytest.raises(ExactUnavailableError):
        go.go_check(space, (1, 2), n_samples=1, exact_mode=True)


@pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
@pytest.mark.parametrize("entry_id", ["go-3-k2", "go-3-k3", "go-6-m2n1",
                                      "go-8-n1", "struct-2", "struct-3",
                                      "struct-6", "struct-7"])
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


@pytest.mark.parametrize("entry_id", ["go-4-r2", "go-5"])
def test_float_status_is_invariant_under_homothety(entry_id):
    # GO is invariant under scaling the metric; the commutator check
    # once compared an absolute residual and refused (1e8, 2e8)
    space = catalog.catalog_instantiate(entry_id, seed=0)
    want = go.go_check(space, (1.0, 2.0), n_samples=20).status
    for exponent in range(-8, 9, 2):
        scale = 10.0 ** exponent
        verdict = go.go_check(space, (scale, 2 * scale), n_samples=20)
        assert verdict.status == want, scale


def test_commutator_check_is_relative_to_the_metric_scale(so5_u2):
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 6))
    raw = raw @ raw.T + 6 * np.eye(6)
    for scale in (1e-8, 1.0, 1e8):
        with pytest.raises(core.ValidationError):
            go.MetricOperator(space=so5_u2, matrix=scale * raw, kind="raw",
                              params=())

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import linalg


def test_rng_for_is_deterministic_and_label_sensitive():
    a = linalg.rng_for("go", "so(5)/u(2)", 0, 3).normal(size=4)
    b = linalg.rng_for("go", "so(5)/u(2)", 0, 3).normal(size=4)
    c = linalg.rng_for("go", "so(5)/u(2)", 0, 4).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0


def test_svd_rank_matches_known_ranks():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 5))
    assert linalg.svd_rank(a) == 5
    a[:, 4] = a[:, 0] + 2 * a[:, 1]
    assert linalg.svd_rank(a) == 4
    assert linalg.svd_rank(np.zeros((6, 3))) == 0


def test_rank_threshold_has_absolute_floor():
    s = np.array([1e-15])
    assert linalg.rank_threshold(s, (4, 4)) >= linalg.RANK_FLOOR


def test_nullspace_orthonormal_and_annihilating():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 11))
    a[:, 6] = a[:, 1] - a[:, 3]
    a[:, 9] = a[:, 0]
    k = linalg.nullspace(a)
    assert k.shape == (11, 2)
    np.testing.assert_allclose(k.T @ k, np.eye(2), atol=1e-12)
    assert np.abs(a @ k).max() < 1e-12


def test_nullspace_wide_matrix_keeps_all_kernel_directions():
    a = np.array([[1.0, 0.0, 0.0, 0.0]])
    k = linalg.nullspace(a)
    assert k.shape == (4, 3)
    assert np.abs(a @ k).max() < 1e-14


def _full_svd_kernel(a):
    # reference: the right singular vectors of a full SVD past the rank
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    return vt[linalg.rank_of(s, a.shape):].T


@pytest.mark.parametrize("shape,rank", [
    ((40, 11), 11), ((40, 11), 7), ((300, 6), 0), ((9, 9), 9), ((9, 9), 5),
    ((4, 10), 4), ((4, 10), 2), ((5, 0), 0), ((0, 5), 0), ((0, 0), 0)])
def test_nullspace_matches_the_full_svd_kernel(shape, rank):
    # tall matrices go through the R of a QR; the kernel projector and
    # the rank cut on the matrix's own shape must not change
    rng = np.random.default_rng(list(shape) + [rank])
    a = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
    k, ref = linalg.nullspace(a), _full_svd_kernel(a)
    assert k.shape == (shape[1], shape[1] - rank) == ref.shape
    np.testing.assert_allclose(k @ k.T, ref @ ref.T, atol=1e-12)
    np.testing.assert_allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-12)


def test_nullspace_cuts_the_rank_on_the_matrix_shape():
    # a singular value of 1e-10 beside 1e3 is below the cut of a
    # 4000-row matrix (4000 * eps * 1e3) but above that of its 2 x 2 R
    q = np.linalg.qr(np.random.default_rng(8).normal(size=(4000, 2)))[0]
    assert linalg.nullspace(q @ np.diag([1e3, 1e-10])).shape == (2, 1)


def test_column_space_spans_input():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 6))
    q = linalg.column_space(a)
    assert q.shape == (8, 3)
    proj = q @ (q.T @ a)
    np.testing.assert_allclose(proj, a, atol=1e-10)


def test_min_norm_solve_picks_least_norm_solution():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([2.0, 3.0])
    x, residual, s = linalg.min_norm_solve(a, b)
    np.testing.assert_allclose(x, [2.0, 3.0, 0.0], atol=1e-13)
    assert residual == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(s, [1.0, 1.0])


def _gap(a, b):
    # the rank of a comes from the singular values of the one solve
    _, _, s = linalg.min_norm_solve(a, b)
    rank_a = linalg.rank_of(s, a.shape)
    return (rank_a, *linalg.consistency_gap(a, b, rank_a))


def test_consistency_gap_flags_unsolvable_system():
    a = np.zeros((3, 2))
    a[0, 0] = 1.0
    rank_a, rank_aug, margin = _gap(a, np.array([0, 1.0, 0]))
    assert rank_aug == rank_a + 1
    assert margin == pytest.approx(1.0)


def test_consistency_gap_solvable_has_no_gap():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4))
    b = a @ rng.normal(size=4)
    rank_a, rank_aug, _ = _gap(a, b)
    assert rank_a == rank_aug == 4


def test_gram_orthonormalize_respects_metric():
    rng = np.random.default_rng(2)
    gram = np.diag([1.0, 2.0, 5.0, 0.5])
    basis = rng.normal(size=(4, 3))
    q = linalg.gram_orthonormalize(basis, gram)
    np.testing.assert_allclose(q.T @ gram @ q, np.eye(3), atol=1e-10)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_nullspace_dimension_theorem(n, seed):
    rng = np.random.default_rng(seed)
    rank = rng.integers(0, n + 1)
    a = rng.normal(size=(n + 3, rank)) @ rng.normal(size=(rank, n))
    k = linalg.nullspace(a)
    assert linalg.svd_rank(a) + k.shape[1] == n

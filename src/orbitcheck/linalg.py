"""Dense float64 linear algebra helpers shared across the package.

Subspace arithmetic is phrased against an explicit inner product (Gram)
matrix so that the same routines serve both the coordinate dot product
and the negative Killing form. Rank decisions use singular values with
a relative threshold of max(shape) * eps * sigma_max unless overridden,
floored at an absolute 1e-12 so numerically-zero matrices have rank 0.
Inputs are assumed to carry O(1) scale (orthonormal bases, integer
structure constants); rescale before calling if that does not hold.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_TOL = 1e-9

_EPS = np.finfo(np.float64).eps


def rng_for(*parts) -> np.random.Generator:
    """Deterministic generator derived from heterogeneous seed parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


RANK_FLOOR = 1e-12


def rank_threshold(singular_values: np.ndarray, shape: tuple[int, int],
                   rtol: float | None = None) -> float:
    if singular_values.size == 0:
        return 0.0
    if rtol is None:
        rtol = max(shape) * _EPS
    return max(rtol * float(singular_values[0]), RANK_FLOOR)


def svd_rank(a: np.ndarray, rtol: float | None = None) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rank_threshold(s, a.shape, rtol)))


def nullspace(a: np.ndarray, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``a``."""
    if a.shape[0] == 0 or a.size == 0:
        return np.eye(a.shape[1])
    wide = a.shape[0] < a.shape[1]
    _, s, vt = np.linalg.svd(a, full_matrices=wide)
    thr = rank_threshold(s, a.shape, rtol)
    rank = int(np.sum(s > thr))
    return vt[rank:].T.copy()


def column_space(a: np.ndarray, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    thr = rank_threshold(s, a.shape, rtol)
    rank = int(np.sum(s > thr))
    return u[:, :rank].copy()


def gram_orthonormalize(basis: np.ndarray, gram: np.ndarray,
                        rtol: float | None = None) -> np.ndarray:
    """Trim ``basis`` columns to an independent set, orthonormal w.r.t. ``gram``.

    ``gram`` must be symmetric positive definite on the ambient space.
    """
    if basis.shape[1] == 0:
        return basis.copy()
    independent = column_space(basis, rtol)
    c = independent.T @ gram @ independent
    c = 0.5 * (c + c.T)
    chol = np.linalg.cholesky(c)
    return independent @ np.linalg.inv(chol).T


def project_onto(v: np.ndarray, ortho_basis: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the span of gram-orthonormal columns."""
    if ortho_basis.shape[1] == 0:
        return np.zeros_like(v)
    return ortho_basis @ (ortho_basis.T @ (gram @ v))


def subspace_intersection(a: np.ndarray, b: np.ndarray,
                          rtol: float | None = None) -> np.ndarray:
    """Basis (columns, coordinate-orthonormal) of span(a) ∩ span(b)."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    stacked = np.hstack([a, -b])
    ns = nullspace(stacked, rtol)
    if ns.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    vectors = a @ ns[: a.shape[1]]
    return column_space(vectors, rtol)


def min_norm_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares solution and residual norm of ``a x = b``."""
    if a.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual


def consistency_gap(a: np.ndarray, b: np.ndarray,
                    rtol: float | None = None) -> tuple[int, int, float]:
    """Rank data certifying whether ``a x = b`` is solvable.

    Returns (rank_a, rank_aug, margin) where margin is the smallest
    singular value of the augmented matrix that exceeds the coefficient
    rank, i.e. the size of the inconsistency. margin is 0.0 when the
    ranks agree.
    """
    aug = np.hstack([a, b.reshape(-1, 1)])
    s_aug = np.linalg.svd(aug, compute_uv=False) if aug.size else np.zeros(0)
    if a.size:
        s_a = np.linalg.svd(a, compute_uv=False)
        rank_a = int(np.sum(s_a > rank_threshold(s_a, a.shape, rtol)))
    else:
        rank_a = 0
    thr = rank_threshold(s_aug, aug.shape, rtol)
    rank_aug = int(np.sum(s_aug > thr))
    margin = 0.0
    if rank_aug > rank_a:
        margin = float(s_aug[rank_a:rank_aug].min())
    return rank_a, rank_aug, margin
